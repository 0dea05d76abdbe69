//! The registry's `span.*` histograms are a view of the spans, not a
//! second record of the same time: on a traced loopback run each one holds
//! exactly one sample per recorded span of its name, and an untraced run
//! registers none. One test in a binary of its own, because the registry
//! and the tracing switch are process-wide.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::thread;
use threelc_baselines::SchemeKind;
use threelc_distsim::ExperimentConfig;
use threelc_net::{run_worker, serve, NetReport, ServeOptions, WorkerOptions};

/// Serves `config` on an ephemeral loopback port to one client thread per
/// worker.
fn run(config: ExperimentConfig) -> NetReport {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = thread::spawn(move || serve(&listener, &config, &ServeOptions::default()));
    let clients: Vec<_> = (0..config.workers as u16)
        .map(|w| {
            let addr = addr.clone();
            thread::spawn(move || run_worker(&WorkerOptions::new(addr, w)))
        })
        .collect();
    for c in clients {
        c.join().expect("client thread").expect("worker run");
    }
    server.join().expect("server thread").expect("serve run")
}

/// Samples per span name in the global registry's `span.<name>.seconds`.
fn span_histograms() -> BTreeMap<String, u64> {
    let snap = threelc_obs::global().snapshot();
    let view = snap.histograms.into_iter().filter_map(|h| {
        let name = h.name.strip_prefix("span.")?.strip_suffix(".seconds")?;
        Some((name.to_string(), h.hist.count))
    });
    view.collect()
}

#[test]
fn span_histograms_hold_one_sample_per_recorded_span() {
    let config = ExperimentConfig {
        scheme: SchemeKind::three_lc(1.0),
        workers: 2,
        batch_per_worker: 8,
        total_steps: 5,
        model_width: 16,
        model_blocks: 1,
        eval_every: 0,
        seed: 5,
        ..Default::default()
    };
    threelc_obs::set_trace_enabled(false);
    run(config);
    assert_eq!(
        span_histograms(),
        BTreeMap::new(),
        "an untraced run timed spans"
    );

    threelc_obs::set_trace_enabled(true);
    let traced = run(config);
    threelc_obs::set_trace_enabled(false);
    let mut recorded: BTreeMap<String, u64> = BTreeMap::new();
    for node in &traced.node_traces {
        assert_eq!(node.dropped, 0, "{}: the ring wrapped", node.clock);
        for span in &node.spans {
            *recorded.entry(span.name.clone()).or_default() += 1;
        }
    }
    for phase in ["server-decode", "aggregate", "re-encode"] {
        assert_eq!(recorded.get(phase), Some(&config.total_steps), "{phase}");
    }
    assert!(recorded.contains_key("encode"), "{recorded:?}");
    assert_eq!(span_histograms(), recorded);
}
