//! The server's final JSON report.

use crate::counters::ConnCounters;
use serde::{Deserialize, Serialize};
use threelc_distsim::ExperimentResult;
pub use threelc_obs::FaultEvent;
use threelc_obs::{NodeTrace, RecentSteps};

/// One connection's summary in the final report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConnReport {
    /// Worker id this connection served.
    pub worker: usize,
    /// Peer address as reported by the socket.
    pub peer: String,
    /// Traffic and time counters.
    pub counters: ConnCounters,
}

/// The fault-tolerance section of the report: how turbulent the run was.
///
/// A fault-free run reports all zeros, and old reports without the
/// section parse as that.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultsReport {
    /// Mid-run worker disconnects the coordinator survived.
    pub disconnects: u64,
    /// Successful rejoins (each pairs with one disconnect).
    pub rejoins: u64,
    /// The event log, in coordinator order.
    #[serde(default)]
    pub events: Vec<FaultEvent>,
}

/// The networked run's final report: the standard [`ExperimentResult`]
/// (the same schema the `bench` harness caches and plots from), plus the
/// transport-level per-connection counters only a real network run has.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetReport {
    /// The training outcome in the simulator's result schema.
    pub result: ExperimentResult,
    /// CRC-32 fingerprint of the final global model's parameter bytes
    /// ([`crate::protocol::model_crc32`]); `threelc simulate` prints the
    /// same fingerprint for the same configuration, so "did the networked
    /// run converge to the simulator's exact model" is one string compare.
    /// Zero in reports written before the field existed.
    #[serde(default)]
    pub final_model_crc32: u32,
    /// Per-connection transport counters, in worker-id order. Workers
    /// that reconnected mid-run report the totals across all their
    /// connections.
    pub connections: Vec<ConnReport>,
    /// Disconnect/rejoin accounting for the run.
    #[serde(default)]
    pub faults: FaultsReport,
    /// Per-node span buffers collected at shutdown (server first, then
    /// workers in id order). Empty unless the run traced
    /// (`THREELC_TRACE=1`); `threelc trace` rebuilds the cross-node
    /// timeline, and `threelc analyze` its critical path and per-tensor
    /// view, from these.
    #[serde(default)]
    pub node_traces: Vec<NodeTrace>,
    /// The run's last steps, exactly what the last live series scrape
    /// would have returned. Equal to the simulator's for the same
    /// configuration but for the two wall-clock fields. Empty in reports
    /// written before the field existed; their `series` key is ignored.
    #[serde(default)]
    pub recent: RecentSteps,
}

#[cfg(test)]
mod tests {
    use super::*;
    use threelc_baselines::SchemeKind;
    use threelc_distsim::{run_experiment, ExperimentConfig};

    #[test]
    fn report_embeds_a_plain_experiment_result() {
        let result = run_experiment(&ExperimentConfig {
            workers: 1,
            batch_per_worker: 4,
            total_steps: 2,
            model_width: 8,
            model_blocks: 1,
            ..ExperimentConfig::for_scheme(SchemeKind::Float32)
        });
        let report = NetReport {
            result: result.clone(),
            final_model_crc32: 0xDEAD_BEEF,
            connections: vec![ConnReport {
                worker: 0,
                peer: "127.0.0.1:9".into(),
                counters: ConnCounters::default(),
            }],
            faults: FaultsReport {
                disconnects: 1,
                rejoins: 1,
                events: vec![FaultEvent {
                    step: 3,
                    worker: 0,
                    kind: "rejoin".into(),
                    detail: "replayed 3 step(s)".into(),
                }],
            },
            node_traces: vec![NodeTrace {
                clock: "server".into(),
                spans: Vec::new(),
                dropped: 0,
            }],
            recent: RecentSteps::default(),
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: NetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        // Reports from pre-trace, pre-fault-tolerance builds (no
        // node_traces/faults/final_model_crc32 keys) still parse.
        let stripped = json
            .replace(
                ",\"node_traces\":[{\"clock\":\"server\",\"spans\":[],\"dropped\":0}]",
                "",
            )
            .replace("\"final_model_crc32\":3735928559,", "")
            .replace(
                ",\"faults\":{\"disconnects\":1,\"rejoins\":1,\"events\":\
                 [{\"step\":3,\"worker\":0,\"kind\":\"rejoin\",\
                 \"detail\":\"replayed 3 step(s)\"}]}",
                "",
            );
        assert_ne!(stripped, json);
        assert!(!stripped.contains("faults"), "faults key not stripped");
        assert!(
            !stripped.contains("final_model_crc32"),
            "crc key not stripped"
        );
        let old: NetReport = serde_json::from_str(&stripped).unwrap();
        assert!(old.node_traces.is_empty());
        assert_eq!(old.final_model_crc32, 0);
        // And reports from builds that recorded fields since retired
        // (PRs 10-12 wrote the server's aggregation mode) parse too:
        // unknown keys are ignored.
        let with_retired = json.replacen('{', "{\"retired_key\":\"exact\",", 1);
        assert_eq!(
            serde_json::from_str::<NetReport>(&with_retired).unwrap(),
            report
        );
        assert_eq!(old.faults, FaultsReport::default());
        // A report as the server wrote it while the shared config still
        // carried servers, backup workers, stale pulls, per-worker pull
        // compression and straggler jitter, and every step record a
        // compute multiplier, an overlap flag and a critical-byte count,
        // and the report a metrics-registry snapshot.
        let retired = r#"{"result":{"config":{"scheme":"Float32","workers":1,"servers":1,"batch_per_worker":4,"total_steps":1,"lr_max":0.1,"lr_min":0.001,"momentum":0.9,"weight_decay":0.0001,"warmup_steps":60,"backup_workers":0,"staleness":0,"model_width":8,"model_blocks":1,"compress_threshold":512,"eval_every":0,"shared_pull_compression":true,"seed":42,"policy":"Static","timing":{"compute_seconds_per_step":0.41,"overlap_fraction":2,"reference_params":1730000,"straggler_jitter":0}},"scheme_label":"32-bit float","model_params":1810,"final_eval":{"loss":3.1904573,"accuracy":0.1064453125},"trace":{"steps":[{"step":0,"lr":0.0016666668,"loss":3.623241,"push_bytes":6144,"pull_bytes":6144,"raw_bytes":2192,"compressible_values":1536,"worker_codec_seconds":0.000003596,"server_codec_seconds":0.000009117,"compute_multiplier":1,"pull_overlapped":false,"critical_bytes":14480,"residual_l2":0}],"evals":[{"step":1,"eval":{"loss":3.1904573,"accuracy":0.1064453125}}],"anomalies":[],"policy":{"label":"static","records":[]}}},"final_model_crc32":0,"connections":[],"faults":{"disconnects":0,"rejoins":0,"events":[]},"node_traces":[],"anomalies":[],"series":{"steps_recorded":0,"workers":[],"run":[]},"analysis":null,"metrics":{"counters":[],"gauges":[],"histograms":[]}}"#;
        let parsed: NetReport = serde_json::from_str(retired).unwrap();
        assert_eq!(
            parsed.result.config,
            ExperimentConfig {
                total_steps: 1,
                ..result.config
            }
        );
        let [step] = &parsed.result.trace.steps[..] else {
            panic!("one step record");
        };
        assert_eq!(
            (step.push_bytes, step.pull_bytes, step.raw_bytes),
            (6144, 6144, 2192)
        );
        // The embedded result stays readable by ExperimentResult readers
        // (bench's cache schema).
        let embedded = serde_json::to_string(&report.result).unwrap();
        let parsed: ExperimentResult = serde_json::from_str(&embedded).unwrap();
        assert_eq!(parsed, result);
    }
}
