//! The flight dump: a self-contained post-mortem artifact
//! (`<out>.flight.json`) assembled when a run goes wrong — a handler
//! panic, a transport fault, or an abort.
//!
//! Nothing is recorded for it while the run is healthy. A dump is
//! *assembled* from records that already exist for their own reasons: the
//! coordinator's fault log ([`FaultEvent`]s, mapped here to `fault-*`
//! [`Anomaly`] entries), the [`RunRecorder`](crate::RunRecorder)'s series
//! store, the metrics registry's snapshot, and whatever span buffers the
//! caller hands over. `threelc trace <dump.flight.json>` reads the artifact
//! back, and `threelc metrics --from <dump.flight.json>` its metrics.

use crate::snapshot::Snapshot;
use crate::timeseries::RunSeries;
use crate::trace::NodeTrace;
use serde::{Deserialize, Serialize};

/// One server-visible fault during a run: a worker disconnect or a
/// successful rejoin. Written once, by the coordinator in `threelc-net`;
/// the run report's fault log and a flight dump's `fault-*` anomalies
/// ([`FlightDump::new`]) both read this record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Step the coordinator was at when the event happened.
    pub step: u64,
    /// Worker involved.
    pub worker: usize,
    /// `disconnect` or `rejoin`.
    pub kind: String,
    /// Human-readable cause (the handler error for disconnects).
    pub detail: String,
}

/// One entry of a dump's `anomalies` list: a [`FaultEvent`] as
/// `fault-<kind>`. Dumps written by older builds also hold entries of
/// other kinds, which parse the same way.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Anomaly {
    /// `fault-disconnect`, `fault-rejoin`, … .
    pub kind: String,
    /// Step the anomaly occurred at.
    pub step: u64,
    /// Lane involved.
    #[serde(default)]
    pub node: String,
    /// Phase involved; empty for a fault.
    #[serde(default)]
    pub phase: String,
    /// The observed value; 0 for a fault.
    pub value: f64,
    /// The threshold the value crossed; 0 for a fault.
    pub threshold: f64,
    /// Human-readable summary.
    pub detail: String,
}

/// Schema version stamped into every dump.
pub const FLIGHT_VERSION: u32 = 1;

/// Trigger names stamped into dumps.
pub mod trigger {
    /// The run returned an error (barrier timeout, exhausted rejoins, …).
    pub const ABORT: &str = "abort";
    /// A handler thread panicked (caught by the coordinator).
    pub const PANIC: &str = "panic";
    /// An injected fault fired.
    pub const FAULT: &str = "fault";
}

/// A complete post-mortem artifact: the last N steps of every series,
/// the run's faults, the metrics snapshot, and the spans it was handed
/// (empty unless tracing was on).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Schema version ([`FLIGHT_VERSION`]).
    pub version: u32,
    /// What caused the dump (one of [`trigger`]'s constants).
    pub trigger: String,
    /// Human-readable trigger detail (the abort error, the panic text…).
    pub detail: String,
    /// Steps the series store had fully recorded when the dump was taken.
    pub steps_recorded: u64,
    /// The run's transport faults, as `fault-*` anomalies in coordinator
    /// order.
    pub anomalies: Vec<Anomaly>,
    /// The bounded series store (per-worker + run-level).
    pub series: RunSeries,
    /// The span buffers the dump was assembled with (empty when tracing
    /// was off).
    #[serde(default)]
    pub spans: Vec<NodeTrace>,
    /// The metrics registry when the dump was taken: what an aborted run,
    /// which writes no report, leaves of its counters and histograms.
    #[serde(default)]
    pub metrics: Snapshot,
}

impl FlightDump {
    /// Assembles a dump from the run's own records: every fault becomes a
    /// `fault-<kind>` anomaly; `spans` and `metrics` are carried as given.
    pub fn new(
        trigger: &str,
        detail: &str,
        series: RunSeries,
        faults: &[FaultEvent],
        spans: Vec<NodeTrace>,
        metrics: Snapshot,
    ) -> FlightDump {
        let anomalies = faults
            .iter()
            .map(|e| Anomaly {
                kind: format!("fault-{}", e.kind),
                step: e.step,
                node: format!("worker{}", e.worker),
                phase: String::new(),
                value: 0.0,
                threshold: 0.0,
                detail: e.detail.clone(),
            })
            .collect();
        FlightDump {
            version: FLIGHT_VERSION,
            trigger: trigger.to_string(),
            detail: detail.to_string(),
            steps_recorded: series.steps_recorded,
            anomalies,
            series,
            spans,
            metrics,
        }
    }

    /// Parses a dump from JSON text. Errors on schema mismatch.
    pub fn from_json(text: &str) -> Result<FlightDump, String> {
        let dump: FlightDump =
            serde_json::from_str(text).map_err(|e| format!("not a flight dump: {e}"))?;
        if dump.version != FLIGHT_VERSION {
            return Err(format!(
                "flight dump version {} unsupported (expected {})",
                dump.version, FLIGHT_VERSION
            ));
        }
        Ok(dump)
    }

    /// One-line-per-anomaly text summary.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight recorder: trigger={} steps_recorded={} workers={}",
            self.trigger,
            self.steps_recorded,
            self.series.workers.len()
        );
        if !self.detail.is_empty() {
            let _ = writeln!(out, "  detail: {}", self.detail);
        }
        if self.anomalies.is_empty() {
            let _ = writeln!(out, "  no anomalies recorded");
        }
        for a in &self.anomalies {
            let _ = writeln!(out, "  [{}] step {}: {}", a.kind, a.step, a.detail);
        }
        out
    }
}

/// Serializes a dump and writes it to `path`, then bumps the
/// `obs.flight.dumps` counter and emits a `flight.dump` event so the
/// structured log records where the artifact went.
pub fn write_flight_dump(path: &str, dump: &FlightDump) -> std::io::Result<()> {
    let json = serde_json::to_string(dump).map_err(std::io::Error::other)?;
    std::fs::write(path, json + "\n")?;
    crate::global().counter("obs.flight.dumps").add(1);
    if crate::log_enabled(crate::Level::Warn) {
        crate::emit(
            crate::Level::Warn,
            "flight.dump",
            &[
                ("path", path.to_string()),
                ("trigger", dump.trigger.clone()),
                ("anomalies", dump.anomalies.len().to_string()),
            ],
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::{RunRecorder, WorkerDelta};

    fn delta(worker: usize) -> WorkerDelta {
        WorkerDelta {
            worker,
            wire_bytes: 64,
            ratio: 8.0,
            loss: 1.0,
            rejoins: 0,
            step_seconds: 0.0,
            barrier_wait_seconds: 0.0,
        }
    }

    #[test]
    fn dump_maps_faults_to_anomalies_and_carries_the_series() {
        let mut rec = RunRecorder::new(1);
        rec.record_step(0, &[delta(0)]);
        rec.record_step(1, &[delta(0)]);
        let fault = FaultEvent {
            step: 1,
            worker: 0,
            kind: "kill".into(),
            detail: "injected kill@1".into(),
        };
        let dump = FlightDump::new(
            trigger::ABORT,
            "barrier timed out",
            rec.snapshot(),
            &[fault],
            Vec::new(),
            Snapshot::default(),
        );
        assert_eq!(dump.version, FLIGHT_VERSION);
        assert_eq!(dump.trigger, "abort");
        assert_eq!(dump.steps_recorded, 2);
        assert_eq!(dump.anomalies.len(), 1);
        assert_eq!(dump.anomalies[0].kind, "fault-kill");
        assert_eq!(dump.anomalies[0].node, "worker0");
        assert_eq!(dump.anomalies[0].detail, "injected kill@1");
        assert_eq!(dump.series.workers.len(), 1);
        let text = dump.render_text();
        assert!(text.contains("trigger=abort"), "{text}");
        assert!(text.contains("fault-kill"), "{text}");
    }

    #[test]
    fn dump_json_roundtrips_and_rejects_future_versions() {
        let series = RunRecorder::new(2).snapshot();
        let reg = crate::Registry::new();
        reg.counter("net.server.bytes_in").add(4096);
        let metrics = reg.snapshot();
        let dump = FlightDump::new(trigger::FAULT, "", series, &[], Vec::new(), metrics);
        let json = serde_json::to_string(&dump).expect("serialize");
        let back = FlightDump::from_json(&json).expect("parse");
        assert_eq!(back, dump);
        assert_eq!(back.metrics.counter("net.server.bytes_in"), Some(4096));
        let future = json.replace("\"version\":1", "\"version\":99");
        assert!(FlightDump::from_json(&future).is_err());
        // A dump written before the snapshot field parses with none.
        let none = FlightDump {
            metrics: Snapshot::default(),
            ..dump
        };
        let empty = ",\"metrics\":{\"counters\":[],\"histograms\":[]}";
        let json = serde_json::to_string(&none).expect("serialize");
        assert!(json.contains(empty), "{json}");
        let old = FlightDump::from_json(&json.replace(empty, "")).expect("parse old dump");
        assert_eq!(old, none);
    }

    #[test]
    fn write_flight_dump_creates_a_readable_file() {
        let path = std::env::temp_dir().join("threelc-flight-test.json");
        let path = path.to_str().expect("utf8 temp path").to_string();
        let series = RunRecorder::new(1).snapshot();
        let dump = FlightDump::new(
            trigger::FAULT,
            "kill@2",
            series,
            &[],
            Vec::new(),
            Snapshot::default(),
        );
        write_flight_dump(&path, &dump).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        let back = FlightDump::from_json(&text).expect("parse");
        assert_eq!(back.trigger, "fault");
        let _ = std::fs::remove_file(&path);
    }
}
