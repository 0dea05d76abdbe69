//! The flight dump: a self-contained post-mortem artifact
//! (`<out>.flight.json`) assembled when a run goes wrong — a handler
//! panic, a transport fault, or an abort.
//!
//! Nothing is recorded for it while the run is healthy. A dump is
//! *assembled* from records that already exist for their own reasons: the
//! coordinator's fault log ([`FaultEvent`]s, mapped here to `fault-*`
//! [`Anomaly`] entries), the run's [`RecentSteps`] ring, and whatever
//! span buffers the caller hands over.
//! `threelc trace <dump.flight.json>` reads the artifact back.

use crate::timeseries::RecentSteps;
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

/// A complete post-mortem artifact: the run's recent steps, its faults,
/// and the spans it was handed (empty unless tracing was on). Dumps
/// written by older builds also carry a `metrics` or a `series` key,
/// which parses and is ignored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Schema version ([`FLIGHT_VERSION`]).
    pub version: u32,
    /// What caused the dump (one of [`trigger`]'s constants).
    pub trigger: String,
    /// Human-readable trigger detail (the abort error, the panic text…).
    pub detail: String,
    /// Steps the ring had recorded when the dump was taken.
    pub steps_recorded: u64,
    /// The run's transport faults, as `fault-*` anomalies in coordinator
    /// order.
    pub anomalies: Vec<Anomaly>,
    /// The last steps' per-worker deltas (empty in older dumps).
    #[serde(default)]
    pub recent: RecentSteps,
    /// The span buffers the dump was assembled with (empty when tracing
    /// was off).
    #[serde(default)]
    pub spans: Vec<NodeTrace>,
}

impl FlightDump {
    /// Assembles a dump from the run's own records: every fault becomes a
    /// `fault-<kind>` anomaly; `spans` are carried as given.
    pub fn new(
        trigger: &str,
        detail: &str,
        recent: RecentSteps,
        faults: &[FaultEvent],
        spans: Vec<NodeTrace>,
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
            steps_recorded: recent.steps_recorded(),
            anomalies,
            recent,
            spans,
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
            self.trigger, self.steps_recorded, self.recent.workers
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

/// Serializes a dump and writes it to `path`, then emits a `flight.dump`
/// event so the structured log records where the artifact went.
pub fn write_flight_dump(path: &str, dump: &FlightDump) -> std::io::Result<()> {
    let json = serde_json::to_string(dump).map_err(std::io::Error::other)?;
    std::fs::write(path, json + "\n")?;
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
    use crate::timeseries::WorkerDelta;

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
        let mut rec = RecentSteps::new(1);
        rec.record(0, &[delta(0)]);
        rec.record(1, &[delta(0)]);
        let fault = FaultEvent {
            step: 1,
            worker: 0,
            kind: "kill".into(),
            detail: "injected kill@1".into(),
        };
        let dump = FlightDump::new(
            trigger::ABORT,
            "barrier timed out",
            rec,
            &[fault],
            Vec::new(),
        );
        assert_eq!(dump.version, FLIGHT_VERSION);
        assert_eq!(dump.trigger, "abort");
        assert_eq!(dump.steps_recorded, 2);
        assert_eq!(dump.anomalies.len(), 1);
        assert_eq!(dump.anomalies[0].kind, "fault-kill");
        assert_eq!(dump.anomalies[0].node, "worker0");
        assert_eq!(dump.anomalies[0].detail, "injected kill@1");
        assert_eq!(dump.recent.workers, 1);
        assert_eq!(dump.recent.rows[1].deltas, [delta(0)]);
        let text = dump.render_text();
        assert!(text.contains("trigger=abort"), "{text}");
        assert!(text.contains("fault-kill"), "{text}");
    }

    #[test]
    fn dump_json_roundtrips_and_rejects_future_versions() {
        let dump = FlightDump::new(trigger::FAULT, "", RecentSteps::new(2), &[], Vec::new());
        let json = serde_json::to_string(&dump).expect("serialize");
        let back = FlightDump::from_json(&json).expect("parse");
        assert_eq!(back, dump);
        let future = json.replace("\"version\":1", "\"version\":99");
        assert!(FlightDump::from_json(&future).is_err());
        // A dump written while the metrics registry existed still parses.
        let body = json.strip_suffix('}').expect("an object");
        let old = format!(
            "{body},\"metrics\":{{\"counters\":[{{\"name\":\"net.server.bytes_in\",\"value\":4096}}],\"gauges\":[],\"histograms\":[]}}}}"
        );
        assert_eq!(FlightDump::from_json(&old).expect("parse old dump"), dump);
        // So does one written while per-name series stood in for the ring:
        // its `series` key is ignored and the ring reads empty.
        let with_series = json.replace(
            ",\"recent\":{\"workers\":2,\"rows\":[]}",
            ",\"series\":{\"steps_recorded\":0,\"workers\":[],\"run\":[]}",
        );
        assert_ne!(with_series, json);
        let old = FlightDump::from_json(&with_series).expect("parse series-era dump");
        assert_eq!(old.recent, RecentSteps::default());
    }

    #[test]
    fn write_flight_dump_creates_a_readable_file() {
        let path = std::env::temp_dir().join("threelc-flight-test.json");
        let path = path.to_str().expect("utf8 temp path").to_string();
        let dump = FlightDump::new(
            trigger::FAULT,
            "kill@2",
            RecentSteps::new(1),
            &[],
            Vec::new(),
        );
        write_flight_dump(&path, &dump).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        let back = FlightDump::from_json(&text).expect("parse");
        assert_eq!(back.trigger, "fault");
        let _ = std::fs::remove_file(&path);
    }
}
