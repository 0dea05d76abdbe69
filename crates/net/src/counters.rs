//! Per-connection traffic and time accounting.

use serde::{Deserialize, Serialize};

/// Counters kept by each side of a connection: raw traffic, retry count,
/// and socket time (blocking reads, writes and flushes). Traffic and
/// socket time are booked by [`Conn`](crate::Conn)'s frame I/O, nowhere
/// else; codec time is read from the trace spans (`threelc analyze`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConnCounters {
    /// Frames received.
    pub frames_in: u64,
    /// Frames sent.
    pub frames_out: u64,
    /// Bytes received (headers, trace extensions and payloads).
    pub bytes_in: u64,
    /// Bytes sent (headers, trace extensions and payloads).
    pub bytes_out: u64,
    /// Connection attempts that failed and were retried.
    pub retries: u64,
    /// Seconds spent blocked on socket reads/writes/flushes.
    pub socket_seconds: f64,
    /// Seconds spent sleeping in connect-retry backoff. Defaults to zero
    /// when absent, so reports written before this field existed still
    /// parse.
    #[serde(default)]
    pub backoff_seconds: f64,
}

impl ConnCounters {
    /// Records one failed connection attempt and the backoff sleep that
    /// preceded it.
    pub fn note_retry(&mut self, backoff_seconds: f64) {
        self.retries += 1;
        self.backoff_seconds += backoff_seconds;
    }

    /// Accumulates another counter set (e.g. across reconnects).
    pub fn merge(&mut self, other: &ConnCounters) {
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.retries += other.retries;
        self.socket_seconds += other.socket_seconds;
        self.backoff_seconds += other.backoff_seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_everything() {
        let mut a = ConnCounters {
            frames_in: 1,
            frames_out: 2,
            bytes_in: 3,
            bytes_out: 4,
            retries: 5,
            socket_seconds: 0.25,
            backoff_seconds: 0.125,
        };
        a.merge(&a.clone());
        assert_eq!(a.frames_in, 2);
        assert_eq!(a.frames_out, 4);
        assert_eq!(a.bytes_in, 6);
        assert_eq!(a.bytes_out, 8);
        assert_eq!(a.retries, 10);
        assert!((a.backoff_seconds - 0.25).abs() < 1e-12);
    }

    #[test]
    fn note_retry_counts_attempts_and_sleep_time() {
        let mut c = ConnCounters::default();
        c.note_retry(0.1);
        c.note_retry(0.2);
        assert_eq!(c.retries, 2);
        assert!((c.backoff_seconds - 0.3).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip() {
        let c = ConnCounters {
            frames_in: 7,
            retries: 1,
            backoff_seconds: 0.5,
            ..Default::default()
        };
        let json = serde_json::to_string(&c).unwrap();
        let back: ConnCounters = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn reports_without_backoff_field_still_parse() {
        // A report written before `backoff_seconds` existed.
        let old = r#"{"frames_in":1,"frames_out":2,"bytes_in":3,"bytes_out":4,
                      "retries":0,"codec_seconds":0.5,"socket_seconds":0.25}"#;
        let c: ConnCounters = serde_json::from_str(old).unwrap();
        assert_eq!(c.frames_in, 1);
        assert_eq!(c.backoff_seconds, 0.0);
    }
}
