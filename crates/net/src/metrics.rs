//! Transport telemetry: cached metric handles, the instrumented
//! connection wrapper, and the client side of the live scrape protocol.
//!
//! [`ConnCounters`] keeps the exact per-connection totals that go into
//! [`NetReport`](crate::NetReport) JSON (schema unchanged); this module
//! layers distribution telemetry on top of them. Every socket read/write
//! and codec operation also lands in a process-global
//! [`threelc_obs`] histogram under `net.server.*` / `net.worker.*`, so a
//! live scrape shows latency percentiles, not just totals.

use crate::counters::ConnCounters;
use crate::frame::{read_frame, write_frame, MsgType};
use crate::protocol::{decode_scrape_reply, NetError, ScrapeKind};
use serde::de::DeserializeOwned;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;
use threelc_obs::{global, Counter, Histogram, NodeTrace, RunSeries, Snapshot};

/// Cached handles to one role's `net.*` metrics. Resolved once per
/// connection; recording is then a few relaxed atomics per frame.
#[derive(Clone)]
pub struct NetMetrics {
    /// Per-operation codec time (compress/decompress/serialize).
    pub codec_seconds: Arc<Histogram>,
    /// Per-operation blocking socket time.
    pub socket_seconds: Arc<Histogram>,
    /// Whole-frame handling time (read + dispatch, or encode + write).
    pub frame_seconds: Arc<Histogram>,
    /// Whole-BSP-step time.
    pub step_seconds: Arc<Histogram>,
    /// Connect-retry backoff sleeps.
    pub backoff_seconds: Arc<Histogram>,
    /// Total bytes received (headers + payloads).
    pub bytes_in: Arc<Counter>,
    /// Total bytes sent (headers + payloads).
    pub bytes_out: Arc<Counter>,
    /// Mid-run connection losses survived (server: worker disconnects
    /// tolerated; worker: sessions lost and retried).
    pub disconnects: Arc<Counter>,
    /// Successful mid-run rejoins.
    pub rejoins: Arc<Counter>,
}

impl NetMetrics {
    fn with_prefix(prefix: &str) -> Self {
        let reg = global();
        NetMetrics {
            codec_seconds: reg.histogram(&format!("{prefix}.codec_seconds")),
            socket_seconds: reg.histogram(&format!("{prefix}.socket_seconds")),
            frame_seconds: reg.histogram(&format!("{prefix}.frame_seconds")),
            step_seconds: reg.histogram(&format!("{prefix}.step_seconds")),
            backoff_seconds: reg.histogram(&format!("{prefix}.backoff_seconds")),
            bytes_in: reg.counter(&format!("{prefix}.bytes_in")),
            bytes_out: reg.counter(&format!("{prefix}.bytes_out")),
            disconnects: reg.counter(&format!("{prefix}.disconnects")),
            rejoins: reg.counter(&format!("{prefix}.rejoins")),
        }
    }

    /// Handles for the parameter-server role (`net.server.*`).
    pub fn server() -> Self {
        NetMetrics::with_prefix("net.server")
    }

    /// Handles for the worker role (`net.worker.*`).
    pub fn worker() -> Self {
        NetMetrics::with_prefix("net.worker")
    }
}

impl std::fmt::Debug for NetMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetMetrics")
            .field("frames", &self.frame_seconds.count())
            .finish()
    }
}

/// One instrumented connection: the exact [`ConnCounters`] totals plus
/// the global histograms, updated together so the two views can never
/// disagree about what happened.
#[derive(Debug)]
pub struct Conn {
    /// Exact totals, reported in [`NetReport`](crate::NetReport) JSON.
    pub counters: ConnCounters,
    /// Shared distribution telemetry.
    pub metrics: NetMetrics,
}

impl Conn {
    /// Wraps existing counters (e.g. carried over from a handshake).
    pub fn new(counters: ConnCounters, metrics: NetMetrics) -> Self {
        Conn { counters, metrics }
    }

    /// Records one received frame of `payload_len` payload bytes that
    /// took `seconds` of blocking read time.
    pub fn note_read(&mut self, payload_len: usize, seconds: f64) {
        self.counters.note_read(payload_len, seconds);
        self.metrics.socket_seconds.record(seconds);
        self.metrics
            .bytes_in
            .add((crate::frame::HEADER_LEN + payload_len) as u64);
    }

    /// Records one sent frame of `payload_len` payload bytes that took
    /// `seconds` of blocking write time.
    pub fn note_write(&mut self, payload_len: usize, seconds: f64) {
        self.counters.note_write(payload_len, seconds);
        self.metrics.socket_seconds.record(seconds);
        self.metrics
            .bytes_out
            .add((crate::frame::HEADER_LEN + payload_len) as u64);
    }

    /// Records `seconds` of codec work (one compress/decompress/serialize
    /// operation).
    pub fn note_codec(&mut self, seconds: f64) {
        self.counters.codec_seconds += seconds;
        self.metrics.codec_seconds.record(seconds);
    }

    /// Records one failed connection attempt and its backoff sleep.
    pub fn note_retry(&mut self, backoff_seconds: f64) {
        self.counters.note_retry(backoff_seconds);
        self.metrics.backoff_seconds.record(backoff_seconds);
    }
}

/// Scrapes a live metrics snapshot from a serving parameter server.
///
/// Opens a fresh connection to `addr`, sends one `Scrape` frame, and
/// parses the `ScrapeReply`. Works at any point in the server's lifetime
/// — during the connection handshake phase and during training —
/// without disturbing worker connections.
///
/// # Errors
///
/// Returns [`NetError::Io`] if the server is unreachable within
/// `timeout`, and [`NetError::Protocol`]/[`NetError::Frame`] if the reply
/// is not a well-formed snapshot.
pub fn scrape_metrics(addr: &str, timeout: Duration) -> Result<Snapshot, NetError> {
    scrape(addr, ScrapeKind::Metrics, timeout)
}

/// Scrapes a live (non-draining) snapshot of the server's own span
/// buffer, like [`scrape_metrics`]. Only the server's clock domain is
/// visible live; worker buffers are collected at shutdown into
/// [`NetReport`](crate::NetReport). Empty unless the server runs with
/// `THREELC_TRACE=1`.
///
/// # Errors
///
/// As [`scrape_metrics`].
pub fn scrape_trace(addr: &str, timeout: Duration) -> Result<NodeTrace, NetError> {
    scrape(addr, ScrapeKind::Trace, timeout)
}

/// Scrapes the run's live time-series store, like [`scrape_metrics`]:
/// the bounded per-worker/run-level series fed at every barrier — what
/// `threelc top` renders and `threelc top --json` prints.
///
/// # Errors
///
/// As [`scrape_metrics`].
pub fn scrape_series(addr: &str, timeout: Duration) -> Result<RunSeries, NetError> {
    scrape(addr, ScrapeKind::Series, timeout)
}

/// One `Scrape`/`ScrapeReply` exchange on a short-lived connection.
fn scrape<T: DeserializeOwned>(
    addr: &str,
    kind: ScrapeKind,
    timeout: Duration,
) -> Result<T, NetError> {
    let stream = connect_scrape(addr, timeout)?;
    write_frame(&mut &stream, MsgType::Scrape, 0, 0, &[kind as u8])?;
    let reply = read_frame(&mut &stream)?;
    if reply.msg != MsgType::ScrapeReply {
        return Err(NetError::Protocol(format!(
            "expected ScrapeReply, got {:?}",
            reply.msg
        )));
    }
    decode_scrape_reply(&reply.payload)
}

/// Opens the short-lived connection a scrape uses.
fn connect_scrape(addr: &str, timeout: Duration) -> Result<TcpStream, NetError> {
    let addrs: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| NetError::Protocol(format!("bad address {addr:?}: {e}")))?
        .collect();
    let first = addrs
        .first()
        .ok_or_else(|| NetError::Protocol(format!("address {addr:?} resolved to nothing")))?;
    let stream = TcpStream::connect_timeout(first, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_updates_counters_and_histograms_together() {
        let mut conn = Conn::new(ConnCounters::default(), NetMetrics::server());
        let socket_before = conn.metrics.socket_seconds.count();
        let bytes_in_before = conn.metrics.bytes_in.get();
        conn.note_read(100, 0.25);
        conn.note_write(50, 0.5);
        conn.note_codec(0.125);
        conn.note_retry(0.0625);
        assert_eq!(conn.counters.frames_in, 1);
        assert_eq!(conn.counters.frames_out, 1);
        assert_eq!(conn.counters.retries, 1);
        assert!((conn.counters.codec_seconds - 0.125).abs() < 1e-12);
        assert!((conn.counters.backoff_seconds - 0.0625).abs() < 1e-12);
        assert_eq!(conn.metrics.socket_seconds.count(), socket_before + 2);
        assert_eq!(
            conn.metrics.bytes_in.get() - bytes_in_before,
            (crate::frame::HEADER_LEN + 100) as u64
        );
    }

    #[test]
    fn roles_use_distinct_metric_names() {
        let s = NetMetrics::server();
        let w = NetMetrics::worker();
        assert!(!Arc::ptr_eq(&s.codec_seconds, &w.codec_seconds));
        let snap = global().snapshot();
        assert!(snap.histogram("net.server.codec_seconds").is_some());
        assert!(snap.histogram("net.worker.codec_seconds").is_some());
    }

    #[test]
    fn scrape_rejects_unresolvable_addresses() {
        assert!(matches!(
            scrape_metrics("not an address", Duration::from_millis(100)),
            Err(NetError::Protocol(_))
        ));
        assert!(matches!(
            scrape_trace("not an address", Duration::from_millis(100)),
            Err(NetError::Protocol(_))
        ));
    }
}
