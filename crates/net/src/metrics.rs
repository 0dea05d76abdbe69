//! Transport telemetry: cached metric handles, the instrumented
//! connection wrapper, and the client side of the live scrape protocol.
//!
//! [`ConnCounters`] keeps the exact per-connection totals that go into
//! [`NetReport`](crate::NetReport) JSON (schema unchanged); this module
//! layers distribution telemetry on top of them. Every socket read/write
//! also lands in a process-global
//! [`threelc_obs`] histogram under `net.server.*` / `net.worker.*`, so a
//! live scrape shows latency percentiles, not just totals.
//!
//! Frame I/O accounts for itself: [`Conn::read_frame`],
//! [`Conn::write_frame`] and [`Conn::flush`] time the call and book the
//! bytes that actually moved, so no call site holds a clock or restates a
//! frame's size.

use crate::counters::ConnCounters;
use crate::frame::{read_frame, write_frame, Frame, FrameError, MsgType};
use crate::protocol::{decode_scrape_reply, NetError, ScrapeKind};
use crate::worker::{connect_any, resolve};
use serde::de::DeserializeOwned;
use std::fmt::Debug;
use std::io::{self, Read, Write};
use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::{Duration, Instant};
use threelc_obs::{global, Counter, Histogram, NodeTrace, RunSeries, Snapshot};

/// Cached handles to one role's `net.*` metrics. Resolved once per
/// connection; recording is then a few relaxed atomics per frame.
#[derive(Clone)]
pub struct NetMetrics {
    /// Per-operation blocking socket time (one frame read, one frame
    /// write, or one flush).
    pub socket_seconds: Arc<Histogram>,
    /// Whole-BSP-step time.
    pub step_seconds: Arc<Histogram>,
    /// Connect-retry backoff sleeps.
    pub backoff_seconds: Arc<Histogram>,
    /// Total bytes received (headers, trace extensions and payloads).
    pub bytes_in: Arc<Counter>,
    /// Total bytes sent (headers, trace extensions and payloads).
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
            socket_seconds: reg.histogram(&format!("{prefix}.socket_seconds")),
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
            .field("socket_ops", &self.socket_seconds.count())
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

    /// Reads one frame ([`read_frame`]), booking the blocked time and the
    /// frame's full encoded length.
    ///
    /// # Errors
    ///
    /// As [`read_frame`]; a failed read books nothing.
    pub fn read_frame<R: Read>(&mut self, r: &mut R) -> Result<Frame, FrameError> {
        let t0 = Instant::now();
        let frame = read_frame(r)?;
        self.note_socket(t0);
        let bytes = frame.encoded_len() as u64;
        self.counters.frames_in += 1;
        self.counters.bytes_in += bytes;
        self.metrics.bytes_in.add(bytes);
        Ok(frame)
    }

    /// Writes one frame ([`write_frame`]: stamped with the thread's trace
    /// context), booking the blocked time and the bytes written.
    ///
    /// # Errors
    ///
    /// As [`write_frame`]; a failed write books nothing.
    pub fn write_frame<W: Write>(
        &mut self,
        w: &mut W,
        msg: MsgType,
        tensor: u16,
        step: u64,
        payload: &[u8],
    ) -> io::Result<usize> {
        let t0 = Instant::now();
        let written = write_frame(w, msg, tensor, step, payload)?;
        self.note_write(t0, written);
        Ok(written)
    }

    /// Writes one already-encoded frame byte for byte (the fault
    /// injector's deliberately corrupted push), booked like
    /// [`Self::write_frame`].
    ///
    /// # Errors
    ///
    /// Propagates the stream's write failure; a failed write books nothing.
    pub fn write_encoded<W: Write>(&mut self, w: &mut W, frame: &[u8]) -> io::Result<()> {
        let t0 = Instant::now();
        w.write_all(frame)?;
        self.note_write(t0, frame.len());
        Ok(())
    }

    /// Flushes `w`, booking the blocked time.
    ///
    /// # Errors
    ///
    /// Propagates the stream's flush failure.
    pub fn flush<W: Write>(&mut self, w: &mut W) -> io::Result<()> {
        let t0 = Instant::now();
        w.flush()?;
        self.note_socket(t0);
        Ok(())
    }

    /// Books the time since `t0` as one blocking socket operation.
    fn note_socket(&mut self, t0: Instant) {
        let seconds = t0.elapsed().as_secs_f64();
        self.counters.socket_seconds += seconds;
        self.metrics.socket_seconds.record(seconds);
    }

    /// Books one sent frame of `bytes` encoded bytes, written since `t0`.
    fn note_write(&mut self, t0: Instant, bytes: usize) {
        self.note_socket(t0);
        self.counters.frames_out += 1;
        self.counters.bytes_out += bytes as u64;
        self.metrics.bytes_out.add(bytes as u64);
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
pub(crate) fn scrape<T: DeserializeOwned>(
    addr: impl ToSocketAddrs + Debug,
    kind: ScrapeKind,
    timeout: Duration,
) -> Result<T, NetError> {
    let stream = connect_any(&resolve(addr)?, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that counts what reaches it, standing in for the socket.
    #[derive(Default)]
    struct Pipe {
        bytes: Vec<u8>,
        flushes: usize,
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn frame_io_books_the_bytes_that_moved_on_both_ends() {
        use crate::frame::{HEADER_LEN, TRACE_EXT_LEN};
        use threelc_obs::{TraceBuffer, TraceScope};

        let mut tx = Conn::new(ConnCounters::default(), NetMetrics::worker());
        let out_before = tx.metrics.bytes_out.get();
        let socket_before = tx.metrics.socket_seconds.count();
        let mut pipe = Pipe::default();
        let mut returned = 0usize;

        // Two version-1 frames (no live scope) ...
        returned += tx
            .write_frame(&mut pipe, MsgType::PushTensor, 0, 3, &[7u8; 100])
            .unwrap();
        returned += tx
            .write_frame(&mut pipe, MsgType::PushDone, 0, 3, &[])
            .unwrap();
        assert_eq!(returned, 2 * HEADER_LEN + 100);
        // ... two version-2 frames under a live trace scope (tracing is a
        // process-wide switch; no other test in this binary opens a
        // scope, so flipping it here touches only these two frames) ...
        threelc_obs::set_trace_enabled(true);
        let buffer = Arc::new(TraceBuffer::default());
        {
            let _scope = TraceScope::enter(&buffer, "worker0", 9, 3, 0);
            returned += tx
                .write_frame(&mut pipe, MsgType::PushTensor, 1, 3, &[1u8; 40])
                .unwrap();
            returned += tx
                .write_frame(&mut pipe, MsgType::PushDone, 0, 3, &[2u8; 28])
                .unwrap();
        }
        threelc_obs::set_trace_enabled(false);
        assert_eq!(
            returned,
            4 * HEADER_LEN + 2 * TRACE_EXT_LEN + 168,
            "a live scope makes version-2 frames"
        );
        // ... and one pre-encoded frame.
        let raw = Frame::new(MsgType::PushRaw, 2, 3, vec![5u8; 12]).encode();
        tx.write_encoded(&mut pipe, &raw).unwrap();
        returned += raw.len();
        tx.flush(&mut pipe).unwrap();

        // Writer: counters, the global counter and the pipe agree.
        assert_eq!(tx.counters.frames_out, 5);
        assert_eq!(tx.counters.bytes_out, returned as u64);
        assert_eq!(pipe.bytes.len(), returned);
        assert_eq!(pipe.flushes, 1);
        assert_eq!(tx.metrics.bytes_out.get() - out_before, returned as u64);
        // Five writes and one flush, each one socket operation.
        assert_eq!(tx.metrics.socket_seconds.count() - socket_before, 6);
        assert!(tx.counters.socket_seconds >= 0.0);

        // Reader: the same bytes, frame for frame.
        let mut rx = Conn::new(ConnCounters::default(), NetMetrics::server());
        let in_before = rx.metrics.bytes_in.get();
        let mut cursor = io::Cursor::new(pipe.bytes);
        let mut traced = 0;
        for _ in 0..5 {
            let frame = rx.read_frame(&mut cursor).unwrap();
            traced += usize::from(!frame.trace.is_none());
        }
        assert_eq!(traced, 2);
        assert_eq!(rx.counters.frames_in, 5);
        assert_eq!(rx.counters.bytes_in, returned as u64);
        assert_eq!(rx.metrics.bytes_in.get() - in_before, returned as u64);
        // A failed read books nothing.
        assert!(rx.read_frame(&mut cursor).is_err());
        assert_eq!(rx.counters.frames_in, 5);
        assert_eq!(rx.counters.bytes_in, returned as u64);
    }

    #[test]
    fn retry_notes_reach_counters_and_histograms() {
        let mut conn = Conn::new(ConnCounters::default(), NetMetrics::server());
        let backoff_before = conn.metrics.backoff_seconds.count();
        conn.note_retry(0.0625);
        assert_eq!(conn.counters.retries, 1);
        assert!((conn.counters.backoff_seconds - 0.0625).abs() < 1e-12);
        assert_eq!(conn.metrics.backoff_seconds.count(), backoff_before + 1);
    }

    #[test]
    fn roles_use_distinct_metric_names() {
        let s = NetMetrics::server();
        let w = NetMetrics::worker();
        assert!(!Arc::ptr_eq(&s.socket_seconds, &w.socket_seconds));
        let snap = global().snapshot();
        assert!(snap.histogram("net.server.socket_seconds").is_some());
        assert!(snap.histogram("net.worker.socket_seconds").is_some());
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
