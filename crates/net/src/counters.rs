//! Per-connection traffic and time accounting.
//!
//! Frame I/O accounts for itself: [`ConnCounters::read_frame_with`],
//! [`ConnCounters::write_frame`] and [`ConnCounters::flush`] time the call
//! and book the bytes that actually moved, so no call site holds a clock
//! or restates a frame's size.

use crate::frame::{read_frame_with, write_frame_parts, FrameError, FrameHead, MsgType, Payload};
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use std::time::Instant;

/// Counters kept by each side of a connection: raw traffic, retry count,
/// and socket time (blocking reads, writes and flushes). Traffic and
/// socket time are booked by the frame I/O methods below, nowhere else;
/// codec time is read from the trace spans (`threelc analyze`).
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
    /// Reads one frame through `parse` ([`read_frame_with`]), booking the
    /// blocked time and the frame's full encoded length. The time includes
    /// the parse: a step frame's tensors are built as its bytes arrive.
    ///
    /// # Errors
    ///
    /// As [`read_frame_with`]; a failed read books nothing.
    pub fn read_frame_with<R: Read, T, E: From<FrameError>>(
        &mut self,
        r: &mut R,
        parse: impl FnOnce(&FrameHead, &mut Payload<'_, R>) -> Result<T, E>,
    ) -> Result<(FrameHead, T), E> {
        let t0 = Instant::now();
        let (head, parsed) = read_frame_with(r, parse)?;
        self.note_socket(t0);
        self.frames_in += 1;
        self.bytes_in += head.wire_len as u64;
        Ok((head, parsed))
    }

    /// Writes one frame whose payload is `parts` laid end to end
    /// ([`write_frame_parts`], stamped with the thread's trace context),
    /// booking the blocked time and the bytes written.
    ///
    /// # Errors
    ///
    /// As [`write_frame_parts`]; a failed write books nothing.
    pub fn write_frame<W: Write>(
        &mut self,
        w: &mut W,
        msg: MsgType,
        step: u64,
        parts: &[&[u8]],
    ) -> Result<usize, FrameError> {
        let t0 = Instant::now();
        let written = write_frame_parts(
            w,
            msg,
            0,
            step,
            threelc_obs::current_ctx().unwrap_or_default(),
            parts,
        )?;
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
        self.socket_seconds += t0.elapsed().as_secs_f64();
    }

    /// Books one sent frame of `bytes` encoded bytes, written since `t0`.
    fn note_write(&mut self, t0: Instant, bytes: usize) {
        self.note_socket(t0);
        self.frames_out += 1;
        self.bytes_out += bytes as u64;
    }

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
        use crate::frame::{whole, HEADER_LEN, TRACE_EXT_LEN};
        use std::sync::Arc;
        use threelc_obs::{TraceBuffer, TraceScope};

        let mut tx = ConnCounters::default();
        let mut pipe = Pipe::default();
        let mut returned = 0usize;

        // Two version-1 frames (no live scope), one of them in parts ...
        returned += tx
            .write_frame(&mut pipe, MsgType::PushDone, 3, &[&[7u8; 60], &[8u8; 40]])
            .unwrap();
        returned += tx
            .write_frame(&mut pipe, MsgType::PullDone, 3, &[])
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
                .write_frame(&mut pipe, MsgType::PushDone, 3, &[&[1u8; 40]])
                .unwrap();
            returned += tx
                .write_frame(&mut pipe, MsgType::PullDone, 3, &[&[2u8; 28]])
                .unwrap();
        }
        threelc_obs::set_trace_enabled(false);
        assert_eq!(
            returned,
            4 * HEADER_LEN + 2 * TRACE_EXT_LEN + 168,
            "a live scope makes version-2 frames"
        );
        // ... and one pre-encoded frame.
        let mut raw = Vec::new();
        let none = crate::frame::TraceCtx::default();
        write_frame_parts(&mut raw, MsgType::PushDone, 0, 3, none, &[&[5u8; 12]]).unwrap();
        tx.write_encoded(&mut pipe, &raw).unwrap();
        returned += raw.len();
        tx.flush(&mut pipe).unwrap();

        // Writer: the counters and the pipe agree.
        assert_eq!(tx.frames_out, 5);
        assert_eq!(tx.bytes_out, returned as u64);
        assert_eq!(pipe.bytes.len(), returned);
        assert_eq!(pipe.flushes, 1);
        assert!(tx.socket_seconds >= 0.0);

        // Reader: the same bytes, frame for frame.
        let mut rx = ConnCounters::default();
        let mut cursor = io::Cursor::new(pipe.bytes);
        let mut traced = 0;
        for _ in 0..5 {
            let (frame, _) = rx.read_frame_with(&mut cursor, whole).unwrap();
            traced += usize::from(!frame.trace.is_none());
        }
        assert_eq!(traced, 2);
        assert_eq!(rx.frames_in, 5);
        assert_eq!(rx.bytes_in, returned as u64);
        // A failed read books nothing.
        assert!(rx.read_frame_with(&mut cursor, whole).is_err());
        assert_eq!(rx.frames_in, 5);
        assert_eq!(rx.bytes_in, returned as u64);
    }

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
