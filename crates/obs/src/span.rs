//! Timed spans: RAII guards that measure a monotonic duration and feed it
//! into a histogram when dropped.

use crate::metrics::Histogram;
use std::sync::Arc;
use std::time::Instant;

/// A live span, created by [`SpanGuard::on`] with a cached histogram
/// handle.
///
/// Dropping the guard records the elapsed seconds; [`finish`](Self::finish)
/// does the same but also returns the measured duration.
#[must_use = "a span measures nothing unless it is held until the work completes"]
#[derive(Debug)]
pub struct SpanGuard {
    hist: Arc<Histogram>,
    start: Instant,
    /// Set by [`finish`](Self::finish) so the `Drop` impl records the
    /// duration only when `finish()` was never called — each span feeds
    /// its histogram exactly once.
    finished: bool,
}

impl SpanGuard {
    /// Starts a span feeding `hist` on completion.
    pub fn on(hist: Arc<Histogram>) -> Self {
        SpanGuard {
            hist,
            start: Instant::now(),
            finished: false,
        }
    }

    /// Elapsed seconds so far, without ending the span.
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Ends the span, records the duration, and returns it in seconds.
    pub fn finish(mut self) -> f64 {
        let secs = self.start.elapsed().as_secs_f64();
        self.finished = true;
        self.hist.record(secs);
        secs
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.finished {
            self.hist.record(self.start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_returns_and_records_the_duration() {
        let hist = Arc::new(Histogram::new());
        let guard = SpanGuard::on(Arc::clone(&hist));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let secs = guard.finish();
        assert!(secs >= 0.002, "slept 2ms but measured {secs}");
        let snap = hist.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, secs);
    }

    #[test]
    fn drop_records_exactly_once() {
        let hist = Arc::new(Histogram::new());
        {
            let _guard = SpanGuard::on(Arc::clone(&hist));
        }
        assert_eq!(hist.snapshot().count, 1);
    }

    #[test]
    fn finish_then_drop_records_exactly_once() {
        // Regression: `finish()` consumes self, so its drop still runs —
        // the guard must not feed the histogram a second time.
        let hist = Arc::new(Histogram::new());
        let guard = SpanGuard::on(Arc::clone(&hist));
        let secs = guard.finish();
        let snap = hist.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, secs);
    }
}
