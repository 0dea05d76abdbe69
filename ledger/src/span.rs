//! In-memory spans recorded by the replay around each call into a layer,
//! and the arithmetic on them: self time and the BSP critical path.
//!
//! Spans live in a `Vec` until the run ends (`--trace-out` writes them);
//! nothing is formatted or flushed while a step is being timed.

use std::time::Instant;

/// The thread a span's work belongs to in the real runtime: a worker, the
/// server's handler for that worker, or the server's coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    Worker(usize),
    Handler(usize),
    Coordinator,
}

/// One timed call. `parent` indexes into the same span list; spans of one
/// BSP step share `step`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub lane: Lane,
    pub step: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    step: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            step: 0,
        }
    }

    /// Sets the step id stamped on spans from now on.
    pub fn begin_step(&mut self, step: u64) {
        assert!(self.open.is_empty(), "a span is still open across steps");
        self.step = step;
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// this recorder become its children.
    pub fn time<T>(&mut self, name: &'static str, lane: Lane, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            lane,
            step: self.step,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// What recording one span costs, in µs: the median of five batches of
/// 10 000 empty spans. Measured in isolation because a step's run-to-run
/// noise (milliseconds) drowns the difference between a replay with spans
/// and one without (about a microsecond).
pub fn span_cost_us() -> f64 {
    const BATCH: usize = 10_000;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let mut rec = Recorder::new();
            let t = Instant::now();
            for _ in 0..BATCH {
                rec.time("empty", Lane::Coordinator, |_| ());
            }
            std::hint::black_box(rec.spans());
            t.elapsed().as_secs_f64() * 1e6 / BATCH as f64
        })
        .collect();
    crate::stats::median(&batches)
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Children may overlap each other (their
/// union is what counts) and are clipped to the parent's interval.
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    let me = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| {
            (
                s.start_ns.clamp(me.start_ns, me.end_ns),
                s.end_ns.clamp(me.start_ns, me.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (start, end) in kids {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    me.duration_ns() - covered
}

/// Self time of every span in µs, in span order.
pub fn self_us(spans: &[Span]) -> Vec<f64> {
    (0..spans.len())
        .map(|i| self_ns(spans, i) as f64 / 1e3)
        .collect()
}

/// One BSP step's costs as the replay measured them, in µs; the `Vec`s
/// hold one entry per worker.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepCosts {
    /// compute + encode + push write, per worker.
    pub worker_push: Vec<f64>,
    /// The server reading each worker's push.
    pub server_read: Vec<f64>,
    /// `apply_step` plus serialising the shared pull batch once.
    pub server_apply: f64,
    /// The server writing the pull batch to each worker.
    pub server_write: Vec<f64>,
    /// pull read + decode + apply, per worker.
    pub worker_pull: Vec<f64>,
}

/// The critical path of one BSP step. Workers run in parallel, so the
/// slowest one gates each phase; the server's handlers run in parallel
/// with each other but the coordinator between them is serial:
///
/// ```text
/// max_w(compute + encode + push write)
///   + max_w(server push read) + apply_step + max_w(server pull write)
///   + max_w(pull read + decode + apply)
/// ```
pub fn critical_path_us(c: &StepCosts) -> f64 {
    let max = |xs: &[f64]| xs.iter().copied().fold(0.0f64, f64::max);
    max(&c.worker_push)
        + max(&c.server_read)
        + c.server_apply
        + max(&c.server_write)
        + max(&c.worker_pull)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            lane: Lane::Coordinator,
            step: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_but_not_grandchildren() {
        let spans = vec![
            span("step", 0, 100, None),
            span("apply", 10, 60, Some(0)),
            span("decode", 20, 40, Some(1)),
            span("write", 70, 90, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 50 - 20);
        assert_eq!(self_ns(&spans, 1), 50 - 20);
        assert_eq!(self_ns(&spans, 2), 20);
        assert_eq!(self_us(&spans), vec![0.03, 0.03, 0.02, 0.02]);
    }

    #[test]
    fn overlapping_children_count_their_union_once() {
        let spans = vec![
            span("step", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)), // overlaps a by 20
            span("c", 35, 45, Some(0)), // inside both
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 60);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![
            span("step", 10, 50, None),
            span("early", 0, 20, Some(0)),
            span("late", 40, 90, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 40 - 10 - 10);
    }

    #[test]
    fn recorder_links_parents_and_stamps_the_step() {
        let mut rec = Recorder::new();
        rec.begin_step(3);
        let seven = rec.time("step", Lane::Coordinator, |rec| {
            rec.time("compute", Lane::Worker(1), |_| ());
            7
        });
        assert_eq!(seven, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].step),
            ("step", None, 3)
        );
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].lane, Lane::Worker(1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn critical_path_takes_the_slowest_worker_and_the_serial_server() {
        let costs = StepCosts {
            worker_push: vec![50.0, 70.0],
            server_read: vec![4.0, 6.0],
            server_apply: 30.0,
            server_write: vec![5.0, 3.0],
            worker_pull: vec![20.0, 10.0],
        };
        assert_eq!(critical_path_us(&costs), 70.0 + 6.0 + 30.0 + 5.0 + 20.0);
        assert_eq!(critical_path_us(&StepCosts::default()), 0.0);
    }
}
