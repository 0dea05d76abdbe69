//! `threelc-obs`: the observability substrate of the 3LC stack.
//!
//! 3LC's whole argument is quantitative — traffic ratio vs. accuracy vs.
//! wall-clock — so every layer of this workspace reports into one shared
//! instrumentation layer instead of growing its own ad-hoc counters. The
//! crate is std-only (the vendored `serde` stubs are its only
//! dependencies) and provides six pieces:
//!
//! 1. **A structured JSONL event sink** ([`sink`], the [`event!`] macro)
//!    on stderr, with level filtering via the `THREELC_LOG` environment
//!    variable (`off` by default). Probes are guarded by a relaxed atomic
//!    level check, so disabled logging costs one atomic load.
//! 2. **Distributed tracing** ([`trace`]): per-node ring buffers of
//!    [`SpanRecord`]s with parent links and a run-wide
//!    trace id, off by default via `THREELC_TRACE`. Trace context rides
//!    the `threelc-net` wire format so a step's spans connect across
//!    nodes. A span is the one record of a phase's time.
//! 3. **Timeline reconstruction** ([`timeline`]): merges per-node buffers
//!    onto one axis — estimating per-worker clock offsets from barrier
//!    round-trips — and exports Chrome-trace JSON or a terminal per-step
//!    phase breakdown (`threelc trace`).
//! 4. **Per-worker time series** ([`timeseries`]): the last 64
//!    step-indexed points of each series, and a [`RunRecorder`] that
//!    folds per-worker step deltas into a run-wide store — what
//!    `threelc top` renders live.
//! 5. **The flight dump** ([`flight`]): a self-contained
//!    `<out>.flight.json` post-mortem assembled — not recorded — from the
//!    fault log, the series store and the span buffers it is handed, when
//!    a handler panics, a fault occurs, or a run aborts. It also defines
//!    [`FaultEvent`], the one record of a transport fault that the run
//!    report and the dump both read.
//! 6. **A critical-path profiler** ([`critical`]): rebuilds the per-step
//!    BSP dependency DAG from the clock-aligned timeline, attributes
//!    every nanosecond of step wall-clock to a {phase × node} blame
//!    bucket (barrier-wait charged to the causing straggler), flags
//!    bottlenecks, and folds the codec spans a worker tags with their
//!    tensor into a per-tensor view — the engine behind `threelc analyze`.
//!
//! Byte and socket-time totals are not kept here: each connection's
//! exact counters live in `threelc-net`'s `ConnCounters`.
//!
//! ```
//! use std::sync::Arc;
//! use threelc_obs::{set_trace_enabled, TraceBuffer, TraceScope, TraceSpan, NO_WORKER};
//!
//! set_trace_enabled(true);
//! let buffer = Arc::new(TraceBuffer::default());
//! {
//!     let _scope = TraceScope::enter(&buffer, "server", 7, 0, NO_WORKER);
//!     TraceSpan::start("aggregate").finish();
//! }
//! let node = buffer.drain("server");
//! assert_eq!(node.spans.len(), 1);
//! assert_eq!(node.spans[0].name, "aggregate");
//! assert!(node.spans[0].seconds() >= 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod critical;
pub mod flight;
pub mod sink;
pub mod timeline;
pub mod timeseries;
pub mod trace;

pub use critical::RunAnalysis;
pub use flight::{write_flight_dump, FaultEvent, FlightDump};

pub use sink::{emit, log_enabled, Level};
pub use timeline::{MergedTimeline, PHASES};
pub use timeseries::{Point, RunRecorder, RunSeries, Series, WorkerDelta};
pub use trace::{
    current_ctx, global_buffer, now_ns, run_trace_id, set_trace_enabled, trace_enabled, NodeTrace,
    SpanRecord, TraceBuffer, TraceCtx, TraceScope, TraceSpan, NO_WORKER,
};
