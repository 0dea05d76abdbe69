//! `threelc-obs`: the observability substrate of the 3LC stack.
//!
//! 3LC's whole argument is quantitative — traffic ratio vs. accuracy vs.
//! wall-clock — so every layer of this workspace reports into one shared
//! instrumentation layer instead of growing its own ad-hoc counters. The
//! crate is std-only (the vendored `serde` stubs are its only
//! dependencies) and provides eight pieces:
//!
//! 1. **A metrics registry** ([`Registry`]) of named [`Counter`]s and
//!    log-bucketed [`Histogram`]s. Metrics are lock-free
//!    atomics; the name → metric map is a sharded mutex, so hot paths
//!    cache the returned `Arc` handles and never touch a lock again. A
//!    duration reaches a histogram from the `Instant` the call site
//!    already holds — there is no timing guard type.
//! 2. **A structured JSONL event sink** ([`sink`], the [`event!`] macro)
//!    on stderr, with level filtering via the `THREELC_LOG` environment
//!    variable (`off` by default). Probes are guarded by a relaxed atomic
//!    level check, so disabled logging costs one atomic load.
//! 3. **Snapshots** ([`Snapshot`]): a point-in-time copy of every
//!    registered metric, serializable to JSON (the payload of the network
//!    scrape protocol in `threelc-net`, and the `metrics` of a run report
//!    or flight dump) and renderable as text (the output of
//!    `threelc metrics`).
//! 4. **Distributed tracing** ([`trace`]): per-node ring buffers of
//!    [`SpanRecord`]s with parent links and a run-wide
//!    trace id, off by default via `THREELC_TRACE`. Trace context rides
//!    the `threelc-net` wire format so a step's spans connect across
//!    nodes. Each recorded span also feeds `span.<name>.seconds` in the
//!    global registry: the one record of a phase's time, viewed two ways.
//! 5. **Timeline reconstruction** ([`timeline`]): merges per-node buffers
//!    onto one axis — estimating per-worker clock offsets from barrier
//!    round-trips — and exports Chrome-trace JSON or a terminal per-step
//!    phase breakdown (`threelc trace`).
//! 6. **Per-worker time series** ([`timeseries`]): the last 64
//!    step-indexed points of each series, and a [`RunRecorder`] that
//!    folds per-worker step deltas into a run-wide store — what
//!    `threelc top` renders live.
//! 7. **The flight dump** ([`flight`]): a self-contained
//!    `<out>.flight.json` post-mortem assembled — not recorded — from the
//!    fault log, the series store, the metrics snapshot and the span
//!    buffers it is handed, when a handler panics, a fault occurs, or a
//!    run aborts. It also defines [`FaultEvent`], the one record of a
//!    transport fault that the run report and the dump both read.
//! 8. **A critical-path profiler** ([`critical`]): rebuilds the per-step
//!    BSP dependency DAG from the clock-aligned timeline, attributes
//!    every nanosecond of step wall-clock to a {phase × node} blame
//!    bucket (barrier-wait charged to the causing straggler), computes
//!    Amdahl-style what-if projections, flags bottlenecks, and folds the
//!    codec spans a worker tags with their tensor into a per-tensor view
//!    — the engine behind `threelc analyze`.
//!
//! ```
//! use threelc_obs::Registry;
//!
//! let reg = Registry::new();
//! reg.counter("frames").add(3);
//! let h = reg.histogram("latency_seconds");
//! h.record(0.004);
//! h.record(0.009);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("frames"), Some(3));
//! assert_eq!(snap.histogram("latency_seconds").unwrap().count, 2);
//! ```
//!
//! Most call sites use the process-global registry via [`global()`]; a
//! networked server exposes exactly that registry to `threelc metrics`
//! scrapes.

pub mod critical;
pub mod flight;
pub mod metrics;
pub mod registry;
pub mod sink;
pub mod snapshot;
pub mod timeline;
pub mod timeseries;
pub mod trace;

pub use critical::RunAnalysis;
pub use flight::{write_flight_dump, FaultEvent, FlightDump};

pub use metrics::{Counter, Histogram};
pub use registry::{global, Registry};
pub use sink::{emit, log_enabled, Level};
pub use snapshot::Snapshot;
pub use timeline::{MergedTimeline, PHASES};
pub use timeseries::{Point, RunRecorder, RunSeries, Series, WorkerDelta};
pub use trace::{
    current_ctx, global_buffer, now_ns, run_trace_id, set_trace_enabled, trace_enabled, NodeTrace,
    SpanRecord, TraceBuffer, TraceCtx, TraceScope, TraceSpan, NO_WORKER,
};
