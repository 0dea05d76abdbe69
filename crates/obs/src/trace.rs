//! Distributed tracing: span records, per-node ring buffers, and
//! thread-local trace scopes that flow across layers and — via
//! `threelc-net`'s frame trace-context extension — across nodes.
//!
//! Tracing is **off by default**. Setting `THREELC_TRACE=1` (or `true`,
//! `on`) enables it; [`set_trace_enabled`] overrides at runtime. When
//! disabled, every probe in this module is a single relaxed atomic load —
//! no allocation, no clock read, no lock.
//!
//! # Model
//!
//! - A [`SpanRecord`] is one timed phase (`quantize`, `network`,
//!   `aggregate`, …) with a parent link, a step number, and start/end
//!   timestamps in nanoseconds on the recording process's monotonic clock.
//! - A [`TraceBuffer`] is a bounded ring of records. Each *process* (one
//!   clock domain) owns one buffer; when it fills, the oldest records are
//!   dropped and counted, so tracing a long run cannot exhaust memory.
//! - A [`TraceScope`] installs a thread-local recording context (buffer,
//!   node name, trace id, step, worker id). [`TraceSpan`]s opened while a
//!   scope is active record into that scope's buffer with parent links
//!   maintained by a per-thread span stack.
//! - Every recorded span's duration also lands in the global registry's
//!   `span.<name>.seconds` histogram: the registry's view of a phase's
//!   time is derived from the span, not timed a second time. An untraced
//!   run records no span and registers no such histogram.
//! - [`NodeTrace`] is the wire/export form of one buffer: the clock-domain
//!   label plus the records. `threelc-net`'s trace `ScrapeReply` carries
//!   exactly this, JSON-encoded, so the server can collect every node's
//!   records after a run.
//!
//! Timestamps are nanoseconds since a per-process epoch ([`now_ns`]), so
//! records from different nodes are *not* directly comparable — the
//! [`timeline`](crate::timeline) module estimates per-node clock offsets
//! from barrier round-trips and merges buffers onto one axis.

use crate::metrics::Histogram;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Enablement and the process clock
// ---------------------------------------------------------------------------

/// 0 = uninitialized, 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether tracing is enabled for this process (the `THREELC_TRACE`
/// environment variable, unless overridden by [`set_trace_enabled`]).
/// This is the guard in front of every probe: when tracing is off it is
/// one relaxed atomic load.
pub fn trace_enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let on = std::env::var("THREELC_TRACE")
                .map(|v| {
                    let v = v.trim().to_ascii_lowercase();
                    v == "1" || v == "true" || v == "on"
                })
                .unwrap_or(false);
            ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Overrides the tracing switch (wins over `THREELC_TRACE`). In-process
/// tests use this; the CLI relies on the environment variable.
pub fn set_trace_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since this process's trace epoch (monotonic). Values are
/// only comparable within one process; cross-node alignment is the
/// timeline reconstruction's job.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Derives the run-wide trace id every node computes independently from
/// the experiment seed (so no extra handshake message is needed). The
/// result is never zero — zero means "no context" on the wire.
pub fn run_trace_id(seed: u64) -> u64 {
    // SplitMix64 finalizer: a cheap, well-mixed bijection.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1
}

// ---------------------------------------------------------------------------
// Records and buffers
// ---------------------------------------------------------------------------

/// Worker id recorded on spans that are not specific to one worker.
pub const NO_WORKER: i64 = -1;

/// Tensor index recorded on spans that are not one tensor's codec call.
pub const NO_TENSOR: i64 = -1;

/// A cross-node trace context: the run's trace id and the sender's
/// currently open span (the remote parent). All-zero means "absent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Run-wide trace id ([`run_trace_id`]); 0 = none.
    pub trace: u64,
    /// The sender's open span id; 0 = none.
    pub span: u64,
}

impl TraceCtx {
    /// Whether this context carries no information.
    pub fn is_none(&self) -> bool {
        self.trace == 0 && self.span == 0
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Run-wide trace id.
    pub trace: u64,
    /// Span id, unique within its [`TraceBuffer`].
    pub span: u64,
    /// Parent span id (0 = root). May reference a span in *another*
    /// node's buffer when the parent arrived over the wire.
    #[serde(default)]
    pub parent: u64,
    /// Phase name (`quantize`, `network`, `aggregate`, …).
    pub name: String,
    /// Logical lane this span belongs to (`server`, `worker0`, …).
    pub node: String,
    /// Training step (0 during handshake/shutdown).
    pub step: u64,
    /// Worker id the span concerns, or [`NO_WORKER`].
    #[serde(default = "no_worker")]
    pub worker: i64,
    /// Parameter tensor whose codec call the span covers ([`set_tensor`]),
    /// or [`NO_TENSOR`].
    #[serde(default = "no_tensor")]
    pub tensor: i64,
    /// Start, nanoseconds on the recording process's clock.
    pub start_ns: u64,
    /// End, nanoseconds on the recording process's clock.
    pub end_ns: u64,
}

fn no_worker() -> i64 {
    NO_WORKER
}

fn no_tensor() -> i64 {
    NO_TENSOR
}

impl SpanRecord {
    /// Span duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// One node's collected records: what a trace scrape returns and what the
/// timeline reconstruction consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeTrace {
    /// Clock-domain label — every span in `spans` was timestamped by this
    /// process's monotonic clock (`server`, `worker0`, `sim`, …).
    pub clock: String,
    /// The records, in recording order.
    pub spans: Vec<SpanRecord>,
    /// Records evicted because the ring buffer filled.
    #[serde(default)]
    pub dropped: u64,
}

/// A bounded ring buffer of span records. One per process (clock domain);
/// shared across that process's threads behind an `Arc`.
#[derive(Debug)]
pub struct TraceBuffer {
    records: Mutex<VecDeque<SpanRecord>>,
    cap: usize,
    dropped: AtomicU64,
    next_span: AtomicU64,
}

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl TraceBuffer {
    /// Default ring capacity (~100 B/record, so ~6.5 MB full). A traced
    /// run records 110–130 spans a step across its nodes (the step
    /// ledger's `obs.spans_per_step`), most of them a worker's per-tensor
    /// `quantize`/`encode` pairs: a worker's ring wraps after about a
    /// thousand steps, the server's — a handful of spans a step — far
    /// later.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Creates a buffer holding at most `cap` records (min 1).
    pub fn with_capacity(cap: usize) -> TraceBuffer {
        TraceBuffer {
            records: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
            dropped: AtomicU64::new(0),
            next_span: AtomicU64::new(1),
        }
    }

    /// Allocates a buffer-unique span id (never 0).
    fn next_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Appends a record, evicting the oldest when full.
    pub fn push(&self, rec: SpanRecord) {
        let mut records = self.records.lock().expect("trace buffer poisoned");
        if records.len() == self.cap {
            records.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        records.push_back(rec);
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.records.lock().expect("trace buffer poisoned").len()
    }

    /// Whether the buffer holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies the current contents without clearing (live scrapes).
    pub fn snapshot(&self, clock: &str) -> NodeTrace {
        let records = self.records.lock().expect("trace buffer poisoned");
        NodeTrace {
            clock: clock.to_string(),
            spans: records.iter().cloned().collect(),
            dropped: self.dropped(),
        }
    }

    /// Takes the contents, leaving the buffer empty (end-of-run dumps).
    pub fn drain(&self, clock: &str) -> NodeTrace {
        let mut records = self.records.lock().expect("trace buffer poisoned");
        NodeTrace {
            clock: clock.to_string(),
            spans: std::mem::take(&mut *records).into(),
            dropped: self.dropped(),
        }
    }
}

/// The process-wide default buffer (clock domain of this process). The
/// in-process simulator records here; networked roles create their own
/// buffers so a loopback test's server and workers stay separable.
pub fn global_buffer() -> &'static Arc<TraceBuffer> {
    static GLOBAL: OnceLock<Arc<TraceBuffer>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(TraceBuffer::default()))
}

// ---------------------------------------------------------------------------
// Thread-local scopes and spans
// ---------------------------------------------------------------------------

struct ScopeState {
    buffer: Arc<TraceBuffer>,
    node: String,
    trace: u64,
    step: u64,
    worker: i64,
    /// The tensor [`set_tensor`] names, stamped on every span that ends.
    tensor: i64,
    /// Open span ids, innermost last (the parent stack).
    stack: Vec<u64>,
}

thread_local! {
    static SCOPES: RefCell<Vec<ScopeState>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard installing a thread-local recording context. Everything a
/// [`TraceSpan`] needs — buffer, node lane, trace id, step, worker — comes
/// from the innermost active scope, so instrumented code (the codec, the
/// engine) needs no tracing parameters threaded through it.
///
/// Inert (and free) when tracing is disabled.
#[must_use = "the scope deactivates when dropped"]
pub struct TraceScope {
    active: bool,
    /// Scopes must drop on the thread that entered them.
    _not_send: PhantomData<*const ()>,
}

impl TraceScope {
    /// Installs a scope on the current thread. `worker` is the worker id
    /// spans in this scope concern, or [`NO_WORKER`].
    pub fn enter(
        buffer: &Arc<TraceBuffer>,
        node: &str,
        trace: u64,
        step: u64,
        worker: i64,
    ) -> TraceScope {
        if !trace_enabled() {
            return TraceScope {
                active: false,
                _not_send: PhantomData,
            };
        }
        SCOPES.with(|scopes| {
            scopes.borrow_mut().push(ScopeState {
                buffer: Arc::clone(buffer),
                node: node.to_string(),
                trace,
                step,
                worker,
                tensor: NO_TENSOR,
                stack: Vec::new(),
            });
        });
        TraceScope {
            active: true,
            _not_send: PhantomData,
        }
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if self.active {
            SCOPES.with(|scopes| {
                scopes.borrow_mut().pop();
            });
        }
    }
}

/// Tags every span that ends under the innermost scope with `tensor`
/// (or, given [`NO_TENSOR`], with none) until the next call: a worker
/// names the tensor around each codec call, so the codec's own spans
/// carry it. A relaxed atomic load when tracing is off.
pub fn set_tensor(tensor: i64) {
    if !trace_enabled() {
        return;
    }
    SCOPES.with(|scopes| {
        if let Some(s) = scopes.borrow_mut().last_mut() {
            s.tensor = tensor;
        }
    });
}

/// Whether a recording scope is active on this thread (the guard for
/// instrumentation whose bookkeeping is more than a clock read).
pub fn scope_active() -> bool {
    trace_enabled() && SCOPES.with(|s| !s.borrow().is_empty())
}

/// The current trace context (run trace id plus innermost open span), for
/// propagation on the wire. `None` when no scope is active.
pub fn current_ctx() -> Option<TraceCtx> {
    if !trace_enabled() {
        return None;
    }
    SCOPES.with(|scopes| {
        let scopes = scopes.borrow();
        scopes.last().map(|s| TraceCtx {
            trace: s.trace,
            span: s.stack.last().copied().unwrap_or(0),
        })
    })
}

/// Pushes a finished span into the scope's buffer, and its duration into
/// the derived view: the global registry's `span.<name>.seconds`
/// histogram, one sample per recorded span. Each thread looks a name's
/// histogram up once.
fn record(scope: &ScopeState, name: &'static str, rec: SpanRecord) {
    thread_local! {
        static HISTOGRAMS: RefCell<Vec<(&'static str, Arc<Histogram>)>> =
            const { RefCell::new(Vec::new()) };
    }
    HISTOGRAMS.with(|cache| {
        let mut cache = cache.borrow_mut();
        let i = match cache.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                let hist = crate::global().histogram(&format!("span.{name}.seconds"));
                cache.push((name, hist));
                cache.len() - 1
            }
        };
        cache[i].1.record(rec.seconds());
    });
    scope.buffer.push(rec);
}

/// Records an already-timed phase `[start_ns, end_ns]` under the current
/// scope (parented to the innermost open span). Used where a phase
/// boundary is known from measurements rather than bracketed by a guard
/// (the engine's decode/aggregate/re-encode split). No-op without a scope.
pub fn record_span(name: &'static str, start_ns: u64, end_ns: u64) {
    if !trace_enabled() {
        return;
    }
    SCOPES.with(|scopes| {
        let scopes = scopes.borrow();
        if let Some(s) = scopes.last() {
            let span = s.buffer.next_span_id();
            let rec = SpanRecord {
                trace: s.trace,
                span,
                parent: s.stack.last().copied().unwrap_or(0),
                name: name.to_string(),
                node: s.node.clone(),
                step: s.step,
                worker: s.worker,
                tensor: s.tensor,
                start_ns,
                end_ns,
            };
            record(s, name, rec);
        }
    });
}

/// A live span under the innermost [`TraceScope`]. Inert (and free) when
/// tracing is off or no scope is active. The record is pushed when the
/// span [`finish`](Self::finish)es or drops, whichever comes first —
/// never twice.
///
/// Spans on one thread must close in LIFO order (guaranteed by RAII use).
#[must_use = "a span measures nothing unless it is held until the work completes"]
pub struct TraceSpan {
    live: bool,
    name: &'static str,
    span: u64,
    parent: u64,
    start_ns: u64,
    _not_send: PhantomData<*const ()>,
}

impl TraceSpan {
    /// Opens a span named `name` under the current scope.
    pub fn start(name: &'static str) -> TraceSpan {
        let inert = TraceSpan {
            live: false,
            name,
            span: 0,
            parent: 0,
            start_ns: 0,
            _not_send: PhantomData,
        };
        if !trace_enabled() {
            return inert;
        }
        SCOPES.with(|scopes| {
            let mut scopes = scopes.borrow_mut();
            match scopes.last_mut() {
                None => inert,
                Some(s) => {
                    let span = s.buffer.next_span_id();
                    let parent = s.stack.last().copied().unwrap_or(0);
                    s.stack.push(span);
                    TraceSpan {
                        live: true,
                        name,
                        span,
                        parent,
                        start_ns: now_ns(),
                        _not_send: PhantomData,
                    }
                }
            }
        })
    }

    /// Replaces the parent link with a context received over the wire
    /// (cross-node parenting: the server's receive span points at the
    /// worker span that sent the frames).
    pub fn set_remote_parent(&mut self, ctx: TraceCtx) {
        if self.live && ctx.span != 0 {
            self.parent = ctx.span;
        }
    }

    /// This span's id (0 when inert).
    pub fn id(&self) -> u64 {
        if self.live {
            self.span
        } else {
            0
        }
    }

    /// Ends the span and pushes its record.
    pub fn finish(mut self) {
        self.end();
    }

    fn end(&mut self) {
        if !self.live {
            return;
        }
        self.live = false;
        let end_ns = now_ns();
        SCOPES.with(|scopes| {
            let mut scopes = scopes.borrow_mut();
            if let Some(s) = scopes.last_mut() {
                // LIFO discipline: this span should be the innermost open
                // one. Tolerate (and repair) a mis-nested close.
                if let Some(pos) = s.stack.iter().rposition(|&id| id == self.span) {
                    s.stack.truncate(pos);
                }
                let rec = SpanRecord {
                    trace: s.trace,
                    span: self.span,
                    parent: self.parent,
                    name: self.name.to_string(),
                    node: s.node.clone(),
                    step: s.step,
                    worker: s.worker,
                    tensor: s.tensor,
                    start_ns: self.start_ns,
                    end_ns,
                };
                record(s, self.name, rec);
            }
        });
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        self.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Tests toggle the process-global enablement flag; serialize them so
    /// the parallel test runner cannot interleave toggles.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn scoped_buffer() -> Arc<TraceBuffer> {
        set_trace_enabled(true);
        Arc::new(TraceBuffer::default())
    }

    #[test]
    fn spans_record_with_parent_links() {
        let _g = lock();
        let buf = scoped_buffer();
        {
            let _scope = TraceScope::enter(&buf, "worker0", 77, 3, 0);
            let outer = TraceSpan::start("step");
            let outer_id = outer.id();
            {
                let inner = TraceSpan::start("quantize");
                assert_ne!(inner.id(), 0);
                inner.finish();
            }
            outer.finish();
            assert_eq!(buf.len(), 2);
            let nt = buf.snapshot("worker0");
            let inner = &nt.spans[0];
            let outer_rec = &nt.spans[1];
            assert_eq!(inner.name, "quantize");
            assert_eq!(inner.parent, outer_id);
            assert_eq!(inner.trace, 77);
            assert_eq!(inner.step, 3);
            assert_eq!(inner.worker, 0);
            assert_eq!(inner.node, "worker0");
            assert_eq!(outer_rec.parent, 0);
            assert!(inner.start_ns >= outer_rec.start_ns);
            assert!(inner.end_ns <= outer_rec.end_ns);
        }
        set_trace_enabled(false);
    }

    #[test]
    fn drop_and_finish_record_exactly_once() {
        let _g = lock();
        let buf = scoped_buffer();
        {
            let _scope = TraceScope::enter(&buf, "n", 1, 0, NO_WORKER);
            let s = TraceSpan::start("a");
            s.finish(); // explicit finish; the drop that follows must not double-record
            let _implicit = TraceSpan::start("b"); // dropped at block end
        }
        assert_eq!(buf.len(), 2);
        set_trace_enabled(false);
    }

    #[test]
    fn no_scope_means_no_records() {
        let _g = lock();
        set_trace_enabled(true);
        let s = TraceSpan::start("orphan");
        assert_eq!(s.id(), 0);
        s.finish();
        record_span("orphan2", 1, 2);
        assert!(current_ctx().is_none());
        assert!(!scope_active());
        // Nothing recorded, nothing registered: the histograms are a view.
        let snap = crate::global().snapshot();
        assert!(snap.histograms.iter().all(|h| !h.name.contains("orphan")));
        set_trace_enabled(false);
    }

    #[test]
    fn disabled_tracing_is_inert() {
        let _g = lock();
        set_trace_enabled(false);
        let buf = Arc::new(TraceBuffer::default());
        let _scope = TraceScope::enter(&buf, "n", 1, 0, NO_WORKER);
        let s = TraceSpan::start("x");
        s.finish();
        assert!(buf.is_empty());
        assert!(current_ctx().is_none());
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let _g = lock();
        set_trace_enabled(true);
        let buf = Arc::new(TraceBuffer::with_capacity(2));
        {
            let _scope = TraceScope::enter(&buf, "n", 1, 0, NO_WORKER);
            for _ in 0..5 {
                TraceSpan::start("s").finish();
            }
        }
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped(), 3);
        let nt = buf.drain("n");
        assert_eq!(nt.spans.len(), 2);
        assert_eq!(nt.dropped, 3);
        assert!(buf.is_empty());
        set_trace_enabled(false);
    }

    #[test]
    fn current_ctx_tracks_the_open_span() {
        let _g = lock();
        let buf = scoped_buffer();
        {
            let _scope = TraceScope::enter(&buf, "n", 42, 0, NO_WORKER);
            assert_eq!(current_ctx(), Some(TraceCtx { trace: 42, span: 0 }));
            let s = TraceSpan::start("x");
            assert_eq!(
                current_ctx(),
                Some(TraceCtx {
                    trace: 42,
                    span: s.id()
                })
            );
            s.finish();
        }
        set_trace_enabled(false);
    }

    #[test]
    fn record_span_uses_the_scope_and_given_bounds() {
        let _g = lock();
        let buf = scoped_buffer();
        {
            let _scope = TraceScope::enter(&buf, "server", 9, 5, NO_WORKER);
            record_span("server-decode", 100, 250);
        }
        let nt = buf.drain("server");
        assert_eq!(nt.spans.len(), 1);
        assert_eq!(nt.spans[0].name, "server-decode");
        assert_eq!(nt.spans[0].start_ns, 100);
        assert_eq!(nt.spans[0].end_ns, 250);
        assert!((nt.spans[0].seconds() - 150e-9).abs() < 1e-15);
        // The record's one sample in the derived view (no other test
        // records this name).
        let snap = crate::global().snapshot();
        let view = snap.histogram("span.server-decode.seconds").expect("view");
        assert_eq!((view.count, view.sum), (1, nt.spans[0].seconds()));
        set_trace_enabled(false);
    }

    #[test]
    fn remote_parent_overrides_the_local_link() {
        let _g = lock();
        let buf = scoped_buffer();
        {
            let _scope = TraceScope::enter(&buf, "server", 1, 0, 2);
            let mut s = TraceSpan::start("recv_push");
            s.set_remote_parent(TraceCtx {
                trace: 1,
                span: 999,
            });
            s.finish();
        }
        assert_eq!(buf.drain("server").spans[0].parent, 999);
        set_trace_enabled(false);
    }

    #[test]
    fn set_tensor_tags_the_spans_that_end_until_cleared() {
        let _g = lock();
        let buf = scoped_buffer();
        {
            let _scope = TraceScope::enter(&buf, "worker0", 1, 0, 0);
            TraceSpan::start("compute").finish();
            set_tensor(2);
            TraceSpan::start("quantize").finish();
            record_span("encode", 5, 9);
            set_tensor(NO_TENSOR);
            TraceSpan::start("serialize").finish();
        }
        // Outside any scope it is a no-op.
        set_tensor(7);
        let tensors: Vec<i64> = buf
            .drain("worker0")
            .spans
            .iter()
            .map(|s| s.tensor)
            .collect();
        assert_eq!(tensors, [NO_TENSOR, 2, 2, NO_TENSOR]);
        // A record written before the field existed names no tensor.
        let old =
            r#"{"trace":1,"span":2,"name":"encode","node":"w","step":0,"start_ns":0,"end_ns":1}"#;
        let rec: SpanRecord = serde_json::from_str(old).expect("old record");
        assert_eq!((rec.worker, rec.tensor), (NO_WORKER, NO_TENSOR));
        set_trace_enabled(false);
    }

    #[test]
    fn run_trace_id_is_stable_nonzero_and_seed_sensitive() {
        assert_eq!(run_trace_id(5), run_trace_id(5));
        assert_ne!(run_trace_id(5), run_trace_id(6));
        assert_ne!(run_trace_id(0), 0);
        assert_eq!(run_trace_id(123) & 1, 1);
    }

    #[test]
    fn node_trace_serde_roundtrip() {
        let nt = NodeTrace {
            clock: "worker1".into(),
            spans: vec![SpanRecord {
                trace: 7,
                span: 1,
                parent: 0,
                name: "encode".into(),
                node: "worker1".into(),
                step: 4,
                worker: 1,
                tensor: 3,
                start_ns: 10,
                end_ns: 30,
            }],
            dropped: 2,
        };
        let json = serde_json::to_string(&nt).expect("serialize");
        let back: NodeTrace = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, nt);
    }
}
