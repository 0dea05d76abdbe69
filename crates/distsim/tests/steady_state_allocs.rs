//! A steady-state BSP step allocates in proportion to what it **sends**,
//! not to the model: after warm-up, the bytes `ServerCore::apply_step` and
//! `WorkerReplica::apply_pulls` ask the allocator for stay below twice the
//! step's wire bytes plus a small per-tensor constant. Accumulators, symbol
//! and quartic scratch, the model delta and the residual buffers all have
//! an owner that outlives the step (DESIGN.md §18); a per-step
//! `vec![0f32; n]`, model snapshot or dense pull decode — each four bytes
//! per value against 3LC's fraction of a bit — breaks the bound at once.
//! The worker's half, `compute` + `encode_push`, lands its gradients in
//! the buffers its push contexts lend and allocates activations, GEMM
//! panels and payloads only: less than the model, where fresh gradients
//! alone are all of it.
//! And what a 3LC worker keeps is the model and its residuals: a gradient
//! that lands in its context's error-accumulation buffer has no tensor of
//! its own to keep (DESIGN.md §18). The same holds on the server, for
//! every design: a model delta lands in the buffer its pull context lends,
//! and a decode context keeps no dense buffer, only 3LC's quartic scratch.
//!
//! Its own test binary, because the counting `#[global_allocator]` is
//! process-wide. Counting is per thread, so the harness's own threads do
//! not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use threelc_baselines::SchemeKind;
use threelc_distsim::{ExperimentConfig, Problem, ServerCore, TensorPayload, WorkerReplica};

thread_local! {
    /// Bytes this thread has asked for while counting, or `None` when not
    /// counting. Const-initialised and without a destructor, so touching
    /// it from inside the allocator allocates nothing.
    static COUNTED: Cell<Option<usize>> = const { Cell::new(None) };
    /// Bytes this thread has asked for minus the bytes it has given back,
    /// while counting.
    static HELD: Cell<Option<isize>> = const { Cell::new(None) };
}

struct Counting;

fn count(bytes: usize) {
    COUNTED.with(|c| {
        if let Some(total) = c.get() {
            c.set(Some(total + bytes));
        }
    });
    hold(bytes as isize);
}

fn hold(bytes: isize) {
    HELD.with(|c| {
        if let Some(total) = c.get() {
            c.set(Some(total + bytes));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter beside it touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        hold(-(layout.size() as isize));
        // SAFETY: the caller's obligations are `System.dealloc`'s.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        hold(-(layout.size().saturating_sub(new_size) as isize));
        // SAFETY: the caller's obligations are `System.realloc`'s.
        unsafe { System.realloc(p, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes `f` asked the allocator for on this thread.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    COUNTED.with(|c| c.set(Some(0)));
    let out = f();
    let bytes = COUNTED.with(|c| c.take()).expect("counting was on");
    (out, bytes)
}

/// Bytes `f` left allocated on this thread, its result still alive.
fn held_by<T>(f: impl FnOnce() -> T) -> (T, isize) {
    HELD.with(|c| c.set(Some(0)));
    let out = f();
    let bytes = HELD.with(|c| c.take()).expect("counting was on");
    (out, bytes)
}

#[test]
fn a_warmed_up_3lc_replica_retains_no_gradient_sized_buffer() {
    let config = ExperimentConfig {
        scheme: SchemeKind::three_lc(1.0),
        workers: 1,
        batch_per_worker: 8,
        model_width: 256,
        model_blocks: 2,
        seed: 3,
        ..Default::default()
    };
    let problem = Problem::build(&config);
    let (replica, held) = held_by(|| {
        let mut replica = WorkerReplica::new(&problem, 0);
        for _ in 0..3 {
            let (_loss, grads) = replica.compute(&problem.data, config.batch_per_worker);
            replica.encode_push(grads);
        }
        replica
    });
    // What the replica must keep: its model, and a residual and the
    // quartic scratch (a byte per five values) per compressed tensor; plus
    // a little bookkeeping per tensor. A raw gradient leaves as its push.
    let model_bytes = 4 * replica.model().num_params();
    let (mut compressed, mut quartic) = (0, 0);
    for (shape, &c) in problem.shapes.iter().zip(&problem.compressible) {
        if c {
            compressed += 4 * shape.num_elements();
            quartic += shape.num_elements().div_ceil(5);
        }
    }
    const PER_TENSOR: usize = 1024;
    let kept = model_bytes + compressed + quartic + PER_TENSOR * problem.num_tensors();
    assert!(
        held <= kept as isize,
        "a warmed-up replica holds {held} bytes: {} more than its model ({model_bytes}), \
         residuals ({compressed}) and quartic scratch ({quartic}) — the compressed tensors' \
         gradients are {compressed} bytes",
        held - kept as isize
    );
    drop(replica);
}

/// What a warmed-up server of `scheme` holds beyond its model and
/// velocity, per compressed tensor: the buffer its pull context lends, and
/// for 3LC the pull context's and each decode mirror's quartic scratch (a
/// byte per five values). Raw tensors hold nothing between steps: their
/// delta leaves as the pull.
fn a_warmed_up_server_retains_one_buffer_per_pull_context(scheme: SchemeKind) {
    const WORKERS: usize = 2;
    const STEPS: usize = 3;
    let config = ExperimentConfig {
        scheme,
        workers: WORKERS,
        batch_per_worker: 8,
        model_width: 256,
        model_blocks: 2,
        seed: 3,
        ..Default::default()
    };
    let problem = Problem::build(&config);
    // The pushes first, outside the count: the server's heap is the
    // question, not the replicas'.
    let mut replicas: Vec<WorkerReplica> = (0..WORKERS)
        .map(|w| WorkerReplica::new(&problem, w))
        .collect();
    let pushes: Vec<Vec<Vec<TensorPayload>>> = (0..STEPS)
        .map(|_| {
            replicas
                .iter_mut()
                .map(|w| {
                    let (_loss, grads) = w.compute(&problem.data, config.batch_per_worker);
                    w.encode_push(grads).payloads
                })
                .collect()
        })
        .collect();
    let shards = 1;
    let (server, held) = held_by(|| {
        let mut server = ServerCore::new(&problem);
        // Counting is per thread: every shard runs on this one.
        server.set_threads(shards);
        for push in &pushes {
            server
                .apply_step(push, WORKERS, 0.0)
                .expect("every worker accepted");
        }
        server
    });
    let model_bytes = 4 * server.global().num_params();
    let (mut compressed, mut quartic) = (0, 0);
    for (shape, &c) in problem.shapes.iter().zip(&problem.compressible) {
        let n = shape.num_elements();
        if c {
            compressed += 4 * n;
            if matches!(scheme, SchemeKind::ThreeLc { .. }) {
                quartic += n.div_ceil(5);
            }
        }
    }
    const PER_TENSOR: usize = 1024;
    let kept =
        2 * model_bytes + compressed + (1 + WORKERS) * quartic + PER_TENSOR * problem.num_tensors();
    assert!(
        held <= kept as isize,
        "{scheme}: a warmed-up server holds {held} bytes: {} more than its model and velocity \
         ({}), lent pull buffers ({compressed}) and pull and decode quartic scratch ({}) — one \
         more model-sized buffer is {compressed} bytes",
        held - kept as isize,
        2 * model_bytes,
        (1 + WORKERS) * quartic,
    );
    drop(server);
}

#[test]
fn a_warmed_up_3lc_server_retains_no_update_sized_buffer() {
    a_warmed_up_server_retains_one_buffer_per_pull_context(SchemeKind::three_lc(1.0));
}

/// Every design a command line names, among them Float32, whose every
/// compressed tensor kept a model-sized `update` of the server's own until
/// each pull context lent the buffer its delta lands in.
#[test]
fn a_warmed_up_server_of_any_design_retains_no_update_sized_buffer() {
    for token in SchemeKind::tokens() {
        let scheme = SchemeKind::parse(token, 1.0).expect("a listed token");
        a_warmed_up_server_retains_one_buffer_per_pull_context(scheme);
    }
}

#[test]
fn a_steady_state_step_allocates_in_proportion_to_its_wire_bytes() {
    const WARM_UP: usize = 2;
    /// Bookkeeping a step may allocate per tensor whatever it sends:
    /// payload vectors, shard ranges, the parameter view.
    const PER_TENSOR: usize = 1024;
    let config = ExperimentConfig {
        scheme: SchemeKind::three_lc(1.0),
        workers: 2,
        batch_per_worker: 8,
        total_steps: 8,
        model_width: 256,
        model_blocks: 2,
        seed: 3,
        ..Default::default()
    };
    let problem = Problem::build(&config);
    let mut replicas: Vec<WorkerReplica> = (0..config.workers)
        .map(|w| WorkerReplica::new(&problem, w))
        .collect();
    let mut server = ServerCore::new(&problem);
    let model_bytes = 4 * server.global().num_params();

    for step in 0..WARM_UP + 3 {
        let mut pushes = Vec::new();
        let mut residual = 0.0f64;
        for w in replicas.iter_mut() {
            let (push, worker_allocated) = allocated_by(|| {
                let (_loss, grads) = w.compute(&problem.data, config.batch_per_worker);
                w.encode_push(grads).payloads
            });
            assert!(
                step < WARM_UP || worker_allocated < model_bytes,
                "step {step}: compute + encode_push allocated {worker_allocated} bytes; the \
                 model's gradients are {model_bytes}"
            );
            pushes.push(push);
            residual = residual.max(w.residual_l2());
        }
        let (out, mut allocated) = allocated_by(|| {
            server
                .apply_step(&pushes, config.workers, residual)
                .expect("every worker accepted")
        });
        for w in replicas.iter_mut() {
            let ((), bytes) = allocated_by(|| w.apply_pulls(&out.pulls).expect("own pulls"));
            allocated += bytes;
        }
        if step < WARM_UP {
            continue;
        }
        let wire: u64 = pushes
            .iter()
            .flatten()
            .chain(&out.pulls)
            .map(TensorPayload::wire_len)
            .sum();
        let bound = 2 * wire as usize + PER_TENSOR * problem.num_tensors();
        assert!(
            allocated <= bound,
            "step {step}: apply_step + apply_pulls allocated {allocated} bytes for {wire} wire \
             bytes (bound {bound}; the model is {model_bytes} bytes)"
        );
        assert!(
            bound < model_bytes / 2,
            "step {step}: the bound ({bound}) must stay far below the model ({model_bytes}) to \
             mean anything"
        );
    }
}
