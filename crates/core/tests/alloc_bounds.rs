//! What the codec may ask the allocator for, checked under a counting
//! `#[global_allocator]` (hence a test binary of its own; counting is per
//! thread, so the tests do not disturb each other):
//!
//! - a zero-run body that *claims* to expand far past the tensor is
//!   rejected before anything is allocated for it — one 64 MiB frame of
//!   `0xFF` bytes would otherwise make a server reserve ~900 MiB;
//! - a context that only ever decodes never allocates a residual buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use threelc::kernels::{self, DequantOp};
use threelc::{zrle, Compressor, DecodeError, SparsityMultiplier, ThreeLcCompressor};
use threelc_tensor::{Shape, Tensor};

thread_local! {
    /// Bytes this thread has asked for while counting, or `None` when not
    /// counting. Const-initialised and without a destructor, so touching
    /// it from inside the allocator allocates nothing.
    static COUNTED: Cell<Option<usize>> = const { Cell::new(None) };
}

struct Counting;

fn count(bytes: usize) {
    COUNTED.with(|c| {
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
        // SAFETY: the caller's obligations are `System.dealloc`'s.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
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

#[test]
fn hostile_zero_run_body_is_rejected_without_allocating_its_expansion() {
    const BODY: usize = 1 << 20;
    const EXPANDED: usize = BODY * zrle::MAX_RUN;
    let body = vec![0xFFu8; BODY]; // every byte an escape for 14 zero bytes
    let mismatch = |expected| DecodeError::BodyLengthMismatch {
        decoded: EXPANDED,
        expected,
    };

    let (res, allocated) = allocated_by(|| zrle::decode_exact(&body, 2));
    assert_eq!(res, Err(mismatch(2)));
    assert_eq!(
        allocated, 0,
        "decode_exact sized the stream by expanding it"
    );

    // The same body behind a well-formed header for a 10-element tensor
    // (2 quartic bytes), through both decode entry points of a context.
    let mut wire = vec![threelc::sizing::WIRE_FLAG_ZRE];
    wire.extend_from_slice(&1.0f32.to_le_bytes());
    wire.extend_from_slice(&10u32.to_le_bytes());
    wire.extend_from_slice(&body);
    let cx = ThreeLcCompressor::new(Shape::new(&[10]), SparsityMultiplier::default());
    let mut syms = Vec::new();
    let (res, allocated) = allocated_by(|| cx.decompress_symbols(&wire, &mut syms));
    assert_eq!(res, Err(mismatch(2)));
    assert_eq!(
        allocated, 0,
        "decompress_symbols allocated for a hostile body"
    );
    let (res, allocated) = allocated_by(|| cx.decompress(&wire));
    assert_eq!(res, Err(mismatch(2)));
    assert_eq!(allocated, 0, "decompress allocated for a hostile body");
    // And through the fused decode the runtime uses, which also must not
    // have written anything.
    let mut out = [7.0f32; 10];
    let (res, allocated) = allocated_by(|| cx.decode_into(&wire, DequantOp::Add, &mut out));
    assert_eq!(res, Err(mismatch(2)));
    assert_eq!(allocated, 0, "decode_into allocated for a hostile body");
    assert_eq!(out, [7.0f32; 10]);
}

#[test]
fn a_decode_only_context_never_allocates_a_residual_buffer() {
    const N: usize = 100_000;
    let input = Tensor::from_vec((0..N).map(|i| ((i % 17) as f32 - 8.0) * 0.1).collect(), [N]);
    let mut encoder = ThreeLcCompressor::new(Shape::new(&[N]), SparsityMultiplier::default());
    let wire = encoder.compress(&input).expect("finite input");

    // Building a mirror and decoding through it stays well below the
    // 4·N bytes a residual buffer takes: the symbols (N bytes) and the
    // quartic scratch (N / 5).
    let mut syms = Vec::new();
    let (mirror, allocated) = allocated_by(|| {
        let mirror = ThreeLcCompressor::new(Shape::new(&[N]), SparsityMultiplier::default());
        mirror
            .decompress_symbols(&wire, &mut syms)
            .expect("own payload decodes");
        mirror
    });
    assert!(
        allocated < 2 * N,
        "a decode-only context allocated {allocated} bytes for {N} values"
    );
    // The fused decode the runtime uses needs only the quartic scratch.
    let mut out = vec![0f32; N];
    let ((), allocated) = allocated_by(|| {
        ThreeLcCompressor::new(Shape::new(&[N]), SparsityMultiplier::default())
            .decode_into(&wire, DequantOp::Assign, &mut out)
            .expect("own payload decodes")
    });
    assert!(
        allocated < N / 2,
        "a fused decode allocated {allocated} bytes for {N} values"
    );
    // Until something is compressed there is no residual, and its energy
    // reads as zero.
    assert_eq!(mirror.residual_sq(), 0.0);
    assert_eq!(mirror.residual(), None);
    // The encoder's is real, and what `residual_sq` sums: exactly
    // `kernels::sum_squares` of it, which is the sequential sum to within
    // the rounding of its adds.
    let residual = encoder.residual().expect("error accumulation is on");
    assert!(residual.max_abs() > 0.0);
    assert_eq!(
        encoder.residual_sq(),
        kernels::sum_squares(residual.as_slice())
    );
    let sequential: f64 = residual
        .as_slice()
        .iter()
        .map(|&x| x as f64 * x as f64)
        .sum();
    assert!((encoder.residual_sq() - sequential).abs() <= 1e-12 * sequential);
}
