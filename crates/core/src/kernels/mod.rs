//! Runtime-dispatched codec kernels: scalar reference, branchless u64
//! SWAR, and `core::arch` x86-64 intrinsics.
//!
//! The 3LC hot paths — max-magnitude reduction, fused ternary
//! quantization + quartic packing, zero-run encoding, and the fused
//! unpack + dequantize + accumulate of the decode side — exist in
//! three implementation tiers behind one dispatch point:
//!
//! - [`CodecImpl::Scalar`]: the straightforward reference loops. Always
//!   available; the other tiers are defined by being bit-for-bit
//!   identical to it.
//! - [`CodecImpl::Swar`]: branchless, word-at-a-time kernels built on
//!   plain `u64` arithmetic ("SIMD within a register"). Always available,
//!   100% safe code, and written so LLVM auto-vectorizes the float lanes.
//! - [`CodecImpl::Simd`]: explicit AVX2 intrinsics (`core::arch::x86_64`),
//!   selected at runtime only when the CPU reports AVX2. Its kernels are
//!   safe `#[target_feature]` fns; the feature-guarded calls below are the
//!   tier's only `unsafe`.
//!
//! Selection happens once per process ([`selection`]): the best available
//! tier wins, unless `THREELC_CODEC_IMPL=scalar|swar|simd` forces one for
//! testing. A forced tier that the host cannot run falls back to the best
//! available tier and the selection records the downgrade, so callers
//! (`threelc codec`, the CI dispatch matrix) can report it loudly instead
//! of silently testing the wrong code.
//!
//! # The bit-identity argument
//!
//! Every tier must produce byte-identical output — including identical
//! error-accumulation buffers and identical corrupt-input error offsets —
//! because distributed runs mix hosts and the protocol compares payloads
//! bit for bit. The kernels keep that promise by construction:
//!
//! - **Quantization** maps `t = x · inv` to `{-1, 0, 1}` by the sign of
//!   `t` and the single comparison `|t| ≥ 0.5`, evaluated on the IEEE bit
//!   pattern (`(bits & 0x7fff_ffff) ≥ 0x3f00_0000`, with NaN excluded by
//!   `≤ 0x7f80_0000`). For every `|t| < 1.5` this equals
//!   `t.round() as i8` exactly — and `|t| ≤ 1 + 2ε` always holds when
//!   `inv` is finite, because `scale = max|x| · s ≥ max|x|` (`s ≥ 1` and
//!   rounding a product of positives never lands below the larger
//!   representable factor). The float multiply itself is a single
//!   IEEE-exact operation on every tier (no FMA contraction is emitted
//!   from explicit `a * b`). The one place the comparison form *differs*
//!   from the historical `round()` form is the degenerate corner where
//!   `scale` is subnormal and `inv` overflows to `+inf`: `round(±inf) as
//!   i8` saturated to `±127`, which poisoned the downstream quartic pack
//!   (a debug-build panic). The comparison form yields `±1` there —
//!   well-defined ternary output on all tiers — and `0 · inf = NaN`
//!   quantizes to `0` exactly as the saturating cast did.
//! - **Max-|x| reduction**: for non-negative finite floats the IEEE bit
//!   pattern orders exactly like the integer it spells, so an integer max
//!   over `bits & 0x7fff_ffff` equals the float max the scalar tier
//!   computes. When any input is non-finite every tier reports
//!   `finite = false` and the caller discards the max and errors, so the
//!   tiers only need to agree on finiteness there (exponent ≠ 0xFF,
//!   checked bitwise identically).
//! - **Quartic packing** is integer arithmetic: digits in `{0, 1, 2}`
//!   weighted by `{81, 27, 9, 3, 1}` never exceed 242, so the SWAR tier
//!   can scale a whole 8-digit word with one `u64` multiply and sum the
//!   five words without any lane ever carrying into its neighbour.
//! - **Zero-run encoding** (`zre_compact`) is a per-byte function of the
//!   byte, the next byte and the run's count modulo 14; the AVX2 tier
//!   computes the count of every byte of a window at once (a prefix max)
//!   and compacts in order, so every tier emits the same bytes. The
//!   invalid-byte scan (first `> 242`) refines its last word/vector to the
//!   exact first index, so `InvalidQuarticByte` offsets are identical.
//! - **Fused decode** ([`unpack_dequant`]): the base-3 digits come from
//!   exact integer arithmetic, each value is the one IEEE multiply
//!   `sym as f32 · scale` (the AVX2 tier selects among the three products
//!   that multiply can yield), and the accumulate and averaging steps
//!   stay a separate add and multiply in the order the two-pass oracle
//!   (`quartic::decode_into_impl`, then [`dequant_assign`] /
//!   [`dequant_add`], then a `· k` sweep) performs them.
//!
//! `tests/dispatch_identity.rs` enforces all of this differentially on
//! adversarial inputs (NaN/inf/subnormals, all-zero and no-zero tensors,
//! lengths straddling the 5-symbol and word/vector block boundaries).

use std::fmt;
use std::sync::OnceLock;

mod scalar;
#[cfg(target_arch = "x86_64")]
mod simd_x86;
mod swar;

/// Environment variable forcing a codec implementation tier (for tests,
/// benchmarks, and the CI dispatch matrix).
pub const CODEC_IMPL_ENV: &str = "THREELC_CODEC_IMPL";

/// IEEE-754 bit pattern of `0.5f32`: the quantization threshold.
const HALF_BITS: u32 = 0x3f00_0000;
/// IEEE-754 bit pattern of `f32::INFINITY`; larger magnitudes are NaN.
const INF_BITS: u32 = 0x7f80_0000;
/// Quartic digit weights, most-significant partition first (`3⁴ … 3⁰`).
const WEIGHTS: [u8; 5] = [81, 27, 9, 3, 1];
/// The escape for a full run of [`zrle::MAX_RUN`](crate::zrle::MAX_RUN)
/// zero bytes (255).
const FULL_RUN_CODE: u8 =
    crate::zrle::ESCAPE_BASE + (crate::zrle::MAX_RUN - crate::zrle::MIN_RUN) as u8;
/// A run of `k ≥ 2` zero bytes escapes to `RUN_CODE_BIAS + k`.
const RUN_CODE_BIAS: usize = crate::zrle::ESCAPE_BASE as usize - crate::zrle::MIN_RUN;

/// One encode-kernel implementation tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecImpl {
    /// Reference loops; always available.
    Scalar,
    /// Branchless u64 word-at-a-time kernels; always available, safe code.
    Swar,
    /// AVX2 intrinsics; available on x86-64 CPUs reporting AVX2.
    Simd,
}

impl CodecImpl {
    /// Every tier, slowest first.
    pub const ALL: [CodecImpl; 3] = [CodecImpl::Scalar, CodecImpl::Swar, CodecImpl::Simd];

    /// The tier's lowercase name (`scalar`, `swar`, `simd`), as accepted
    /// by [`CODEC_IMPL_ENV`].
    pub fn name(self) -> &'static str {
        match self {
            CodecImpl::Scalar => "scalar",
            CodecImpl::Swar => "swar",
            CodecImpl::Simd => "simd",
        }
    }

    /// Parses a tier name (the values accepted in [`CODEC_IMPL_ENV`]).
    pub fn parse(s: &str) -> Option<CodecImpl> {
        match s {
            "scalar" => Some(CodecImpl::Scalar),
            "swar" => Some(CodecImpl::Swar),
            "simd" => Some(CodecImpl::Simd),
            _ => None,
        }
    }

    /// Whether this host can run the tier. `Scalar` and `Swar` always
    /// can; `Simd` requires an x86-64 CPU reporting AVX2 at runtime.
    pub fn is_available(self) -> bool {
        match self {
            CodecImpl::Scalar | CodecImpl::Swar => true,
            #[cfg(target_arch = "x86_64")]
            CodecImpl::Simd => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            CodecImpl::Simd => false,
        }
    }

    /// The fastest tier this host can run.
    pub fn best_available() -> CodecImpl {
        if CodecImpl::Simd.is_available() {
            CodecImpl::Simd
        } else {
            CodecImpl::Swar
        }
    }
}

impl fmt::Display for CodecImpl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How the process-wide tier was chosen (see [`selection`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionSource {
    /// Best available tier; [`CODEC_IMPL_ENV`] was unset.
    Auto,
    /// Forced via [`CODEC_IMPL_ENV`] and available.
    Forced,
    /// [`CODEC_IMPL_ENV`] requested the contained tier, but this host
    /// cannot run it; the selection fell back to the best available one.
    ForcedUnavailable(CodecImpl),
}

/// The process-wide codec tier and how it was picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecSelection {
    /// The tier every new [`ThreeLcCompressor`](crate::ThreeLcCompressor)
    /// uses.
    pub imp: CodecImpl,
    /// Whether the environment forced it.
    pub source: SelectionSource,
}

impl CodecSelection {
    /// One-line human description, e.g. `simd (auto)` or
    /// `swar (requested simd unavailable on this host)`.
    pub fn describe(&self) -> String {
        match self.source {
            SelectionSource::Auto => format!("{} (auto)", self.imp),
            SelectionSource::Forced => format!("{} (forced via {CODEC_IMPL_ENV})", self.imp),
            SelectionSource::ForcedUnavailable(want) => {
                format!("{} (requested {want} unavailable on this host)", self.imp)
            }
        }
    }
}

/// The process-wide codec selection, resolved once on first use.
///
/// Honors [`CODEC_IMPL_ENV`] (`scalar`/`swar`/`simd`); an unset or empty
/// variable picks [`CodecImpl::best_available`]. A forced-but-unavailable tier
/// falls back to the best available one and records the downgrade in
/// [`SelectionSource::ForcedUnavailable`]. Resolving it bumps the global
/// `threelc.codec.encode.<tier>` counter once, so a metrics dump names the
/// tier the process ran.
///
/// # Panics
///
/// Panics on an *invalid* value of the variable: a typo silently falling
/// back to auto-selection would defeat the CI dispatch matrix, which
/// relies on the forced tier actually being the one under test.
pub fn selection() -> CodecSelection {
    static SELECTION: OnceLock<CodecSelection> = OnceLock::new();
    *SELECTION.get_or_init(|| {
        let sel = resolve_selection();
        threelc_obs::global()
            .counter(&format!("threelc.codec.encode.{}", sel.imp))
            .inc();
        sel
    })
}

/// Reads [`CODEC_IMPL_ENV`] by [`selection`]'s rules.
fn resolve_selection() -> CodecSelection {
    // A set-but-empty variable counts as unset: CI matrices routinely
    // export an empty string for the "default" leg.
    match std::env::var(CODEC_IMPL_ENV) {
        Err(_) => CodecSelection {
            imp: CodecImpl::best_available(),
            source: SelectionSource::Auto,
        },
        Ok(raw) if raw.is_empty() => CodecSelection {
            imp: CodecImpl::best_available(),
            source: SelectionSource::Auto,
        },
        Ok(raw) => {
            let want = CodecImpl::parse(&raw)
                .unwrap_or_else(|| panic!("{CODEC_IMPL_ENV}={raw} is not one of scalar|swar|simd"));
            if want.is_available() {
                CodecSelection {
                    imp: want,
                    source: SelectionSource::Forced,
                }
            } else {
                CodecSelection {
                    imp: CodecImpl::best_available(),
                    source: SelectionSource::ForcedUnavailable(want),
                }
            }
        }
    }
}

/// The process-wide active tier (shorthand for [`selection`]`().imp`).
pub fn active() -> CodecImpl {
    selection().imp
}

/// Quantizes `t = x · inv` to the quartic digit `round(t) + 1 ∈ {0,1,2}`.
///
/// Shared by the scalar and SWAR tiers (the AVX2 tier re-derives the same
/// arithmetic in vector registers). See the module docs for the proof
/// that this equals `(x * inv).round() as i8 + 1` for every non-degenerate
/// input.
#[inline(always)]
fn digit_of(x: f32, inv: f32) -> u8 {
    let tb = (x * inv).to_bits();
    let ab = tb & 0x7fff_ffff;
    let nz = (HALF_BITS..=INF_BITS).contains(&ab) as u8;
    let sg = (tb >> 31) as u8;
    // 1 (zero) + 1 if quantized nonzero − 2 if that nonzero is negative.
    1 + nz - (nz & sg) * 2
}

/// Resolves the tier to actually execute: an explicitly requested but
/// unavailable `Simd` degrades to `Swar` (identical output, no illegal
/// instruction) instead of crashing.
#[inline]
fn runnable(imp: CodecImpl) -> CodecImpl {
    if imp == CodecImpl::Simd && !imp.is_available() {
        CodecImpl::Swar
    } else {
        imp
    }
}

/// Splits a tensor's values into its five quartic partitions of length
/// `len = ⌈n / 5⌉`: plane `j` is `xs[j·len .. (j+1)·len]` clamped to
/// `xs.len()`, so the last planes are short or empty when `n` is not a
/// multiple of five.
pub(crate) fn planes_mut(mut xs: &mut [f32], len: usize) -> [&mut [f32]; 5] {
    std::array::from_fn(|_| {
        let plane = len.min(xs.len());
        let (head, tail) = std::mem::take(&mut xs).split_at_mut(plane);
        xs = tail;
        head
    })
}

/// Max `|x|` and all-finite flag over `xs` (Equation 1's reduction).
///
/// Exactly the fold `(m.max(x.abs()), ok && x.is_finite())` starting from
/// `(0.0, true)`; the max is meaningful only when the flag is true.
pub fn max_abs_finite(imp: CodecImpl, xs: &[f32]) -> (f32, bool) {
    match runnable(imp) {
        CodecImpl::Scalar => scalar::max_abs_finite(xs),
        CodecImpl::Swar => swar::max_abs_finite(xs),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runnable` returns Simd only when AVX2 was detected.
        CodecImpl::Simd => unsafe { simd_x86::max_abs_finite(xs) },
        #[cfg(not(target_arch = "x86_64"))]
        CodecImpl::Simd => unreachable!("Simd resolves to Swar off x86-64"),
    }
}

/// Quantizes each `x` to `round(x · inv) ∈ {-1, 0, 1}` (Equation 2).
///
/// # Panics
///
/// Panics if `out.len() != xs.len()`.
pub fn quantize_ternary(imp: CodecImpl, xs: &[f32], inv: f32, out: &mut [i8]) {
    assert_eq!(xs.len(), out.len(), "output must match input length");
    match runnable(imp) {
        CodecImpl::Scalar => scalar::quantize_ternary(xs, inv, out),
        CodecImpl::Swar => swar::quantize_ternary(xs, inv, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runnable` returns Simd only when AVX2 was detected.
        CodecImpl::Simd => unsafe { simd_x86::quantize_ternary(xs, inv, out) },
        #[cfg(not(target_arch = "x86_64"))]
        CodecImpl::Simd => unreachable!("Simd resolves to Swar off x86-64"),
    }
}

/// Fused quantize + quartic pack + error write-back of one tensor's
/// `L = out.len()` bytes (Figure 3 steps (a)+(b)): the one encode kernel.
///
/// `srcs[j]` is quartic partition `j` (`buffer[j·L .. (j+1)·L]` clamped
/// to the tensor length); output byte `i` combines digit
/// `round(srcs[j][i] · inv) + 1` across the five partitions, with the
/// padding digit 1 past each slice's end, and each value read is replaced
/// by its residual `x − q · scale` in the same pass. Returns whether every
/// value it read was finite — [`max_abs_finite`]'s flag, folded on the
/// way — so a buffer that took a non-finite value after its scale was
/// reduced is still refused.
pub fn pack_chunk_ea(
    imp: CodecImpl,
    srcs: &mut [&mut [f32]; 5],
    inv: f32,
    scale: f32,
    out: &mut [u8],
) -> bool {
    for s in srcs.iter() {
        debug_assert!(s.len() <= out.len());
    }
    match runnable(imp) {
        CodecImpl::Scalar => scalar::pack_chunk_ea(srcs, inv, scale, out),
        CodecImpl::Swar => swar::pack_chunk_ea(srcs, inv, scale, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runnable` returns Simd only when AVX2 was detected.
        CodecImpl::Simd => unsafe { simd_x86::pack_chunk_ea(srcs, inv, scale, out) },
        #[cfg(not(target_arch = "x86_64"))]
        CodecImpl::Simd => unreachable!("Simd resolves to Swar off x86-64"),
    }
}

/// Packs ternary values (partition layout, zero-padded) into quartic
/// bytes: the dispatchable core of [`crate::quartic::encode`]. `srcs[j]`
/// is partition `j` of the value stream.
pub fn pack_ternary(imp: CodecImpl, srcs: &[&[i8]; 5], out: &mut [u8]) {
    for s in srcs {
        debug_assert!(s.len() <= out.len());
    }
    match runnable(imp) {
        CodecImpl::Scalar => scalar::pack_ternary(srcs, out),
        // The ternary-input pack has no float lanes for AVX2 to win on;
        // the SWAR word kernel is the fast path for both upper tiers.
        CodecImpl::Swar | CodecImpl::Simd => swar::pack_ternary(srcs, out),
    }
}

/// Dequantize-assign: `out[i] = syms[i] as f32 · scale` — with
/// [`dequant_add`] the second pass of the two-pass oracle that
/// [`unpack_dequant`] is tested against (nothing in the runtime stores
/// symbols any more).
///
/// The first accepted worker of an aggregation *assigns*
/// into the accumulator (rather than adding to a zeroed one) so that
/// `-0.0` products — e.g. `scale == 0.0`, `sym == -1` — survive exactly
/// as they do when the dense reference moves the first decoded tensor
/// into the sum. Each element is one IEEE multiply, so every tier is
/// bit-identical by construction.
///
/// # Panics
///
/// Panics if `out.len() != syms.len()`.
pub fn dequant_assign(imp: CodecImpl, syms: &[i8], scale: f32, out: &mut [f32]) {
    assert_eq!(syms.len(), out.len(), "output must match symbol length");
    match runnable(imp) {
        CodecImpl::Scalar => scalar::dequant_assign(syms, scale, out),
        CodecImpl::Swar => swar::dequant_assign(syms, scale, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runnable` returns Simd only when AVX2 was detected.
        CodecImpl::Simd => unsafe { simd_x86::dequant_assign(syms, scale, out) },
        #[cfg(not(target_arch = "x86_64"))]
        CodecImpl::Simd => unreachable!("Simd resolves to Swar off x86-64"),
    }
}

/// Dequantize-accumulate: `out[i] += syms[i] as f32 · scale`.
///
/// Aggregation applies this once per accepted worker after the first,
/// reproducing the dense reference's worker-order `Tensor::add_assign`
/// float sums element for element (one multiply + one add per element,
/// both IEEE-exact, no FMA contraction from explicit `a * b + c` split
/// across statements).
///
/// # Panics
///
/// Panics if `out.len() != syms.len()`.
pub fn dequant_add(imp: CodecImpl, syms: &[i8], scale: f32, out: &mut [f32]) {
    assert_eq!(syms.len(), out.len(), "output must match symbol length");
    match runnable(imp) {
        CodecImpl::Scalar => scalar::dequant_add(syms, scale, out),
        CodecImpl::Swar => swar::dequant_add(syms, scale, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runnable` returns Simd only when AVX2 was detected.
        CodecImpl::Simd => unsafe { simd_x86::dequant_add(syms, scale, out) },
        #[cfg(not(target_arch = "x86_64"))]
        CodecImpl::Simd => unreachable!("Simd resolves to Swar off x86-64"),
    }
}

/// What a fused decode does with each dequantized value
/// `v = sym as f32 · scale` ([`unpack_dequant`],
/// [`Compressor::decode_into`](crate::Compressor::decode_into)).
///
/// An aggregation's first accepted payload assigns, the rest add, and the
/// last one also applies the `1/accepted` average `k` — each form is the
/// per-element float operations of the separate sweeps it replaces, in the
/// same order, so the result is bit-identical to running them apart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DequantOp {
    /// `out = v`.
    Assign,
    /// `out = out + v`.
    Add,
    /// `out = v · k`.
    AssignScaled(f32),
    /// `out = (out + v) · k`.
    AddScaled(f32),
}

impl DequantOp {
    /// The dense form: applies the op with `vs` as the already decoded
    /// values — what a payload without a symbol form (raw tensors, floats
    /// read off the wire, the baseline schemes' strips) goes through.
    ///
    /// # Panics
    ///
    /// Panics if `vs` does not yield exactly `out.len()` values.
    pub fn apply(self, vs: impl ExactSizeIterator<Item = f32>, out: &mut [f32]) {
        assert_eq!(vs.len(), out.len(), "output must match value count");
        let pairs = out.iter_mut().zip(vs);
        // Matched outside the loop so each arm is one branch-free sweep.
        match self {
            DequantOp::Assign => pairs.for_each(|(o, v)| *o = v),
            DequantOp::Add => pairs.for_each(|(o, v)| *o += v),
            DequantOp::AssignScaled(k) => pairs.for_each(|(o, v)| *o = v * k),
            DequantOp::AddScaled(k) => pairs.for_each(|(o, v)| *o = (*o + v) * k),
        }
    }
}

/// Fused quartic unpack + dequantize + `op`: with `L = bytes.len()`,
/// plane `j` of `out` (`out[j·L .. (j+1)·L]` clamped to `out.len()`) takes
/// `v = (digit_j(bytes[i]) − 1) as f32 · scale` at index `i` and applies
/// `op` — [`crate::quartic::decode_into_impl`] followed by
/// [`dequant_assign`]/[`dequant_add`] (and a `· k` sweep), without the
/// symbols in between ever being stored.
///
/// Bit-identical to that oracle on every tier: `v` is the same single
/// IEEE multiply (the AVX2 tier selects among the three products
/// `−1.0·scale`, `0.0·scale`, `1.0·scale`, computed once as real
/// multiplies — `sym as f32` takes no other value), followed by the same
/// add and multiply in the same order.
///
/// `bytes` must already be valid quartic bytes (`≤ 242`, see
/// [`find_invalid_quartic`]); larger bytes yield unspecified but
/// memory-safe values.
///
/// # Panics
///
/// Panics if `bytes.len() != out.len().div_ceil(5)`.
pub fn unpack_dequant(imp: CodecImpl, bytes: &[u8], scale: f32, op: DequantOp, out: &mut [f32]) {
    let len = bytes.len();
    assert_eq!(
        len,
        out.len().div_ceil(crate::quartic::VALUES_PER_BYTE),
        "quartic bytes must match output length"
    );
    unpack_dequant_planes(imp, bytes, scale, op, &mut planes_mut(out, len));
}

/// [`unpack_dequant`]'s plane kernel on its own: `planes[j][i]` takes
/// digit `j` of `bytes[i]` under `op`, for every `i` the plane reaches.
/// A plane may be shorter than `bytes`, or empty — a tensor's last planes
/// are, and so are those of a strip of bytes cut from a tensor's end
/// ([`crate::sizing::strip_planes`]) — and its elements past its end are
/// simply not there. The same kernel, tier and bit-identity as
/// [`unpack_dequant`], which is this call on a whole tensor's planes.
///
/// # Panics
///
/// Panics if a plane is longer than `bytes`.
pub fn unpack_dequant_planes(
    imp: CodecImpl,
    bytes: &[u8],
    scale: f32,
    op: DequantOp,
    planes: &mut [&mut [f32]; 5],
) {
    assert!(
        planes.iter().all(|p| p.len() <= bytes.len()),
        "a plane longer than its quartic bytes"
    );
    match runnable(imp) {
        CodecImpl::Scalar | CodecImpl::Swar => scalar::unpack_dequant(bytes, scale, op, planes),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runnable` returns Simd only when AVX2 was detected.
        CodecImpl::Simd => unsafe { simd_x86::unpack_dequant(bytes, scale, op, planes) },
        #[cfg(not(target_arch = "x86_64"))]
        CodecImpl::Simd => unreachable!("Simd resolves to Swar off x86-64"),
    }
}

/// First index whose byte exceeds the quartic maximum 242, if any — the
/// offset reported by `InvalidQuarticByte` errors.
pub fn find_invalid_quartic(imp: CodecImpl, h: &[u8]) -> Option<usize> {
    match runnable(imp) {
        CodecImpl::Scalar => h.iter().position(|&b| b > crate::quartic::MAX_QUARTIC_BYTE),
        CodecImpl::Swar => swar::find_invalid_quartic(h),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runnable` returns Simd only when AVX2 was detected.
        CodecImpl::Simd => unsafe { simd_x86::find_invalid_quartic(h) },
        #[cfg(not(target_arch = "x86_64"))]
        CodecImpl::Simd => unreachable!("Simd resolves to Swar off x86-64"),
    }
}

/// Zero-run encodes the valid quartic stream `buf` in place and returns
/// the encoded length: the ZRE body is `buf[..len]`, the rest is
/// unspecified. [`crate::zrle::encode_into_impl`] is the checked entry;
/// bytes above 242 here yield unspecified but memory-safe output.
///
/// A map and a filter (DESIGN.md §14): every input byte emits at most one
/// output byte — a literal itself, a zero byte 255 when it completes a run
/// of 14, else its run's code when the next byte ends the run, else
/// nothing — so the write cursor never passes the read cursor and the
/// compaction needs no second buffer. A running count of the run modulo 14
/// and one byte of lookahead decide each byte; no tier branches on where
/// the zeros fall.
pub(crate) fn zre_compact(imp: CodecImpl, buf: &mut [u8]) -> usize {
    match runnable(imp) {
        CodecImpl::Scalar | CodecImpl::Swar => scalar::zre_compact(buf),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runnable` returns Simd only when AVX2 was detected.
        CodecImpl::Simd => unsafe { simd_x86::zre_compact(buf) },
        #[cfg(not(target_arch = "x86_64"))]
        CodecImpl::Simd => unreachable!("Simd resolves to Swar off x86-64"),
    }
}

/// `Σ x²` in `f64`: the residual energy behind a `threelc-distsim` worker
/// replica's residual norm, which only the step ledger's replay reads (no
/// runtime step computes it). The same on every tier and host.
///
/// Sixteen accumulators, value `i` into lane `i mod 16` over the whole
/// 16-value blocks, the lanes then added in index order and the remainder
/// values after them in order. That order *is* the definition, and it is
/// what lets the loop vectorize: one strict-order `f64` accumulator is a
/// chain LLVM may not reassociate, one add per FP-add latency, while
/// sixteen independent lanes are plain portable code the compiler turns
/// into vector adds. Each square is exact in `f64` (24-bit × 24-bit
/// mantissas), so only the adds round.
pub fn sum_squares(xs: &[f32]) -> f64 {
    let mut lanes = [0f64; 16];
    let mut blocks = xs.chunks_exact(16);
    for block in &mut blocks {
        for (lane, &x) in lanes.iter_mut().zip(block) {
            let x = f64::from(x);
            *lane += x * x;
        }
    }
    let mut sum = 0f64;
    for lane in lanes {
        sum += lane;
    }
    for &x in blocks.remainder() {
        let x = f64::from(x);
        sum += x * x;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_and_display() {
        for imp in CodecImpl::ALL {
            assert_eq!(CodecImpl::parse(imp.name()), Some(imp));
            assert_eq!(imp.to_string(), imp.name());
        }
        assert_eq!(CodecImpl::parse("sse2"), None);
        assert_eq!(CodecImpl::parse("SIMD"), None, "names are lowercase");
    }

    #[test]
    fn scalar_and_swar_are_always_available() {
        assert!(CodecImpl::Scalar.is_available());
        assert!(CodecImpl::Swar.is_available());
        assert!(CodecImpl::best_available() != CodecImpl::Scalar);
        assert!(CodecImpl::best_available().is_available());
    }

    #[test]
    fn selection_is_stable_and_runnable() {
        let s = selection();
        assert_eq!(s, selection(), "selection must be cached");
        assert!(s.imp.is_available());
        assert_eq!(active(), s.imp);
        assert!(!s.describe().is_empty());
    }

    #[test]
    fn describe_mentions_the_downgrade() {
        let sel = CodecSelection {
            imp: CodecImpl::Swar,
            source: SelectionSource::ForcedUnavailable(CodecImpl::Simd),
        };
        let text = sel.describe();
        assert!(text.contains("swar") && text.contains("simd") && text.contains("unavailable"));
    }

    #[test]
    fn digit_of_matches_round_on_representative_points() {
        // digit_of must equal round(x·inv)+1 wherever round stays ternary.
        let inv = 1.0f32;
        for &(x, want) in &[
            (0.0f32, 1u8),
            (-0.0, 1),
            (0.49999997, 1),
            (0.5, 2), // round half away from zero
            (-0.5, 0),
            (1.0, 2),
            (-1.0, 0),
            (0.25, 1),
            (f32::MIN_POSITIVE / 2.0, 1), // subnormal input
        ] {
            assert_eq!(digit_of(x, inv), want, "x={x}");
            let r = ((x * inv) as f64).round();
            if (-1.0..=1.0).contains(&r) {
                assert_eq!(digit_of(x, inv) as i8 - 1, r as i8, "x={x}");
            }
        }
        // The degenerate inv=inf corner: NaN (0·inf) quantizes to 0 and
        // overflowed magnitudes clamp to ±1 — well-defined ternary.
        assert_eq!(digit_of(0.0, f32::INFINITY), 1);
        assert_eq!(digit_of(1.0e-40, f32::INFINITY), 2);
        assert_eq!(digit_of(-1.0e-40, f32::INFINITY), 0);
    }

    /// The definition, written out: lane `i mod 16` over the whole blocks,
    /// lanes in index order, then the remainder in order.
    fn sixteen_lane_reference(xs: &[f32]) -> f64 {
        let whole = xs.len() / 16 * 16;
        let mut lanes = [0f64; 16];
        for i in 0..whole {
            lanes[i % 16] += xs[i] as f64 * xs[i] as f64;
        }
        let mut sum = 0f64;
        for lane in lanes {
            sum += lane;
        }
        for &x in &xs[whole..] {
            sum += x as f64 * x as f64;
        }
        sum
    }

    #[test]
    fn sum_squares_is_the_sixteen_lane_sum_and_close_to_the_sequential_one() {
        // A fixed LCG, mapped to roughly normal magnitudes around 1e-2.
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((seed >> 40) as f32 / (1u32 << 24) as f32 - 0.5) * 0.04
        };
        let normal: Vec<f32> = (0..10_007).map(|_| next()).collect();
        let subnormal: Vec<f32> = (1..=1_000).map(|i| f32::from_bits(i * 7919)).collect();
        let mut spike = vec![0f32; 4_099];
        spike[1_234] = -3.5e19;
        let mut inputs = vec![normal.clone(), subnormal, vec![0f32; 1_000], spike];
        inputs.extend((0..=33).map(|len| normal[..len].to_vec()));
        for xs in &inputs {
            let got = sum_squares(xs);
            assert_eq!(
                got.to_bits(),
                sixteen_lane_reference(xs).to_bits(),
                "len {}",
                xs.len()
            );
            let sequential: f64 = xs.iter().map(|&x| x as f64 * x as f64).sum();
            assert!(
                (got - sequential).abs() <= 1e-12 * sequential,
                "len {}: {got:e} vs sequential {sequential:e}",
                xs.len()
            );
        }
        assert_eq!(sum_squares(&[]).to_bits(), 0f64.to_bits());
        assert_eq!(sum_squares(&[3.0, 4.0]), 25.0);
    }

    #[test]
    fn runnable_never_returns_an_unavailable_tier() {
        for imp in CodecImpl::ALL {
            assert!(runnable(imp).is_available());
        }
    }

    #[test]
    fn the_selected_tier_is_counted_once() {
        let sel = selection();
        selection();
        let snap = threelc_obs::global().snapshot();
        for imp in CodecImpl::ALL {
            let count = snap.counter(&format!("threelc.codec.encode.{imp}"));
            assert_eq!(count, (imp == sel.imp).then_some(1), "{imp}");
        }
    }
}
