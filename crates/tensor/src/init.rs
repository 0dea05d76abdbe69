//! Random tensor initializers.

use crate::{Rng, Shape, Tensor};
use rand::{Rng as _, RngCore};

/// Keystream words one Box–Muller draw consumes when its `u1` is accepted:
/// two `f64` uniforms, one `next_u64` (two words) each. A rejected `u1`
/// costs two more, with odds of 2⁻⁵³ a draw.
const WORDS_PER_DRAW: u128 = 4;

/// The fewest draws a part of a split fill is worth a thread for. A draw
/// costs about 25 ns (four keystream words and a vector kernel's share)
/// and a scoped spawn tens of microseconds, so a thread is handed at least
/// 0.8 ms of work. The width-1024 model's 196 Ki-value input layer and
/// 1 Mi-value block weights are split over every core; the width-40 test
/// models draw on the caller's thread alone.
const MIN_PART_DRAWS: usize = 1 << 15;

/// How many threads a fill of `len` draws is split over: one per core of
/// the host (read once), at most one per [`MIN_PART_DRAWS`].
fn parts_for(len: usize) -> usize {
    crate::cores().min(len / MIN_PART_DRAWS).max(1)
}

/// Random initialization schemes for tensors.
///
/// These cover the standard initializers deep-learning frameworks provide;
/// the training substrate uses [`Initializer::HeNormal`] for ReLU layers and
/// [`Initializer::XavierUniform`] for linear output layers.
///
/// ```
/// use threelc_tensor::{Initializer, rng};
/// let mut r = rng(1);
/// let w = Initializer::HeNormal { fan_in: 64 }.init(&mut r, &[64, 32]);
/// assert_eq!(w.len(), 64 * 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Initializer {
    /// Every element is `value`.
    Constant {
        /// The fill value.
        value: f32,
    },
    /// Uniform over `[low, high)`.
    Uniform {
        /// Inclusive lower bound.
        low: f32,
        /// Exclusive upper bound.
        high: f32,
    },
    /// Normal with the given mean and standard deviation.
    Normal {
        /// Distribution mean.
        mean: f32,
        /// Distribution standard deviation.
        std_dev: f32,
    },
    /// He (Kaiming) normal: `N(0, sqrt(2 / fan_in))`, suited to ReLU nets.
    HeNormal {
        /// Number of input units feeding each output unit.
        fan_in: usize,
    },
    /// Xavier (Glorot) uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
    XavierUniform {
        /// Number of input units.
        fan_in: usize,
        /// Number of output units.
        fan_out: usize,
    },
}

impl Initializer {
    /// Creates a tensor of the given shape drawn from this initializer.
    pub fn init(&self, rng: &mut Rng, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let n = shape.num_elements();
        let data: Vec<f32> = match *self {
            Initializer::Constant { value } => vec![value; n],
            Initializer::Uniform { low, high } => {
                (0..n).map(|_| rng.gen_range(low..high)).collect()
            }
            Initializer::Normal { mean, std_dev } => {
                let mut data = vec![0.0; n];
                fill_standard_normal(rng, &mut data, |z| mean + std_dev * z);
                data
            }
            Initializer::HeNormal { fan_in } => {
                let std_dev = (2.0 / fan_in.max(1) as f32).sqrt();
                let mut data = vec![0.0; n];
                fill_standard_normal(rng, &mut data, |z| std_dev * z);
                data
            }
            Initializer::XavierUniform { fan_in, fan_out } => {
                let a = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
                (0..n).map(|_| rng.gen_range(-a..a)).collect()
            }
        };
        Tensor::from_vec(data, shape)
    }
}

/// Box–Muller through libm's `ln` and `cos`: the value every draw's `f32`
/// is the rounding of, whichever path produced it.
///
/// We avoid `rand_distr` to keep the dependency set to the pre-approved
/// crates; Box–Muller is exact and adequate for initialization and synthetic
/// data generation.
fn libm_normal(u1: f64, u2: f64) -> f64 {
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    r * theta.cos()
}

/// Sets `out[i] = f(zᵢ)` for consecutive standard normal draws `zᵢ` from
/// `rng`: the values of the serial Box–Muller loop
/// `for x in out { *x = f(sample_standard_normal(rng)) }` (the tests'
/// oracle, `libm_normal` of two `gen::<f64>()` uniforms, a zero `u1`
/// drawn again), bit for bit, with `rng` left at the same keystream word
/// that loop leaves it at.
///
/// The fill is split over the host's cores, at least 2¹⁵ draws a part,
/// with no knob and the same bits at every split. ChaCha8 is a
/// counter-mode cipher, so any keystream word can be computed without the
/// ones before it, and an accepted draw consumes exactly four words: draw
/// `i` starts at word `base + 4·i` unless a draw before it rejected its
/// `u1` (odds 2⁻⁵³ a draw; a rejection is repaired, not assumed away).
/// Each part draws from a clone of `rng` moved to where its first draw
/// starts, 64 draws at a time through a vector kernel that proposes each
/// value and keeps it only where libm's provably rounds to the same `f32`
/// (DESIGN.md §19).
pub fn fill_standard_normal(rng: &mut Rng, out: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    fill_split(parts_for(out.len()), rng, out, |rng, out| {
        fill_normals(rng, out, &f)
    });
}

/// Draws a part takes through the kernel together: it reads their
/// keystream words in one run (256 words, four ChaCha8 refills) and
/// [`normals`] forms them in lanes.
const CHUNK: usize = 64;

/// The serial loop `for x in out { *x = f(sample_standard_normal(rng)) }`,
/// [`CHUNK`] draws at a time: a chunk's `u1` and `u2` words are read in
/// the loop's order and [`normals`] turns them into values. A `u1` word the
/// loop rejects (`next_u64() >> 11 == 0`, so `gen::<f64>()` is 0) is
/// skipped as the loop skips it, by reading the next word as the `u1`.
fn fill_normals<R: RngCore + ?Sized>(rng: &mut R, out: &mut [f32], f: &impl Fn(f32) -> f32) {
    let (mut u1s, mut u2s) = ([0u64; CHUNK], [0u64; CHUNK]);
    for chunk in out.chunks_mut(CHUNK) {
        for (w1, w2) in u1s.iter_mut().zip(&mut u2s).take(chunk.len()) {
            *w1 = loop {
                let w = rng.next_u64();
                if w >> 11 != 0 {
                    break w;
                }
            };
            *w2 = rng.next_u64();
        }
        normals(&u1s[..chunk.len()], &u2s[..chunk.len()], chunk);
        chunk.iter_mut().for_each(|x| *x = f(*x));
    }
}

/// The AVX2 instantiation of [`normals_body`] (and nothing else: no
/// `fma`), four `f64` lanes a register where the baseline has two.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    #[target_feature(enable = "avx2")]
    pub(super) fn normals(u1s: &[u64], u2s: &[u64], out: &mut [f32]) -> usize {
        super::normals_body(u1s, u2s, out)
    }
}

/// `out[i] = libm_normal(u1, u2) as f32` for the uniforms of keystream
/// words `u1s[i]`, `u2s[i]` (at most [`CHUNK`] of them, no `u1` word
/// rejected), bit for bit. Returns how many lanes libm decided.
fn normals(u1s: &[u64], u2s: &[u64], out: &mut [f32]) -> usize {
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::avx2_detected() {
        // SAFETY: `avx2_detected()` saw the feature, the only thing the
        // instantiation requires; it reads through checked slices.
        return unsafe { avx2::normals(u1s, u2s, out) };
    }
    normals_body(u1s, u2s, out)
}

/// The body of [`normals`], inlined into each instantiation: each lane
/// keeps its proposal `z` ([`propose`]) as `z as f32` when `z − E` and
/// `z + E`, `E = |z|·2⁻⁴⁰`, round to the same `f32`. The proposal is
/// within 2⁻⁴⁶·|z| of libm's value, so that value lies between them too,
/// and rounding is monotone: the kept `f32` is libm's. The last loop hands
/// every lane the test could not settle to libm.
#[inline(always)]
fn normals_body(u1s: &[u64], u2s: &[u64], out: &mut [f32]) -> usize {
    let mut zs = [0.0f64; CHUNK];
    propose(u1s, u2s, &mut zs);
    let mut settled = [false; CHUNK];
    for ((&z, x), settled) in zs.iter().zip(out.iter_mut()).zip(&mut settled) {
        let guard = z.abs() * GUARD;
        let low = (z - guard) as f32;
        *x = low;
        *settled = low == (z + guard) as f32;
    }
    let lanes = u1s.iter().zip(u2s).zip(out.iter_mut());
    let mut decided = 0;
    for (((&w1, &w2), x), &settled) in lanes.zip(&settled) {
        if !settled {
            *x = libm_normal(uniform(w1), uniform(w2)) as f32;
            decided += 1;
        }
    }
    decided
}

/// The certificate's half-width relative to `|z|`: 2⁻⁴⁰, 64 times the
/// 2⁻⁴⁶ the tests hold [`propose`] to against libm.
const GUARD: f64 = 1.0 / (1u64 << 40) as f64;

/// 1.5·2⁵²: a float near it has a step of 1, so adding it rounds to an
/// integer (ties to even) that the low mantissa bits hold.
const ROUND: f64 = 6_755_399_441_055_744.0;

/// `gen::<f64>()`'s uniform for the keystream word `w`, `(w >> 11)·2⁻⁵³`,
/// without an integer-to-float conversion, which AVX2 lacks for 64-bit
/// lanes: the low 52 bits of `w >> 11` under 2⁵²'s exponent, less 2⁵²,
/// plus 2⁵² where bit 52 is set. Every step is exact.
#[inline(always)]
fn uniform(w: u64) -> f64 {
    const TWO_52: u64 = 0x4330_0000_0000_0000;
    let v = w >> 11;
    let low = f64::from_bits(TWO_52 | (v & ((1 << 52) - 1))) - f64::from_bits(TWO_52);
    let high = f64::from_bits(0u64.wrapping_sub(v >> 52) & TWO_52);
    (low + high) / (1u64 << 53) as f64
}

/// The kernel's Box–Muller values for a chunk's keystream words, `zs[i]`
/// for lane `i`: every operation [`libm_normal`] performs, with [`ln`] and
/// [`cos`] for libm's. Each stage is a branch-free loop that vectorises
/// across draws, so the lanes of many draws are in flight at once rather
/// than one draw's long chain of dependent operations.
#[inline(always)]
fn propose(u1s: &[u64], u2s: &[u64], zs: &mut [f64; CHUNK]) {
    let mut cos_theta = [0.0f64; CHUNK];
    for (z, &w1) in zs.iter_mut().zip(u1s) {
        *z = ln(uniform(w1));
    }
    for (c, &w2) in cos_theta.iter_mut().zip(u2s) {
        *c = cos(2.0 * std::f64::consts::PI * uniform(w2));
    }
    for (z, &c) in zs.iter_mut().zip(&cos_theta) {
        *z = (-2.0 * *z).sqrt() * c;
    }
}

/// `ln 2` in two parts; `k·LN2_HI` is exact for every exponent a uniform
/// has.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// The atanh series past its first term, in `s²`: `2/3, 2/5, …, 2/21`.
const ATANH: [f64; 10] = [
    2.0 / 3.0,
    2.0 / 5.0,
    2.0 / 7.0,
    2.0 / 9.0,
    2.0 / 11.0,
    2.0 / 13.0,
    2.0 / 15.0,
    2.0 / 17.0,
    2.0 / 19.0,
    2.0 / 21.0,
];

/// `ln x` for `x` in `[2⁻⁵³, 1)`. The exponent split `x = 2ᵏ·m`, `m` in
/// `[√½, √2)`, is integer arithmetic on the bits; then `ln m = 2
/// atanh(s)`, `s = f/(2 + f)`, `f = m − 1` (exact), `|s| ≤ 0.172`,
/// arranged as `f − f²/2 + s·(f²/2 + R)` with `R` the series past its
/// first term, so the leading `f` carries no rounding.
#[inline(always)]
fn ln(x: f64) -> f64 {
    const SQRT_HALF: u64 = 0x3fe6_a09e_667f_3bcd;
    let bits = x.to_bits();
    let offset = bits.wrapping_sub(SQRT_HALF);
    let k = (offset as i64) >> 52;
    let m = f64::from_bits(bits.wrapping_sub(offset & (0xfff << 52)));
    let k = f64::from_bits(ROUND.to_bits().wrapping_add(k as u64)) - ROUND;
    let f = m - 1.0;
    let half_f2 = 0.5 * f * f;
    let s = f / (2.0 + f);
    let s2 = s * s;
    let tail = s2 * horner(s2, &ATANH);
    k * LN2_HI - ((half_f2 - (s * (half_f2 + tail) + k * LN2_LO)) - f)
}

/// `π/2` in three parts: 33, 33 and 53 significant bits. `n·PIO2_1` and
/// `n·PIO2_2` are exact for `n ≤ 4`, and what the three leave out of `π/2`
/// is below 10⁻³⁷.
const PIO2_1: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
const PIO2_2: f64 = f64::from_bits(0x3dd0_b461_1a60_0000);
const PIO2_3: f64 = f64::from_bits(0x3ba3_198a_2e03_7073);

/// `sin y = y + y³·S(y²)`: the Taylor coefficients `−1/3!, 1/5!, …, 1/17!`.
const SIN: [f64; 8] = [
    -1.0 / 6.0,
    1.0 / 120.0,
    -1.0 / 5_040.0,
    1.0 / 362_880.0,
    -1.0 / 39_916_800.0,
    1.0 / 6_227_020_800.0,
    -1.0 / 1_307_674_368_000.0,
    1.0 / 355_687_428_096_000.0,
];

/// `cos y = 1 − y²/2 + y⁴·C(y²)`: the Taylor coefficients `1/4!, −1/6!, …,
/// −1/18!`.
const COS: [f64; 8] = [
    1.0 / 24.0,
    -1.0 / 720.0,
    1.0 / 40_320.0,
    -1.0 / 3_628_800.0,
    1.0 / 479_001_600.0,
    -1.0 / 87_178_291_200.0,
    1.0 / 20_922_789_888_000.0,
    -1.0 / 6_402_373_705_728_000.0,
];

/// `cos θ` for `θ` in `[0, 2π)`: `θ = n·π/2 + y`, `|y| ≲ π/4`, by a
/// three-part Cody–Waite reduction (the first two subtractions exact
/// where `y` is small, so `y` keeps its relative precision next to a zero
/// of `cos`), then `±cos y` or `±sin y` by the quadrant `n mod 4`, chosen
/// by select and sign flip, not by branch.
#[inline(always)]
fn cos(theta: f64) -> f64 {
    let t = theta * std::f64::consts::FRAC_2_PI + ROUND;
    let quadrant = t.to_bits();
    let n = t - ROUND;
    let y = ((theta - n * PIO2_1) - n * PIO2_2) - n * PIO2_3;
    let y2 = y * y;
    let sin = y + y * y2 * horner(y2, &SIN);
    let cos = (1.0 - 0.5 * y2) + y2 * y2 * horner(y2, &COS);
    let c = if quadrant & 1 == 0 { cos } else { sin };
    // Quadrants 1 and 2 are negative.
    f64::from_bits(c.to_bits() ^ (((quadrant + 1) & 2) << 62))
}

/// `c₀ + c₁x + c₂x² + …`, as two Horner chains in `x²` (the even and the
/// odd coefficients) that do not wait on each other.
#[inline(always)]
fn horner<const N: usize>(x: f64, c: &[f64; N]) -> f64 {
    let x2 = x * x;
    let chain = |skip| {
        let mut terms = c.iter().skip(skip).step_by(2).rev();
        let last = *terms.next().expect("a coefficient");
        terms.fold(last, |acc, &c| acc * x2 + c)
    };
    chain(0) + x * chain(1)
}

/// [`fill_standard_normal`] over `parts` contiguous blocks of `out`, one
/// scoped thread per block, the first block on the calling thread and on
/// `rng` itself, each later block on a clone of `rng` moved to
/// `base + 4·start`. `fill` stands for the serial loop of Box–Muller draws
/// over a block: any function that consumes [`WORDS_PER_DRAW`] words a
/// value except on a rare rejection.
///
/// After the join, a block whose predecessor did not end where the block
/// assumed it starts — a rejection came before it — is drawn again from
/// where the predecessor really ended, on the calling thread, and so is
/// every block after it. The result depends on neither `parts` nor where
/// the rejections fall; one part spawns nothing.
fn fill_split(
    parts: usize,
    rng: &mut Rng,
    out: &mut [f32],
    fill: impl Fn(&mut Rng, &mut [f32]) + Sync,
) {
    let fill = &fill;
    let len = out.len().div_ceil(parts.max(1));
    if len >= out.len() {
        return fill(rng, out);
    }
    let base = rng.get_word_pos();
    let start = |part: usize| base + WORDS_PER_DRAW * (part * len) as u128;
    let ends: Vec<u128> = std::thread::scope(|scope| {
        let mut blocks = out.chunks_mut(len).enumerate();
        let (_, first) = blocks
            .next()
            .expect("out.len() > len > 0, so there is a block");
        let later: Vec<_> = blocks
            .map(|(part, block)| {
                let mut rng = rng.clone();
                rng.set_word_pos(start(part));
                scope.spawn(move || {
                    fill(&mut rng, block);
                    rng.get_word_pos()
                })
            })
            .collect();
        fill(rng, first);
        let later = later
            .into_iter()
            .map(|h| h.join().expect("a fill part panicked"));
        std::iter::once(rng.get_word_pos()).chain(later).collect()
    });
    let mut pos = ends[0];
    for (part, block) in out.chunks_mut(len).enumerate().skip(1) {
        if pos == start(part) {
            pos = ends[part];
        } else {
            rng.set_word_pos(pos);
            fill(rng, block);
            pos = rng.get_word_pos();
        }
    }
    rng.set_word_pos(pos);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    /// One standard normal draw by the Box–Muller transform, the serial
    /// loop's: the oracle every fill is held to. A `u1` of 0 is drawn again.
    fn sample_standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        loop {
            let u1: f64 = rng.gen::<f64>();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let u2: f64 = rng.gen::<f64>();
            return libm_normal(u1, u2) as f32;
        }
    }

    #[test]
    fn constant_fills() {
        let mut r = rng(0);
        let t = Initializer::Constant { value: 4.0 }.init(&mut r, [5]);
        assert!(t.iter().all(|&x| x == 4.0));
    }

    #[test]
    fn uniform_in_range() {
        let mut r = rng(1);
        let t = Initializer::Uniform {
            low: -0.5,
            high: 0.5,
        }
        .init(&mut r, [1000]);
        assert!(t.iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn normal_moments() {
        let mut r = rng(2);
        let t = Initializer::Normal {
            mean: 1.0,
            std_dev: 2.0,
        }
        .init(&mut r, [20000]);
        assert!((t.mean() - 1.0).abs() < 0.1, "mean {}", t.mean());
        assert!(
            (t.variance().sqrt() - 2.0).abs() < 0.1,
            "std {}",
            t.variance().sqrt()
        );
    }

    #[test]
    fn he_normal_scale() {
        let mut r = rng(3);
        let t = Initializer::HeNormal { fan_in: 50 }.init(&mut r, [20000]);
        let expect = (2.0f32 / 50.0).sqrt();
        assert!((t.variance().sqrt() - expect).abs() < 0.02);
    }

    #[test]
    fn xavier_uniform_bounds() {
        let mut r = rng(4);
        let a = (6.0f32 / 30.0).sqrt();
        let t = Initializer::XavierUniform {
            fan_in: 10,
            fan_out: 20,
        }
        .init(&mut r, [5000]);
        assert!(t.iter().all(|&x| x.abs() < a));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Initializer::Normal {
            mean: 0.0,
            std_dev: 1.0,
        }
        .init(&mut rng(9), [64]);
        let b = Initializer::Normal {
            mean: 0.0,
            std_dev: 1.0,
        }
        .init(&mut rng(9), [64]);
        assert_eq!(a, b);
    }

    /// What a fill leaves behind: the values' bits, the keystream word
    /// `rng` ends at, and the next 100 `u64` draws from it.
    #[derive(Debug, PartialEq)]
    struct Fill {
        bits: Vec<u32>,
        end: u128,
        after: Vec<u64>,
    }

    /// `len` draws from seed 3, one word in (so every draw's `u64`s
    /// straddle a block edge somewhere), one `draw` at a time through
    /// [`fill_parts`].
    fn fill(parts: usize, len: usize, draw: impl Fn(&mut Rng) -> f32 + Sync) -> Fill {
        fill_parts(parts, len, |rng, out| {
            out.iter_mut().for_each(|x| *x = draw(rng))
        })
    }

    /// `len` values from seed 3, one word in, through `fill_split` on
    /// `parts` parts, each filled by `part` — or, with `parts = 0`, by one
    /// `part` over all of them.
    fn fill_parts(parts: usize, len: usize, part: impl Fn(&mut Rng, &mut [f32]) + Sync) -> Fill {
        let mut r = rng(3);
        r.gen::<u32>();
        let mut out = vec![0.0f32; len];
        if parts == 0 {
            part(&mut r, &mut out);
        } else {
            fill_split(parts, &mut r, &mut out, part);
        }
        Fill {
            bits: out.iter().map(|v| v.to_bits()).collect(),
            end: r.get_word_pos(),
            after: (0..100).map(|_| r.gen()).collect(),
        }
    }

    /// A part's fill as `fill_standard_normal` runs it: the kernel's chunks.
    fn bulk(rng: &mut Rng, out: &mut [f32]) {
        fill_normals(rng, out, &|z| z);
    }

    #[test]
    fn every_part_count_draws_the_serial_normals() {
        let len = 257;
        let serial = fill(0, len, sample_standard_normal);
        assert_eq!(fill_parts(0, len, bulk), serial, "unsplit bulk");
        for parts in [1, 2, 3, 4, len + 1] {
            assert_eq!(
                fill(parts, len, sample_standard_normal),
                serial,
                "{parts} parts"
            );
            assert_eq!(fill_parts(parts, len, bulk), serial, "{parts} bulk parts");
        }
        // Above the threshold the public entry splits on a multi-core host.
        let len = 3 * MIN_PART_DRAWS + 7;
        let mut r = rng(4);
        let mut out = vec![0.0f32; len];
        fill_standard_normal(&mut r, &mut out, |z| 0.5 * z);
        let mut s = rng(4);
        let want: Vec<f32> = (0..len)
            .map(|_| 0.5 * sample_standard_normal(&mut s))
            .collect();
        assert_eq!(out, want);
        assert_eq!(r.get_word_pos(), s.get_word_pos());
    }

    /// `rng`, except that the `u64` read at keystream word `at` has its
    /// top 53 bits cleared: a `u1` drawn there is rejected.
    struct Rejecting<'r> {
        rng: &'r mut Rng,
        at: u128,
    }

    impl RngCore for Rejecting<'_> {
        fn next_u32(&mut self) -> u32 {
            self.rng.next_u32()
        }

        fn next_u64(&mut self) -> u64 {
            let rejected = self.rng.get_word_pos() == self.at;
            let w = self.rng.next_u64();
            if rejected {
                w & 0x7ff
            } else {
                w
            }
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.rng.fill_bytes(dest);
        }
    }

    #[test]
    fn a_rejection_before_a_part_redraws_it_from_the_true_position() {
        // A Box–Muller-shaped draw that rejects the `u1` it would read at
        // one keystream word: the draw starting there costs six words, and
        // every draw after it starts two words later than a split assumed.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let len = 103;
        let base = 1; // `fill` starts one word in
        let caller = std::thread::current().id();
        for reject in [0, 1, 25, 26, 51, 63, 64, 77, len - 1] {
            let at = base + WORDS_PER_DRAW * reject as u128;
            let on_caller = AtomicUsize::new(0);
            let draw = |rng: &mut Rng| {
                if std::thread::current().id() == caller {
                    on_caller.fetch_add(1, Ordering::Relaxed);
                }
                loop {
                    let rejected = rng.get_word_pos() == at;
                    let u1: u64 = rng.gen();
                    if rejected {
                        continue;
                    }
                    let u2: u64 = rng.gen();
                    return (u1 ^ u2.rotate_left(17)) as f32;
                }
            };
            let serial = fill(0, len, draw);
            assert_eq!(serial.end, base + WORDS_PER_DRAW * len as u128 + 2);
            // The real draws, the rejection inside a kernel chunk: the
            // chunk reads the next word as that draw's `u1`, as the loop does.
            let normal = |rng: &mut Rng| sample_standard_normal(&mut Rejecting { rng, at });
            let serial_normals = fill(0, len, normal);
            assert_eq!(serial_normals.end, serial.end);
            let bulk = |rng: &mut Rng, out: &mut [f32]| {
                fill_normals(&mut Rejecting { rng, at }, out, &|z| z)
            };
            assert_eq!(
                fill_parts(0, len, bulk),
                serial_normals,
                "reject at {reject}, unsplit bulk"
            );
            for parts in [1, 2, 3, 4, len + 1] {
                on_caller.store(0, Ordering::Relaxed);
                assert_eq!(
                    fill(parts, len, draw),
                    serial,
                    "reject at {reject}, {parts} parts"
                );
                // Four parts of 26: the caller draws part 0, then redraws
                // only the parts after the one the rejection fell in — a
                // rejection inside part 0 (25) and one that is part 1's own
                // first draw (26) shift every part after their own.
                if parts == 4 {
                    let after = len.saturating_sub((reject / 26 + 1) * 26);
                    assert_eq!(
                        on_caller.load(Ordering::Relaxed),
                        26 + after,
                        "reject at {reject}"
                    );
                }
                assert_eq!(
                    fill_parts(parts, len, bulk),
                    serial_normals,
                    "reject at {reject}, {parts} bulk parts"
                );
            }
        }
    }

    #[test]
    fn a_million_kernel_draws_are_the_serial_loops() {
        let len = (1 << 20) + 3;
        assert_eq!(
            fill_parts(0, len, bulk),
            fill(0, len, sample_standard_normal)
        );
    }

    /// A keystream word whose uniform is `v·2⁻⁵³` (`v` below 2⁵³); the
    /// eleven bits the uniform drops are set from `v`.
    fn word(v: u64) -> u64 {
        v << 11 | (v & 0x7ff)
    }

    /// The draws where the kernel is most likely to part from libm, 2²⁰ of
    /// them as `(u1, u2)` keystream words: `u2` within 2⁻³⁰ of ¼, ½ and ¾
    /// (`θ` next to `π/2`, `π` and `3π/2`: `cos` next to its zeros, where
    /// only the reduction's precision keeps its relative error small, and
    /// next to −1); `u1` within 2⁻³⁰ of 1 (`ln u1` next to its zero); and
    /// `u1` at 2⁻⁵³ … 2⁻⁴⁰ (the largest radii). Near each point every
    /// uniform within 2⁻³⁷ of it and every 128th out to 2⁻³⁰; the other
    /// uniform is random.
    fn stress_grid() -> Vec<(u64, u64)> {
        let mut r = rng(11);
        let mut random = move || r.next_u64() | 1 << 11;
        let near = |at: u64| {
            ((at - (1 << 16))..(at + (1 << 16)))
                .chain(((at - (1 << 23))..=(at + (1 << 23))).step_by(1 << 7))
        };
        let mut grid = Vec::new();
        for quarter in 1..=3u64 {
            grid.extend(near(quarter << 51).map(|v2| (random(), word(v2))));
        }
        let below_one = near(1 << 53).filter(|&v1| v1 < 1 << 53);
        grid.extend(below_one.map(|v1| (word(v1), random())));
        for v1 in 1..=1u64 << 13 {
            grid.extend((0..16).map(|_| (word(v1), random())));
        }
        grid
    }

    /// `grid` a chunk at a time through `chunk(u1s, u2s)`.
    fn by_chunk(grid: &[(u64, u64)], mut chunk: impl FnMut(&[u64], &[u64])) {
        for pairs in grid.chunks(CHUNK) {
            let (u1s, u2s): (Vec<u64>, Vec<u64>) = pairs.iter().copied().unzip();
            chunk(&u1s, &u2s);
        }
    }

    #[test]
    fn the_kernel_is_within_2_pow_minus_46_of_libm() {
        let grid = stress_grid();
        let mut worst = 0.0f64;
        by_chunk(&grid, |u1s, u2s| {
            let mut zs = [0.0; CHUNK];
            propose(u1s, u2s, &mut zs);
            for ((&w1, &w2), &z) in u1s.iter().zip(u2s).zip(&zs) {
                let want = libm_normal(uniform(w1), uniform(w2));
                let error = ((z - want) / want).abs();
                assert!(
                    error <= 2f64.powi(-46),
                    "u1 word {w1:#x}, u2 word {w2:#x}: {z:e} against libm's {want:e}"
                );
                worst = worst.max(error);
            }
        });
        eprintln!(
            "{} stress draws: worst relative error 2^{:.1}",
            grid.len(),
            worst.log2()
        );
    }

    #[test]
    fn every_value_is_libms_and_libm_decides_what_the_guard_cannot() {
        let grid = stress_grid();
        let mut decided = 0;
        by_chunk(&grid, |u1s, u2s| {
            let mut out = [0.0f32; CHUNK];
            decided += normals(u1s, u2s, &mut out);
            for ((&w1, &w2), &x) in u1s.iter().zip(u2s).zip(&out) {
                let want = libm_normal(uniform(w1), uniform(w2)) as f32;
                assert_eq!(x.to_bits(), want.to_bits(), "{w1:#x} {w2:#x}");
            }
        });
        // About one lane in 2¹⁵ lies within the guard of an f32 rounding
        // boundary.
        assert!(decided > 0, "libm decided none of {}", grid.len());
        eprintln!("libm decided {decided} of {} stress draws", grid.len());
    }

    #[test]
    fn the_avx2_instantiation_gives_the_baseline_bits() {
        if !crate::gemm::avx2_detected() {
            eprintln!("SKIPPED: this CPU has no AVX2; only the baseline instantiation runs");
            return;
        }
        let grid = stress_grid();
        by_chunk(&grid, |u1s, u2s| {
            let (mut want, mut got) = ([0.0f32; CHUNK], [0.0f32; CHUNK]);
            let n = u1s.len();
            let baseline = normals_body(u1s, u2s, &mut want[..n]);
            assert_eq!(normals(u1s, u2s, &mut got[..n]), baseline);
            assert_eq!(got.map(f32::to_bits), want.map(f32::to_bits));
        });
    }

    #[test]
    fn large_fills_split_and_small_ones_do_not() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Width 1024's block weights and input layer, then width 40's.
        assert_eq!(parts_for(1024 * 1024), cores.min(32));
        assert_eq!(parts_for(192 * 1024), cores.min(6));
        assert_eq!(parts_for(40 * 40), 1);
        assert_eq!(parts_for(0), 1);
    }

    #[test]
    fn standard_normal_mean_zero() {
        let mut r = rng(5);
        let n = 20000;
        let mean: f32 = (0..n).map(|_| sample_standard_normal(&mut r)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }
}
