//! Random tensor initializers.

use crate::{Rng, Shape, Tensor};
use rand::Rng as _;

/// Keystream words one Box–Muller draw consumes when its `u1` is accepted:
/// two `f64` uniforms, one `next_u64` (two words) each. A rejected `u1`
/// costs two more, with odds of 2⁻⁵³ a draw.
const WORDS_PER_DRAW: u128 = 4;

/// The fewest draws a part of a split fill is worth a thread for. A draw
/// costs about 45 ns (four keystream words, a `ln`, a `sqrt` and a `cos`)
/// and a scoped spawn tens of microseconds, so a thread is handed at least
/// 1.5 ms of work. The width-1024 model's 196 Ki-value input layer and
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

/// Samples a standard normal variate via the Box–Muller transform.
///
/// We avoid `rand_distr` to keep the dependency set to the pre-approved
/// crates; Box–Muller is exact and adequate for initialization and synthetic
/// data generation.
fn sample_standard_normal(rng: &mut Rng) -> f32 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        return (r * theta.cos()) as f32;
    }
}

/// Sets `out[i] = f(zᵢ)` for consecutive standard normal draws `zᵢ` from
/// `rng`: the values of
/// `for x in out { *x = f(sample_standard_normal(rng)) }`, bit for bit, with
/// `rng` left at the same keystream word that loop leaves it at.
///
/// The fill is split over the host's cores, at least 2¹⁵ draws a part,
/// with no knob and the same bits at every split. ChaCha8 is a
/// counter-mode cipher, so any keystream word can be computed without the
/// ones before it, and an accepted draw consumes exactly four words: draw
/// `i` starts at word `base + 4·i` unless a draw before it rejected its
/// `u1` (odds 2⁻⁵³ a draw; a rejection is repaired, not assumed away).
/// Each part draws from a clone of `rng` moved to where its first draw
/// starts.
pub fn fill_standard_normal(rng: &mut Rng, out: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    fill_split(parts_for(out.len()), rng, out, |rng| {
        f(sample_standard_normal(rng))
    });
}

/// [`fill_standard_normal`] over `parts` contiguous blocks of `out`, one
/// scoped thread per block, the first block on the calling thread and on
/// `rng` itself, each later block on a clone of `rng` moved to
/// `base + 4·start`. `draw` stands for one Box–Muller draw: any function
/// that consumes [`WORDS_PER_DRAW`] words except on a rare rejection.
///
/// After the join, a block whose predecessor did not end where the block
/// assumed it starts — a rejection came before it — is drawn again from
/// where the predecessor really ended, on the calling thread, and so is
/// every block after it. The result depends on neither `parts` nor where
/// the rejections fall; one part spawns nothing.
fn fill_split(parts: usize, rng: &mut Rng, out: &mut [f32], draw: impl Fn(&mut Rng) -> f32 + Sync) {
    let fill = |rng: &mut Rng, out: &mut [f32]| out.iter_mut().for_each(|x| *x = draw(rng));
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
    /// straddle a block edge somewhere), through `fill_split` on `parts`
    /// parts — or, with `parts = 0`, through the plain serial loop.
    fn fill(parts: usize, len: usize, draw: impl Fn(&mut Rng) -> f32 + Sync) -> Fill {
        let mut r = rng(3);
        r.gen::<u32>();
        let mut out = vec![0.0f32; len];
        if parts == 0 {
            out.iter_mut().for_each(|x| *x = draw(&mut r));
        } else {
            fill_split(parts, &mut r, &mut out, draw);
        }
        Fill {
            bits: out.iter().map(|v| v.to_bits()).collect(),
            end: r.get_word_pos(),
            after: (0..100).map(|_| r.gen()).collect(),
        }
    }

    #[test]
    fn every_part_count_draws_the_serial_normals() {
        let len = 257;
        let serial = fill(0, len, sample_standard_normal);
        for parts in [1, 2, 3, 4, len + 1] {
            assert_eq!(
                fill(parts, len, sample_standard_normal),
                serial,
                "{parts} parts"
            );
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

    #[test]
    fn a_rejection_before_a_part_redraws_it_from_the_true_position() {
        // A Box–Muller-shaped draw that rejects the `u1` it would read at
        // one keystream word: the draw starting there costs six words, and
        // every draw after it starts two words later than a split assumed.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let len = 103;
        let base = 1; // `fill` starts one word in
        let caller = std::thread::current().id();
        for reject in [0, 1, 25, 26, 51, 77, len - 1] {
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
            }
        }
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
