//! The adaptive compression policy for 3LC.
//!
//! 3LC exposes exactly one compression knob — the sparsity multiplier
//! `s ∈ [1, 2)` — and the right setting varies per layer and per
//! training phase (ACCORDION-style norm triggers, GraVAC's
//! compression-factor search). This crate turns that compile-time
//! constant into a control loop: a [`Feedback`] controller decides the
//! multiplier **per tensor per step**, fed only by each tensor's achieved
//! wire bytes — a deterministic function of the training stream, never
//! wall-clock time.
//!
//! # Determinism contract
//!
//! Every decision is a pure function of `(spec, prior telemetry)`. The
//! distributed runtime relies on this three ways:
//!
//! 1. the in-process simulator and the TCP runtime evaluate the policy
//!    in the same place (the shared `ServerCore`) on the same inputs,
//!    so both produce bit-identical multiplier sequences;
//! 2. workers never evaluate the policy — the server broadcasts its
//!    decisions with each pull batch, so replicas cannot drift;
//! 3. rejoin replay re-delivers the recorded pull batches, which
//!    reconstructs the exact decision sequence for a resumed worker.
//!
//! [`TensorObs`] is therefore restricted to integer byte counts; encode
//! *time* is deliberately absent.
//!
//! # Spec strings
//!
//! A policy is configured from a compact spec string (the CLI's
//! `--policy` flag):
//!
//! ```text
//! static                                     keep the scheme's multiplier
//! feedback:ratio=12,start=1.2[,gain=0.05][,band=0.1][,hold=2]
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;
use threelc::SparsityMultiplier;

/// The largest multiplier a policy may emit: the greatest `f32` strictly
/// below 2.0, so clamped decisions still satisfy `s ∈ [1, 2)`.
pub const MAX_SPARSITY: f32 = 1.999_999_9;

/// Why the controller chose the multiplier it did, recorded per tensor
/// per step so a run's control behaviour can be audited from its report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Reason {
    /// The first decision of the run, before any telemetry exists.
    Init,
    /// Waiting out the hold window after a nudge.
    Hold,
    /// Achieved compression ratio below the target band: raise `s`.
    RatioLow,
    /// Achieved compression ratio above the target band: lower `s`.
    RatioHigh,
    /// The achieved ratio sits inside the target band; no change.
    InBand,
}

impl Reason {
    /// Stable single-byte code for the wire protocol. Codes 0, 2, 6 and 7
    /// belonged to retired policies and no longer decode.
    pub fn code(self) -> u8 {
        match self {
            Reason::Init => 1,
            Reason::Hold => 3,
            Reason::RatioLow => 4,
            Reason::RatioHigh => 5,
            Reason::InBand => 8,
        }
    }

    /// Inverse of [`Reason::code`].
    pub fn from_code(code: u8) -> Option<Reason> {
        Some(match code {
            1 => Reason::Init,
            3 => Reason::Hold,
            4 => Reason::RatioLow,
            5 => Reason::RatioHigh,
            8 => Reason::InBand,
            _ => return None,
        })
    }

    /// Short lowercase name for logs and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Reason::Init => "init",
            Reason::Hold => "hold",
            Reason::RatioLow => "ratio-low",
            Reason::RatioHigh => "ratio-high",
            Reason::InBand => "in-band",
        }
    }
}

impl fmt::Display for Reason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One tensor's multiplier for one step, plus why it was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The multiplier to encode with. Always validated: the type cannot
    /// hold a NaN or out-of-range value.
    pub s: SparsityMultiplier,
    /// The trigger that produced it.
    pub reason: Reason,
}

/// Per-tensor telemetry from the previous step, the only inputs the
/// controller may consult. Every field is bit-reproducible between the
/// simulator and the networked runtime.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TensorObs {
    /// Elements in the tensor.
    pub values: usize,
    /// Wire bytes this tensor cost last step, summed over workers.
    pub wire_bytes: usize,
    /// How many worker payloads `wire_bytes` spans.
    pub payloads: usize,
}

impl TensorObs {
    /// Achieved compression ratio versus raw f32 (4 bytes/value);
    /// 0.0 until the tensor has been observed on the wire.
    pub fn achieved_ratio(&self) -> f64 {
        if self.wire_bytes == 0 {
            0.0
        } else {
            (self.values * self.payloads * 4) as f64 / self.wire_bytes as f64
        }
    }

    /// Fraction of the quartic stream the zero-run encoder removed,
    /// derived from byte counts (quartic packs five values per byte and
    /// each payload spends [`threelc::sizing::WIRE_HEADER_LEN`] bytes
    /// on its header). 0.0 when nothing was saved or nothing observed.
    pub fn zero_run_share(&self) -> f64 {
        if self.payloads == 0 {
            return 0.0;
        }
        let quartic = self.values.div_ceil(5) * self.payloads;
        let body = self
            .wire_bytes
            .saturating_sub(threelc::sizing::WIRE_HEADER_LEN * self.payloads);
        if quartic == 0 || body >= quartic {
            0.0
        } else {
            (quartic - body) as f64 / quartic as f64
        }
    }
}

/// Spec-string form of a policy: `Copy`, so it embeds directly in
/// `ExperimentConfig` and travels to workers with the config JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// No adaptation: compressors keep their configured multiplier and
    /// nothing extra goes on the wire. The default.
    #[default]
    Static,
    /// Bounded controller nudging each tensor's `s` until its achieved
    /// compression ratio sits in a band around `ratio`, with hysteresis
    /// (a hold window after every nudge) and clamping.
    Feedback {
        /// Target compression ratio versus raw f32: a ratio below the
        /// band raises `s`, above it lowers `s`.
        ratio: f32,
        /// Initial multiplier for every tensor.
        start: f32,
        /// Step size of one nudge.
        gain: f32,
        /// Half-width of the dead band, as a fraction of the target.
        band: f32,
        /// Steps to hold after a nudge before reconsidering.
        hold: u64,
    },
}

/// A policy spec that failed to parse or validate.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyError(String);

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid policy: {}", self.0)
    }
}

impl std::error::Error for PolicyError {}

impl PolicySpec {
    /// Validates every numeric field, returning a typed error naming
    /// the offending one. Parsing calls this; configs deserialized from
    /// JSON (the worker handshake) must call it too.
    pub fn validate(&self) -> Result<(), PolicyError> {
        let PolicySpec::Feedback {
            ratio,
            start,
            gain,
            band,
            hold: _,
        } = *self
        else {
            return Ok(());
        };
        SparsityMultiplier::new(start).map_err(|e| PolicyError(format!("start: {e}")))?;
        if !ratio.is_finite() || ratio <= 0.0 {
            return Err(PolicyError(format!("ratio {ratio} must be finite and > 0")));
        }
        if !gain.is_finite() || gain <= 0.0 || gain >= 1.0 {
            return Err(PolicyError(format!("gain {gain} must be in (0, 1)")));
        }
        if !band.is_finite() || !(0.0..1.0).contains(&band) {
            return Err(PolicyError(format!("band {band} must be in [0, 1)")));
        }
        Ok(())
    }

    /// Parses a spec string (see the crate docs for the grammar).
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] naming the malformed part; every numeric
    /// field is range-checked via [`PolicySpec::validate`].
    pub fn parse(spec: &str) -> Result<PolicySpec, PolicyError> {
        let spec = spec.trim();
        let parsed = match spec.split_once(':') {
            None if spec == "static" => PolicySpec::Static,
            Some(("feedback", body)) => {
                let kv = parse_kv(body)?;
                let known = ["ratio", "start", "gain", "band", "hold"];
                if let Some((key, _)) = kv.iter().find(|(k, _)| !known.contains(&k.as_str())) {
                    return Err(PolicyError(format!(
                        "feedback has no {key}= (want ratio=, start=, gain=, band=, hold=)"
                    )));
                }
                PolicySpec::Feedback {
                    ratio: require(&kv, "ratio")?,
                    start: require(&kv, "start")?,
                    gain: optional(&kv, "gain", 0.05),
                    band: optional(&kv, "band", 0.1),
                    hold: optional(&kv, "hold", 2.0) as u64,
                }
            }
            _ => {
                return Err(PolicyError(format!(
                    "unknown spec `{spec}` (want static or feedback:ratio=R,start=S[,...])"
                )))
            }
        };
        parsed.validate()?;
        Ok(parsed)
    }

    /// Compact label for reports and logs; parseable back by
    /// [`PolicySpec::parse`].
    pub fn label(&self) -> String {
        match *self {
            PolicySpec::Static => "static".into(),
            PolicySpec::Feedback {
                ratio,
                start,
                gain,
                band,
                hold,
            } => {
                format!("feedback:ratio={ratio},start={start},gain={gain},band={band},hold={hold}")
            }
        }
    }

    /// The controller this spec runs over `n_tensors` tensors; `None` for
    /// `Static`, which runs none: a static run emits no wire frames and
    /// leaves every compressor's configured multiplier untouched, so it is
    /// bit-identical to one from before policies existed.
    pub fn controller(&self, n_tensors: usize) -> Option<Feedback> {
        match *self {
            PolicySpec::Static => None,
            PolicySpec::Feedback {
                ratio,
                start,
                gain,
                band,
                hold,
            } => Some(Feedback {
                ratio,
                gain,
                band,
                hold,
                state: vec![(start, 0u64); n_tensors],
            }),
        }
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

fn parse_num(name: &str, v: &str) -> Result<f32, PolicyError> {
    let n: f32 = v
        .parse()
        .map_err(|_| PolicyError(format!("{name}: `{v}` is not a number")))?;
    if !n.is_finite() {
        return Err(PolicyError(format!("{name}: `{v}` is not finite")));
    }
    Ok(n)
}

fn parse_kv(body: &str) -> Result<Vec<(String, f32)>, PolicyError> {
    let mut out = Vec::new();
    for part in body.split(',') {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| PolicyError(format!("`{part}` is not key=value")))?;
        out.push((k.trim().to_string(), parse_num(k.trim(), v.trim())?));
    }
    Ok(out)
}

fn get(kv: &[(String, f32)], key: &str) -> Option<f32> {
    kv.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

fn require(kv: &[(String, f32)], key: &str) -> Result<f32, PolicyError> {
    get(kv, key).ok_or_else(|| PolicyError(format!("missing {key}=")))
}

fn optional(kv: &[(String, f32)], key: &str, default: f32) -> f32 {
    get(kv, key).unwrap_or(default)
}

/// Clamps a proposed multiplier into the valid `[1, 2)` range. The
/// result always converts into a [`SparsityMultiplier`].
fn clamp_s(v: f32) -> SparsityMultiplier {
    let c = if v.is_finite() {
        v.clamp(1.0, MAX_SPARSITY)
    } else {
        1.0
    };
    SparsityMultiplier::new(c).expect("clamped multiplier is in range")
}

/// The bounded per-tensor controller of [`PolicySpec::Feedback`].
/// Deterministic: the same observation sequence yields the same
/// decisions on every host, and only the server runs it (workers receive
/// its decisions over the wire).
#[derive(Debug, Clone)]
pub struct Feedback {
    ratio: f32,
    gain: f32,
    band: f32,
    hold: u64,
    /// Per-tensor `(current s, hold steps remaining)`.
    state: Vec<(f32, u64)>,
}

impl Feedback {
    /// The decisions in effect at step 0, before any telemetry exists: a
    /// pure function of the spec, so a worker derives the same initial
    /// multipliers as the server without any wire traffic.
    pub fn initial_decisions(&self) -> Vec<Decision> {
        self.state
            .iter()
            .map(|&(s, _)| Decision {
                s: clamp_s(s),
                reason: Reason::Init,
            })
            .collect()
    }

    /// Decides every tensor's multiplier for the next step from this
    /// step's telemetry, one [`TensorObs`] per tensor. A ratio below the
    /// band means the encoder can push harder (raise `s`), above it means
    /// back off.
    pub fn decide(&mut self, obs: &[TensorObs]) -> Vec<Decision> {
        let target = f64::from(self.ratio);
        let lo = target * (1.0 - f64::from(self.band));
        let hi = target * (1.0 + f64::from(self.band));
        self.state
            .iter_mut()
            .zip(obs)
            .map(|(state, o)| {
                let (ref mut s, ref mut hold_left) = *state;
                let reason = if *hold_left > 0 {
                    *hold_left -= 1;
                    Reason::Hold
                } else {
                    let ratio = o.achieved_ratio();
                    if ratio < lo {
                        *s += self.gain;
                        *hold_left = self.hold;
                        Reason::RatioLow
                    } else if ratio > hi {
                        *s -= self.gain;
                        *hold_left = self.hold;
                        Reason::RatioHigh
                    } else {
                        Reason::InBand
                    }
                };
                let clamped = clamp_s(*s);
                *s = clamped.value();
                Decision { s: clamped, reason }
            })
            .collect()
    }
}

/// One recorded policy decision: what was in effect for `tensor` at
/// `step`, why, and what it achieved. The `policy` section of a
/// training trace is a flat list of these.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyRecord {
    /// Step the decision governed.
    pub step: u64,
    /// Tensor (parameter) index.
    pub tensor: u16,
    /// Multiplier in effect.
    pub s: f32,
    /// Trigger that chose it.
    pub reason: Reason,
    /// Compression ratio the tensor achieved at that step.
    pub achieved_ratio: f64,
}

/// The policy section of a training trace: which policy ran and every
/// per-step per-tensor decision it made. Empty (default) for static
/// runs and for reports written before policies existed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PolicyTrace {
    /// The spec label (e.g. `feedback:ratio=12,...`); empty if static.
    #[serde(default)]
    pub label: String,
    /// Flat decision log, step-major then tensor order.
    #[serde(default)]
    pub records: Vec<PolicyRecord>,
}

impl PolicyTrace {
    /// Whether the recorded multiplier sequence ever changes — the
    /// "did the policy actually adapt" check CI asserts on.
    pub fn is_constant(&self) -> bool {
        self.records
            .windows(2)
            .all(|w| w[0].s.to_bits() == w[1].s.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(values: usize, wire_bytes: usize) -> TensorObs {
        TensorObs {
            values,
            wire_bytes,
            payloads: 1,
        }
    }

    fn feedback(ratio: f32, start: f32, gain: f32, band: f32, hold: u64) -> PolicySpec {
        PolicySpec::Feedback {
            ratio,
            start,
            gain,
            band,
            hold,
        }
    }

    #[test]
    fn spec_parsing_roundtrips_through_labels() {
        for spec in [
            "static",
            "feedback:ratio=12,start=1.2",
            "feedback:ratio=10000,start=1.2,gain=0.05,hold=1",
            "feedback:ratio=0.5,start=1.8,gain=0.1,band=0.2,hold=3",
        ] {
            let parsed = PolicySpec::parse(spec).expect(spec);
            let relabeled = PolicySpec::parse(&parsed.label()).expect("label parses");
            assert_eq!(parsed, relabeled, "{spec}");
        }
        assert_eq!(
            PolicySpec::parse("feedback:ratio=12,start=1.2").unwrap(),
            feedback(12.0, 1.2, 0.05, 0.1, 2)
        );
        assert_eq!(
            feedback(12.0, 1.2, 0.05, 0.1, 2).label(),
            "feedback:ratio=12,start=1.2,gain=0.05,band=0.1,hold=2"
        );
    }

    #[test]
    fn spec_parsing_rejects_malformed_and_out_of_range() {
        for bad in [
            "",
            "nonsense",
            "static:1.5",                             // retired fixed override
            "fixed:1.5",                              // retired fixed override
            "schedule:from=1.0,to=1.9,over=3",        // retired ramp
            "feedback:residual=0.5,start=1.8",        // retired residual target
            "feedback:ratio=12,residual=1,start=1.2", // no residual= key
            "@policy.json",                           // retired file form
            "feedback:start=1.2",                     // no target
            "feedback:ratio=12",                      // no start
            "feedback:ratio=12,start=2.5",            // start out of range
            "feedback:ratio=-1,start=1.2",            // non-positive target
            "feedback:ratio=12,start=1.2,gain=0",     // zero gain
            "feedback:ratio=12,start=1.2,band=1.5",   // band out of range
            "feedback:ratio=12,start=1.2,bogus",      // not key=value
            "feedback:ratio=12,start=1.2,gian=0.1",   // misspelt key
        ] {
            assert!(PolicySpec::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn spec_serde_roundtrip_inside_json() {
        for spec in [PolicySpec::Static, feedback(12.0, 1.2, 0.05, 0.1, 2)] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: PolicySpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "{json}");
        }
    }

    #[test]
    fn static_policy_repeats_the_base_multiplier() {
        // Static runs no controller and issues no decisions, so every
        // compressor keeps the multiplier its scheme was built with.
        assert!(PolicySpec::Static.controller(3).is_none());
        assert!(feedback(12.0, 1.2, 0.05, 0.1, 2).controller(3).is_some());
    }

    #[test]
    fn feedback_ratio_controller_nudges_toward_target_with_hysteresis() {
        let spec = feedback(10.0, 1.2, 0.1, 0.1, 1);
        let mut p = spec.controller(1).unwrap();
        let init = p.initial_decisions();
        assert_eq!(init[0].reason, Reason::Init);
        assert!((init[0].s.value() - 1.2).abs() < 1e-6);
        // Ratio 4x < 9x band floor: raise s, then hold one step.
        let d = p.decide(&[obs(100, 100)]);
        assert_eq!(d[0].reason, Reason::RatioLow);
        assert!((d[0].s.value() - 1.3).abs() < 1e-6);
        let d = p.decide(&[obs(100, 100)]);
        assert_eq!(d[0].reason, Reason::Hold);
        assert!((d[0].s.value() - 1.3).abs() < 1e-6);
        // Ratio 20x > 11x band ceiling: lower s.
        let d = p.decide(&[obs(100, 20)]);
        assert_eq!(d[0].reason, Reason::RatioHigh);
        assert!((d[0].s.value() - 1.2).abs() < 1e-6);
        // In band: no change, no hold.
        let mut p2 = spec.controller(1).unwrap();
        let d = p2.decide(&[obs(100, 40)]);
        assert_eq!(d[0].reason, Reason::InBand);
    }

    #[test]
    fn feedback_clamps_at_both_rails() {
        let mut p = feedback(1000.0, 1.9, 0.5, 0.0, 0).controller(1).unwrap();
        for step in 1..5 {
            let d = p.decide(&[obs(100, 100)]);
            assert!(d[0].s.value() < 2.0, "step {step} escaped the clamp");
        }
        let mut p = feedback(0.001, 1.1, 0.5, 0.0, 0).controller(1).unwrap();
        for step in 1..5 {
            let d = p.decide(&[obs(100, 100)]);
            assert!(d[0].s.value() >= 1.0, "step {step} escaped the clamp");
        }
    }

    #[test]
    fn decisions_are_a_pure_function_of_the_input_sequence() {
        let spec = feedback(8.0, 1.3, 0.07, 0.05, 2);
        let stream: Vec<Vec<TensorObs>> = (0..20)
            .map(|i| vec![obs(256, 40 + (i * 13) % 90); 3])
            .collect();
        let run = |spec: &PolicySpec| {
            let mut p = spec.controller(3).unwrap();
            let mut all = vec![p.initial_decisions()];
            for o in &stream {
                all.push(p.decide(o));
            }
            all
        };
        assert_eq!(run(&spec), run(&spec), "replayed decisions diverged");
    }

    #[test]
    fn reasons_roundtrip_through_wire_codes() {
        let live = [1, 3, 4, 5, 8];
        for code in 0..=255u8 {
            match Reason::from_code(code) {
                Some(r) => {
                    assert!(live.contains(&code), "{code}");
                    assert_eq!(r.code(), code);
                    assert!(!r.as_str().is_empty());
                }
                // The retired policies' codes (0, 2, 6, 7) decode to nothing.
                None => assert!(!live.contains(&code), "{code}"),
            }
        }
        let json = serde_json::to_string(&Reason::RatioLow).unwrap();
        let back: Reason = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Reason::RatioLow);
    }

    #[test]
    fn tensor_obs_derives_ratio_and_zero_run_share() {
        let o = obs(1000, 50);
        assert!((o.achieved_ratio() - 80.0).abs() < 1e-9);
        assert_eq!(obs(1000, 0).achieved_ratio(), 0.0);
        // 1000 values → 200 quartic bytes; 50 wire bytes minus the
        // 9-byte header leaves 41 body bytes → 159/200 removed.
        assert!((o.zero_run_share() - 159.0 / 200.0).abs() < 1e-9);
        assert_eq!(TensorObs::default().zero_run_share(), 0.0);
    }

    #[test]
    fn policy_trace_detects_constant_sequences() {
        let mut t = PolicyTrace::default();
        assert!(t.is_constant());
        t.records.push(PolicyRecord {
            step: 0,
            tensor: 0,
            s: 1.2,
            reason: Reason::Init,
            achieved_ratio: 0.0,
        });
        t.records.push(PolicyRecord {
            step: 1,
            tensor: 0,
            s: 1.2,
            reason: Reason::Hold,
            achieved_ratio: 10.0,
        });
        assert!(t.is_constant());
        t.records.push(PolicyRecord {
            step: 2,
            tensor: 0,
            s: 1.3,
            reason: Reason::RatioLow,
            achieved_ratio: 5.0,
        });
        assert!(!t.is_constant());
        let json = serde_json::to_string(&t).unwrap();
        let back: PolicyTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
