//! Deterministic fault injection for the networked runtime.
//!
//! A [`FaultPlan`] names one transport fault and the step it fires at; a
//! [`FaultInjector`] arms the plan inside a worker's BSP loop and fires it
//! exactly once, surviving the reconnect-and-resume cycle the fault
//! triggers (so a rejoined worker does not re-injure itself while
//! replaying the very step that killed it).
//!
//! Everything here is deterministic: a plan is pure data, the injector
//! holds no clock or entropy source, and the one randomized choice (which
//! payload byte a [`FaultKind::CorruptCrc`] flips) comes from the plan's
//! own seed via a fixed mixing function. Two runs with the same
//! configuration and the same plan inject byte-identical faults at the
//! same points, which is what lets the integration tests assert that a
//! faulted run converges to the *exact* final model of an undisturbed one.
//!
//! Plans parse from compact spec strings (the `--inject-fault` flag and
//! the `THREELC_FAULT` environment variable):
//!
//! | spec                 | effect                                          |
//! |----------------------|-------------------------------------------------|
//! | `disconnect@N`       | drop the connection at the start of step N      |
//! | `drop-after-push@N`  | drop it between step N's push and pull          |
//! | `kill@N`             | exit the process (code [`KILL_EXIT_CODE`]) between push and pull |
//! | `crc@N` / `crc@N:S`  | corrupt one byte of step N's push frame (seed S) |
//! | `delay@N:MS`         | sleep MS milliseconds before step N's push      |

use std::time::Duration;

/// Exit code a worker process uses for an injected [`FaultKind::Kill`],
/// so a supervisor (or `chaos_e2e.rs`) can tell an injected kill from a
/// real failure and launch the same worker command again to resume.
pub const KILL_EXIT_CODE: i32 = 43;

/// Environment variable consulted for a fault spec when no `--inject-fault`
/// flag is given.
pub const FAULT_ENV: &str = "THREELC_FAULT";

/// The transport faults the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Close the connection at the start of the step, before pushing.
    Disconnect,
    /// Close the connection after the push frame is flushed, before
    /// reading the pull — the in-process stand-in for a worker killed
    /// between push and pull.
    DropAfterPush,
    /// Exit the whole process (code [`KILL_EXIT_CODE`]) after the push
    /// frame is flushed. Only meaningful for real worker processes; in-process
    /// tests use [`FaultKind::DropAfterPush`] instead.
    Kill,
    /// Flip one payload byte of the step's push frame, breaking its CRC.
    /// The server rejects the frame and drops the connection, which the
    /// worker survives by rejoining.
    CorruptCrc,
    /// Sleep before pushing (an I/O delay, not a failure).
    Delay,
}

/// One planned fault: what, when, and the deterministic knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The fault to inject.
    pub kind: FaultKind,
    /// The BSP step it fires at.
    pub step: u64,
    /// Sleep length for [`FaultKind::Delay`]; zero otherwise.
    pub delay_ms: u64,
    /// Seed for the corrupted-byte choice of [`FaultKind::CorruptCrc`];
    /// zero otherwise.
    pub seed: u64,
}

impl FaultPlan {
    /// Parses a spec string (see the module table).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown kinds, missing `@`,
    /// or unparsable numbers.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let (kind, rest) = spec
            .split_once('@')
            .ok_or_else(|| format!("fault spec `{spec}` has no `@step` (e.g. disconnect@3)"))?;
        let (step_str, arg) = match rest.split_once(':') {
            Some((s, a)) => (s, Some(a)),
            None => (rest, None),
        };
        let step: u64 = step_str
            .parse()
            .map_err(|_| format!("fault spec `{spec}`: bad step `{step_str}`"))?;
        let arg_num = |what: &str| -> Result<u64, String> {
            arg.ok_or_else(|| format!("fault spec `{spec}` needs `:{what}`"))?
                .parse()
                .map_err(|_| format!("fault spec `{spec}`: bad {what}"))
        };
        let (kind, delay_ms, seed) = match (kind, arg) {
            ("crc", _) => {
                let seed = arg.map(|_| arg_num("seed")).transpose()?;
                (FaultKind::CorruptCrc, 0, seed.unwrap_or(0))
            }
            ("delay", _) => (FaultKind::Delay, arg_num("ms")?, 0),
            ("disconnect" | "drop-after-push" | "kill", Some(extra)) => {
                return Err(format!("fault spec `{spec}`: `{kind}` takes no `:{extra}`"));
            }
            ("disconnect", None) => (FaultKind::Disconnect, 0, 0),
            ("drop-after-push", None) => (FaultKind::DropAfterPush, 0, 0),
            ("kill", None) => (FaultKind::Kill, 0, 0),
            (other, _) => {
                return Err(format!(
                    "unknown fault kind `{other}` \
                     (expected disconnect|drop-after-push|kill|crc|delay)"
                ));
            }
        };
        Ok(FaultPlan {
            kind,
            step,
            delay_ms,
            seed,
        })
    }

    /// Reads a plan from [`FAULT_ENV`], if set.
    ///
    /// # Errors
    ///
    /// Returns the parse error for a set-but-malformed value (a silently
    /// ignored fault spec would defeat the point of chaos testing).
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var(FAULT_ENV) {
            Ok(spec) if !spec.is_empty() => FaultPlan::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }
}

/// What the worker loop must do at an injection point.
#[derive(Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Sleep this long, then continue normally.
    Delay(Duration),
    /// Abandon the connection (as if the network dropped it) and rejoin.
    Disconnect,
    /// Exit the process with [`KILL_EXIT_CODE`].
    Kill,
}

/// Arms a [`FaultPlan`] and fires it exactly once.
///
/// The injector outlives individual connection sessions: the worker's
/// reconnect-and-resume loop keeps one injector across all its sessions,
/// so a fault that already fired stays fired during replay.
#[derive(Debug)]
pub struct FaultInjector {
    plan: Option<FaultPlan>,
    fired: bool,
}

impl FaultInjector {
    /// Arms `plan` (or nothing).
    pub fn new(plan: Option<FaultPlan>) -> Self {
        FaultInjector { plan, fired: false }
    }

    fn due(&self, step: u64, kind: FaultKind) -> bool {
        !self.fired
            && self
                .plan
                .as_ref()
                .is_some_and(|p| p.kind == kind && p.step == step)
    }

    /// Injection point at the start of a step, before any push bytes are
    /// written.
    pub fn before_push(&mut self, step: u64) -> Option<FaultAction> {
        if self.due(step, FaultKind::Disconnect) {
            self.fired = true;
            return Some(FaultAction::Disconnect);
        }
        if self.due(step, FaultKind::Delay) {
            self.fired = true;
            let ms = self.plan.as_ref().expect("due implies a plan").delay_ms;
            return Some(FaultAction::Delay(Duration::from_millis(ms)));
        }
        None
    }

    /// Injection point after the step's one push frame (`PushDone`) is
    /// flushed, before the pull is read.
    pub fn after_push(&mut self, step: u64) -> Option<FaultAction> {
        if self.due(step, FaultKind::DropAfterPush) {
            self.fired = true;
            return Some(FaultAction::Disconnect);
        }
        if self.due(step, FaultKind::Kill) {
            self.fired = true;
            return Some(FaultAction::Kill);
        }
        None
    }

    /// Whether a CRC corruption is due at `step` — a cheap pre-check so
    /// the push path only re-encodes a frame when it will be corrupted.
    pub fn crc_due(&self, step: u64) -> bool {
        self.due(step, FaultKind::CorruptCrc)
    }

    /// If a CRC corruption is due at `step`, flips one deterministically
    /// chosen byte of `frame_bytes`'s payload region (everything past
    /// `header_len`) and reports true.
    pub fn corrupt_push(&mut self, step: u64, frame_bytes: &mut [u8], header_len: usize) -> bool {
        if !self.due(step, FaultKind::CorruptCrc) {
            return false;
        }
        self.fired = true;
        let body = frame_bytes.len().saturating_sub(header_len);
        if body == 0 {
            // Nothing past the header to flip; corrupt the checksum field
            // itself (the last header bytes) instead.
            if let Some(last) = frame_bytes.last_mut() {
                *last ^= 0xFF;
            }
            return true;
        }
        let seed = self.plan.as_ref().expect("due implies a plan").seed;
        // SplitMix64-style mixing: a fixed, seeded choice with no runtime
        // entropy, so every run flips the same byte.
        let mut x = seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(step)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 31;
        let idx = header_len + (x as usize % body);
        frame_bytes[idx] ^= 0xFF;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse() {
        assert_eq!(
            FaultPlan::parse("disconnect@3").unwrap(),
            FaultPlan {
                kind: FaultKind::Disconnect,
                step: 3,
                delay_ms: 0,
                seed: 0
            }
        );
        assert_eq!(
            FaultPlan::parse("drop-after-push@5").unwrap().kind,
            FaultKind::DropAfterPush
        );
        assert_eq!(FaultPlan::parse("kill@0").unwrap().kind, FaultKind::Kill);
        let crc = FaultPlan::parse("crc@4:9").unwrap();
        assert_eq!(crc.kind, FaultKind::CorruptCrc);
        assert_eq!(crc.step, 4);
        assert_eq!(crc.seed, 9);
        assert_eq!(FaultPlan::parse("crc@4").unwrap().seed, 0);
        let delay = FaultPlan::parse("delay@2:250").unwrap();
        assert_eq!(delay.kind, FaultKind::Delay);
        assert_eq!(delay.delay_ms, 250);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(FaultPlan::parse("disconnect").is_err());
        assert!(FaultPlan::parse("explode@3").is_err());
        assert!(FaultPlan::parse("disconnect@x").is_err());
        assert!(FaultPlan::parse("delay@2").is_err());
        assert!(FaultPlan::parse("delay@2:fast").is_err());
        assert!(FaultPlan::parse("disconnect@2:junk").is_err());
        assert!(FaultPlan::parse("kill@1:9").is_err());
    }

    #[test]
    fn injector_fires_exactly_once_at_its_step() {
        let mut inj = FaultInjector::new(Some(FaultPlan::parse("disconnect@2").unwrap()));
        assert_eq!(inj.before_push(0), None);
        assert_eq!(inj.before_push(1), None);
        assert_eq!(inj.before_push(2), Some(FaultAction::Disconnect));
        assert!(inj.fired);
        // Replaying the same step after a rejoin must not re-fire.
        assert_eq!(inj.before_push(2), None);
        assert_eq!(inj.after_push(2), None);
    }

    #[test]
    fn kill_and_drop_fire_after_push() {
        let mut inj = FaultInjector::new(Some(FaultPlan::parse("kill@1").unwrap()));
        assert_eq!(inj.before_push(1), None);
        assert_eq!(inj.after_push(1), Some(FaultAction::Kill));
        let mut inj = FaultInjector::new(Some(FaultPlan::parse("drop-after-push@1").unwrap()));
        assert_eq!(inj.after_push(1), Some(FaultAction::Disconnect));
    }

    #[test]
    fn delay_returns_the_configured_duration() {
        let mut inj = FaultInjector::new(Some(FaultPlan::parse("delay@0:40").unwrap()));
        assert_eq!(
            inj.before_push(0),
            Some(FaultAction::Delay(Duration::from_millis(40)))
        );
    }

    #[test]
    fn crc_corruption_is_deterministic_and_payload_only() {
        let frame: Vec<u8> = (0u8..64).collect();
        let corrupt = |seed: u64| {
            let mut inj = FaultInjector::new(Some(FaultPlan {
                kind: FaultKind::CorruptCrc,
                step: 3,
                delay_ms: 0,
                seed,
            }));
            let mut bytes = frame.clone();
            assert!(inj.corrupt_push(3, &mut bytes, 24));
            assert!(!inj.corrupt_push(3, &mut bytes.clone(), 24));
            bytes
        };
        let a = corrupt(7);
        let b = corrupt(7);
        assert_eq!(a, b, "same seed flips the same byte");
        // Exactly one byte differs, and it is past the header.
        let flipped: Vec<usize> = (0..64).filter(|&i| a[i] != frame[i]).collect();
        assert_eq!(flipped.len(), 1);
        assert!(flipped[0] >= 24);
    }

    #[test]
    fn crc_corruption_of_an_empty_payload_hits_the_header() {
        let mut inj = FaultInjector::new(Some(FaultPlan::parse("crc@0").unwrap()));
        let mut bytes = vec![0u8; 24];
        assert!(inj.corrupt_push(0, &mut bytes, 24));
        assert_ne!(bytes, vec![0u8; 24]);
    }

    #[test]
    fn inert_injector_never_fires() {
        let mut inj = FaultInjector::new(None);
        for step in 0..10 {
            assert_eq!(inj.before_push(step), None);
            assert_eq!(inj.after_push(step), None);
            assert!(!inj.corrupt_push(step, &mut [0u8; 32], 24));
        }
        assert!(!inj.fired);
    }
}
