//! Experiment configuration.

use serde::{Deserialize, Serialize};
use threelc_baselines::SchemeKind;
use threelc_policy::PolicySpec;

/// The paper's standard step count was 25,600 (163.84 CIFAR-10 epochs on
/// 10 workers). Our scaled-down standard run: the fractions 25/50/75/100%
/// used in Figures 4–6 apply to this number.
pub const STANDARD_STEPS: u64 = 1200;

/// Full configuration of one distributed-training experiment. The
/// simulator ([`crate::Cluster`]) and the networked runtime run every
/// field: strict BSP, one parameter server, one shared pull encode per
/// tensor (the paper's setting, §5.1–5.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// The communication-reduction design under test.
    pub scheme: SchemeKind,
    /// Number of workers (the paper uses 10).
    pub workers: usize,
    /// Per-worker minibatch size (the paper uses 32).
    pub batch_per_worker: usize,
    /// Total training steps (the learning-rate schedule spans exactly this
    /// count, as in §5.2).
    pub total_steps: u64,
    /// Base (maximum) learning rate of the cosine schedule.
    pub lr_max: f32,
    /// Final (minimum) learning rate of the cosine schedule.
    pub lr_min: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Weight decay.
    pub weight_decay: f32,
    /// Linear learning-rate warmup steps (Goyal et al.'s large-batch
    /// guideline, which the paper's distributed configuration follows).
    pub warmup_steps: u64,
    /// Residual-block width of the model.
    pub model_width: usize,
    /// Number of residual blocks.
    pub model_blocks: usize,
    /// Tensors with fewer elements than this bypass compression (the
    /// "small layers" exclusion of §5.1).
    pub compress_threshold: usize,
    /// Evaluate the global model on the test set every this many steps
    /// (`0` = only at the end).
    pub eval_every: u64,
    /// Master seed: model init, data generation, and worker RNGs derive
    /// from it.
    pub seed: u64,
    /// The adaptive compression policy choosing the sparsity multiplier
    /// per tensor per step. The default, [`PolicySpec::Static`], keeps the
    /// scheme's own multiplier for the whole run (the original behavior);
    /// adaptive specs are evaluated by the server only and broadcast to
    /// workers, so every replica applies the identical decision sequence.
    #[serde(default)]
    pub policy: PolicySpec,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scheme: SchemeKind::Float32,
            workers: 10,
            batch_per_worker: 32,
            total_steps: STANDARD_STEPS,
            lr_max: 0.1,
            lr_min: 0.001,
            momentum: 0.9,
            weight_decay: 1e-4,
            warmup_steps: 60,
            model_width: 64,
            model_blocks: 2,
            compress_threshold: 512,
            eval_every: 0,
            seed: 42,
            policy: PolicySpec::Static,
        }
    }
}

impl ExperimentConfig {
    /// A config for `scheme` with every other field at its default.
    pub fn for_scheme(scheme: SchemeKind) -> Self {
        ExperimentConfig {
            scheme,
            ..Default::default()
        }
    }

    /// Checks what both runtimes need before anything is built or bound:
    /// at least one worker, no more than a `u16` worker id can name, a
    /// positive batch, and in-range scheme and policy parameters
    /// ([`SchemeKind::validate`], [`PolicySpec::validate`]).
    ///
    /// # Errors
    ///
    /// Returns the reason the configuration cannot run.
    pub fn validate(&self) -> Result<(), String> {
        self.scheme.validate()?;
        self.policy.validate().map_err(|e| e.to_string())?;
        if self.workers == 0 {
            return Err("at least one worker required".into());
        }
        if self.workers > usize::from(u16::MAX) {
            return Err(format!(
                "{} workers exceed the u16 worker-id space",
                self.workers
            ));
        }
        if self.batch_per_worker == 0 {
            return Err("batch size must be positive".into());
        }
        Ok(())
    }

    /// Returns a copy running `percent`% of this config's steps (the
    /// 25/50/75/100% sweeps of Figures 4–6). The learning-rate schedule
    /// automatically re-stretches because it always spans `total_steps`.
    ///
    /// # Panics
    ///
    /// Panics if `percent` is 0 or greater than 100.
    pub fn at_percent_steps(&self, percent: u64) -> Self {
        assert!((1..=100).contains(&percent), "percent must be 1..=100");
        ExperimentConfig {
            total_steps: (self.total_steps * percent / 100).max(1),
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_hyperparameters() {
        let c = ExperimentConfig::default();
        assert_eq!(c.workers, 10);
        assert_eq!(c.batch_per_worker, 32);
        assert_eq!(c.momentum, 0.9);
        assert_eq!(c.weight_decay, 1e-4);
        assert_eq!(c.lr_max, 0.1);
        assert_eq!(c.lr_min, 0.001);
    }

    #[test]
    fn percent_steps() {
        let c = ExperimentConfig::default();
        assert_eq!(c.at_percent_steps(25).total_steps, c.total_steps / 4);
        assert_eq!(c.at_percent_steps(100).total_steps, c.total_steps);
    }

    #[test]
    #[should_panic(expected = "percent")]
    fn percent_zero_panics() {
        ExperimentConfig::default().at_percent_steps(0);
    }

    #[test]
    fn validate_bounds_the_worker_count() {
        let with = |workers| ExperimentConfig {
            workers,
            ..Default::default()
        };
        assert_eq!(
            with(0).validate(),
            Err("at least one worker required".into())
        );
        assert_eq!(with(1).validate(), Ok(()));
        assert_eq!(with(usize::from(u16::MAX)).validate(), Ok(()));
        assert_eq!(
            with(70_000).validate(),
            Err("70000 workers exceed the u16 worker-id space".into())
        );
        let no_batch = ExperimentConfig {
            batch_per_worker: 0,
            ..with(1)
        };
        assert_eq!(
            no_batch.validate(),
            Err("batch size must be positive".into())
        );
    }

    #[test]
    fn validate_range_checks_scheme_and_policy_parameters() {
        let with = |scheme| ExperimentConfig::for_scheme(scheme).validate();
        assert_eq!(
            with(SchemeKind::three_lc(5.0)),
            Err("sparsity multiplier 5 is outside [1.0, 2.0)".into())
        );
        assert!(with(SchemeKind::Sparsify { fraction: 0.0 }).is_err());
        assert!(with(SchemeKind::LocalSteps { period: 0 }).is_err());
        let bad_policy = ExperimentConfig {
            policy: PolicySpec::Feedback {
                ratio: 12.0,
                start: 3.0,
                gain: 0.05,
                band: 0.1,
                hold: 2,
            },
            ..ExperimentConfig::default()
        };
        let err = bad_policy.validate().unwrap_err();
        assert!(err.contains("start"), "{err}");
    }

    #[test]
    fn configs_with_retired_keys_still_load() {
        // An ExperimentConfig as the simulator serialized it while it still
        // modelled sharded servers, backup workers, stale pulls, per-worker
        // pull compression and straggler jitter: the retired keys are
        // ignored.
        let old = r#"{"scheme":"Float32","workers":1,"servers":1,"batch_per_worker":4,"total_steps":1,"lr_max":0.1,"lr_min":0.001,"momentum":0.9,"weight_decay":0.0001,"warmup_steps":60,"backup_workers":0,"staleness":0,"model_width":8,"model_blocks":1,"compress_threshold":512,"eval_every":0,"shared_pull_compression":true,"seed":42,"policy":"Static","timing":{"compute_seconds_per_step":0.41,"overlap_fraction":2,"reference_params":1730000,"straggler_jitter":0}}"#;
        let back: ExperimentConfig = serde_json::from_str(old).unwrap();
        assert_eq!(
            back,
            ExperimentConfig {
                workers: 1,
                batch_per_worker: 4,
                total_steps: 1,
                model_width: 8,
                model_blocks: 1,
                ..ExperimentConfig::for_scheme(SchemeKind::Float32)
            }
        );
    }

    #[test]
    fn serde_roundtrip() {
        let c = ExperimentConfig::for_scheme(SchemeKind::three_lc(1.5));
        let json = serde_json::to_string(&c).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn serde_roundtrip_with_policy() {
        let mut c = ExperimentConfig::for_scheme(SchemeKind::three_lc(1.5));
        c.policy = PolicySpec::parse("feedback:ratio=20,start=1.5").unwrap();
        let json = serde_json::to_string(&c).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn policy_defaults_to_static_on_old_configs() {
        // Configs serialized before the policy field existed must load
        // with the original (static) behavior.
        let c = ExperimentConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let stripped = json.replace(",\"policy\":\"Static\"", "");
        assert_ne!(stripped, json, "policy field must have been serialized");
        let back: ExperimentConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.policy, PolicySpec::Static);
    }
}
