//! JSON-file caching of experiment results and relayed step times.

use crate::link::{relayed_run, LinkStep, WINDOW};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use threelc_baselines::SchemeKind;
use threelc_distsim::{run_experiment, Cluster, ExperimentConfig, ExperimentResult, NetworkModel};
use threelc_net::model_crc32;

/// Directory (relative to the workspace root) where cached runs live.
pub const RUNS_DIR: &str = "results/runs";

/// Locates the workspace root by walking up from the current directory
/// until a `Cargo.toml` with a `[workspace]` section is found; falls back
/// to the current directory.
pub fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            return std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        }
    }
}

/// The cache key of `config` in this build: [`key`] under
/// [`build_fingerprint`].
fn config_key(config: &ExperimentConfig) -> String {
    key(build_fingerprint(), config)
}

/// A cache key for `config` as trained by the build `fingerprint` names:
/// a fixed hash of both, so a result is found again only by a build that
/// trains the same bits, whatever toolchain hashes it.
fn key(fingerprint: &str, config: &ExperimentConfig) -> String {
    let json = serde_json::to_string(config).expect("config serializes");
    format!(
        "{:016x}",
        fnv1a(format!("{fingerprint}\n{json}").as_bytes())
    )
}

/// 64-bit FNV-1a: a hash whose algorithm is fixed, where std's
/// `DefaultHasher` promises none from one release to the next.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What this build trains: the final-model CRC-32 and the final test loss
/// of a tiny pinned run (two workers, three 3LC steps of a width-40 model
/// at batch 9, the shape `tests/model_crc.rs` pins), computed once per
/// process. A change to float order in the tensor or learning crates, to
/// the codec, the server's aggregation or the evaluation moves it, and
/// with it every key, so a result an older build cached is not reused.
fn build_fingerprint() -> &'static str {
    static FINGERPRINT: OnceLock<String> = OnceLock::new();
    FINGERPRINT.get_or_init(|| {
        let config = ExperimentConfig {
            workers: 2,
            batch_per_worker: 9,
            total_steps: 3,
            warmup_steps: 0,
            model_width: 40,
            model_blocks: 1,
            seed: 7,
            ..ExperimentConfig::for_scheme(SchemeKind::three_lc(1.0))
        };
        let mut cluster = Cluster::new(config);
        for _ in 0..config.total_steps {
            cluster.step();
        }
        let loss = cluster.evaluate().loss;
        let crc = model_crc32(cluster.global_model());
        format!("{crc:08x} {:08x}", loss.to_bits())
    })
}

fn cache_path(root: &Path, config: &ExperimentConfig) -> PathBuf {
    let label = config
        .scheme
        .label()
        .replace([' ', '(', ')', '=', '%', '+'], "_");
    root.join(RUNS_DIR).join(format!(
        "{label}-{}steps-{}.json",
        config.total_steps,
        config_key(config)
    ))
}

/// Runs an experiment, reusing a cached result when one exists for this
/// exact configuration.
///
/// Set `fresh` to ignore (and overwrite) any cached result.
pub fn run_cached(config: &ExperimentConfig, fresh: bool) -> ExperimentResult {
    let path = cache_path(&workspace_root(), config);
    cached(&path, fresh, || run_experiment(config))
}

/// The step of `config`'s design over `link`: a [`WINDOW`]-step
/// [`relayed_run`] of `config`, reusing a cached measurement of the same
/// window and link unless `fresh`.
///
/// # Panics
///
/// Panics if the relayed run fails.
pub fn step_cached(config: &ExperimentConfig, link: NetworkModel, fresh: bool) -> LinkStep {
    let window = ExperimentConfig {
        total_steps: WINDOW,
        ..*config
    };
    let name = format!("link-{}-{}.json", config_key(&window), link.bandwidth_bps);
    cached(&workspace_root().join(RUNS_DIR).join(name), fresh, || {
        let run = relayed_run(&window, link).unwrap_or_else(|e| panic!("relayed run: {e}"));
        run.step
    })
}

/// The value cached at `path` unless `fresh`, else `f`'s, written there.
/// The file's name carries [`config_key`], so a file that parses holds
/// the value asked for, as this build computes it.
fn cached<T: Serialize + DeserializeOwned>(path: &Path, fresh: bool, f: impl FnOnce() -> T) -> T {
    let text = std::fs::read_to_string(path).ok().filter(|_| !fresh);
    if let Some(value) = text.and_then(|text| serde_json::from_str(&text).ok()) {
        return value;
    }
    let value = f();
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Ok(json) = serde_json::to_string(&value) {
        let _ = std::fs::write(path, json);
    }
    value
}

/// Writes a figure/table data file under `results/` and returns its path.
pub fn write_output(name: &str, value: &impl serde::Serialize) -> PathBuf {
    let path = workspace_root().join("results").join(name);
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let json = serde_json::to_string_pretty(value).expect("output serializes");
    std::fs::write(&path, json).expect("results directory is writable");
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use threelc_baselines::SchemeKind;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            workers: 2,
            batch_per_worker: 4,
            total_steps: 2,
            model_width: 8,
            model_blocks: 1,
            seed: 123456,
            ..ExperimentConfig::for_scheme(SchemeKind::Int8)
        }
    }

    #[test]
    fn key_is_stable_and_config_sensitive() {
        let a = tiny();
        assert_eq!(config_key(&a), config_key(&a.clone()));
        let mut b = tiny();
        b.total_steps = 3;
        assert_ne!(config_key(&a), config_key(&b));
    }

    #[test]
    fn the_key_hash_is_fixed() {
        // FNV-1a's published 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let fingerprint = build_fingerprint();
        assert_eq!(fingerprint.len(), 17, "crc and loss bits: {fingerprint}");
        assert_eq!(fingerprint, build_fingerprint(), "computed once");
    }

    #[test]
    fn a_changed_build_fingerprint_misses_the_cache() {
        let config = tiny();
        let dir = std::env::temp_dir().join(format!("threelc-cache-{}", std::process::id()));
        let path = |fingerprint| dir.join(format!("{}.json", key(fingerprint, &config)));
        assert_eq!(cached(&path("0badc0de 3f800000"), false, || 1u32), 1);
        let hit = cached(&path("0badc0de 3f800000"), false, || 2u32);
        assert_eq!(hit, 1, "the same build finds its result");
        let miss = cached(&path("0badc0df 3f800000"), false, || 3u32);
        assert_eq!(miss, 3, "another build's result is not reused");
        assert_ne!(
            key(build_fingerprint(), &config),
            key("0badc0de 3f800000", &config)
        );
        std::fs::remove_dir_all(&dir).expect("the test's own directory");
    }

    #[test]
    fn cached_run_roundtrips() {
        let config = tiny();
        let first = run_cached(&config, true);
        let second = run_cached(&config, false);
        assert_eq!(first, second, "cache must return the identical result");
    }

    #[test]
    fn workspace_root_has_manifest() {
        assert!(workspace_root().join("Cargo.toml").is_file());
    }
}
