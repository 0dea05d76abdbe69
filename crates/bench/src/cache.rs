//! JSON-file caching of experiment results and relayed step times.

use crate::link::{relayed_run, LinkStep, WINDOW};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use threelc_distsim::{run_experiment, ExperimentConfig, ExperimentResult, NetworkModel};

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

/// A stable cache key for a config (hash of its canonical JSON).
fn config_key(config: &ExperimentConfig) -> String {
    let json = serde_json::to_string(config).expect("config serializes");
    let mut h = DefaultHasher::new();
    json.hash(&mut h);
    format!("{:016x}", h.finish())
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
/// the value asked for.
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
