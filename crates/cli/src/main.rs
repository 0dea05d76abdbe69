//! `threelc` — command-line 3LC compression for raw `f32` tensor files.
//!
//! ```text
//! threelc compress   <input.f32> <output.3lc> [--sparsity S] [--no-zre]
//! threelc decompress <input.3lc> <output.f32>
//! threelc inspect    <input.3lc>
//! threelc stats      <input.f32> [--sparsity S]
//! threelc serve      --addr A [--workers N] [--steps N] [...]
//! threelc worker     --addr A --id N
//! threelc metrics    <addr> [--json|--prom] [--watch SECS]
//! threelc metrics    --from <log.jsonl|report.json> [--json|--prom]
//! threelc top        <addr> [--interval SECS] [--once] [--json]
//! threelc trace      <report.json|flight.json|addr> [--chrome out.json] [--check]
//! threelc analyze    <report.json|flight.json|addr> [--check] [--expect-blame N:P]
//! ```
//!
//! Every command accepts a global `--log-json <path>` flag that appends
//! structured JSONL events to a file; `THREELC_LOG` selects the level.
//!
//! Input tensors are flat little-endian `f32` files (the natural dump
//! format of most numeric toolchains). The `.3lc` container prepends a
//! 16-byte file header (magic, element count) to the wire payload from
//! `threelc::ThreeLcCompressor` so files are self-describing.

use std::process::ExitCode;

mod analyzecmd;
mod cli;
mod netcmd;
mod topcmd;
mod tracecmd;

/// Strips the global `--log-json <path>` flag (valid before or after the
/// subcommand) and, when present, routes structured events to that file.
/// `THREELC_LOG` still selects the level; unset, the flag implies `info`
/// so asking for a log file is never a silent no-op.
fn apply_log_flag(mut args: Vec<String>) -> Result<Vec<String>, String> {
    let Some(i) = args.iter().position(|a| a == "--log-json") else {
        return Ok(args);
    };
    if i + 1 >= args.len() {
        return Err("--log-json requires a file path".into());
    }
    let path = args.remove(i + 1);
    args.remove(i);
    if std::env::var_os("THREELC_LOG").is_none() {
        threelc_obs::set_level(threelc_obs::Level::Info);
    }
    threelc_obs::set_log_file(&path).map_err(|e| format!("--log-json {path}: {e}"))?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match apply_log_flag(std::env::args().skip(1).collect()) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}");
            eprintln!("{}", cli::usage());
            return ExitCode::FAILURE;
        }
    };
    match cli::run(&args) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("error: {err}");
            eprintln!("{}", cli::usage());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn log_flag_is_stripped_and_routes_events_to_the_file() {
        // Missing path is a clean error.
        assert!(super::apply_log_flag(vec!["inspect".into(), "--log-json".into()]).is_err());

        let path = std::env::temp_dir().join(format!("threelc-log-{}.jsonl", std::process::id()));
        let args = vec![
            "--log-json".into(),
            path.to_str().expect("utf-8 path").into(),
            "stats".into(),
        ];
        let rest = super::apply_log_flag(args).expect("valid log flag");
        assert_eq!(rest, vec!["stats".to_string()]);

        // The flag implies info level when THREELC_LOG is unset, so this
        // event must land in the file.
        threelc_obs::event!(threelc_obs::Level::Info, "cli.log_flag_test", ok = true);
        let contents = std::fs::read_to_string(&path).expect("log file");
        assert!(contents.contains("cli.log_flag_test"), "got: {contents}");
        let _ = std::fs::remove_file(&path);
    }
}
