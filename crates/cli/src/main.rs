//! `threelc` — command-line 3LC compression for raw `f32` tensor files.
//!
//! ```text
//! threelc compress   <input.f32> <output.3lc> [--sparsity S] [--no-zre]
//! threelc decompress <input.3lc> <output.f32>
//! threelc inspect    <input.3lc>
//! threelc stats      <input.f32> [--sparsity S]
//! threelc serve      --addr A [--workers N] [--steps N] [...]
//! threelc worker     --addr A --id N
//! threelc top        <addr> [--interval SECS] [--once] [--json]
//! threelc trace      <report.json|flight.json|addr> [--chrome out.json] [--steps N]
//! threelc analyze    <report.json|flight.json|addr> [--check] [--expect-blame N:P]
//! ```
//!
//! `THREELC_LOG` (`error` … `trace`) turns on structured JSONL events on
//! stderr.
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
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
