//! Command implementations for the `threelc` binary.
//!
//! Kept separate from `main.rs` so every command is unit-testable without
//! spawning processes.

use crate::netcmd::{has_flag, parse_flag, split_flags};
use std::error::Error;
use std::fmt::Write as _;
use std::path::Path;
use threelc::{Compressor, SparsityMultiplier, TernaryTensor, ThreeLcCompressor, ThreeLcOptions};
use threelc_baselines::SchemeKind;
use threelc_tensor::{Shape, Tensor, TensorStats};

/// The usage text printed on argument errors, its `--scheme` tokens read
/// from [`SchemeKind::tokens`].
pub fn usage() -> String {
    let schemes: Vec<&str> = SchemeKind::tokens().collect();
    USAGE.replace("{schemes}", &schemes.join("|"))
}

/// [`usage`] before the scheme tokens are filled in.
const USAGE: &str = "\
usage:
  threelc compress   <input.f32> <output.3lc> [--sparsity S] [--no-zre]
  threelc decompress <input.3lc> <output.f32>
  threelc inspect    <input.3lc>
  threelc stats      <input.f32> [--sparsity S]
  threelc codec
  threelc serve      --addr A [--workers N] [--steps N] [--seed N]
                     [--scheme SCHEME] [--sparsity S]
                     [--policy SPEC] [--width N] [--blocks N] [--batch N]
                     [--eval-every N] [--json report.json]
                     [--rejoin-timeout SECS] [--max-rejoins N]
                     [--flight dump.flight.json]
  threelc worker     --addr A --id N [--max-rejoins N] [--inject-fault SPEC]
  threelc simulate   [--workers N] [--steps N] [--seed N] [--scheme SCHEME]
                     [--sparsity S] [--policy SPEC] [--width N]
                     [--blocks N] [--batch N] [--eval-every N]
  threelc top        <addr> [--interval SECS] [--once] [--json]
  threelc trace      <report.json|flight.json|addr> [--chrome out.json]
                     [--steps N]
  threelc analyze    <report.json|flight.json|addr> [--json] [--steps N]
                     [--check] [--expect-blame NODE:PHASE]

SCHEME names one design of the paper's Table 1, or Table 2's No-ZRE row:
  {schemes}
3lc and 3lc-nozre run at --sparsity S (default 1.0; Table 1's 3LC rows are
1.0, 1.5, 1.75 and 1.9); the other designs ignore it. Without --scheme,
serve and simulate run 3lc.

serve and simulate split the server step over tensor shards on their own
(one per core, at most one per 256 Ki model values); the model is
bit-identical at every count.

codec prints the encode implementation tier in use (scalar, swar, or
simd — auto-selected at startup, overridable via THREELC_CODEC_IMPL)
and which tiers this host supports. Every tier is bit-identical; the
choice only affects throughput. compress and inspect report the active
tier inline. Its last line names the GEMM instantiation worker compute
runs (avx2 where the CPU has it, else baseline; same bits, no override).

serve prints `listening on <addr>` to stderr once it has bound, so
--addr 127.0.0.1:0 lets the kernel pick a free port.

serve tolerates worker disconnects: a worker may reconnect and resume
mid-run (up to --max-rejoins times, waiting --rejoin-timeout seconds per
barrier; --max-rejoins 0 restores fail-stop). worker --inject-fault arms
a deterministic fault (disconnect@N, drop-after-push@N, kill@N, crc@N[:S],
delay@N:MS; also via THREELC_FAULT); after a kill, launching the same worker
command again resumes the run. simulate runs the same experiment in-process and prints
the same `final model crc32` line a fault-free or recovered serve prints.

--policy decides the sparsity multiplier per tensor per step: `static`
(default; the scheme's own multiplier) or
`feedback:ratio=R,start=S[,gain=G][,band=B][,hold=H]`, a bounded
controller that starts every tensor at S and nudges it by G until its
compression ratio sits within B·R of R, holding H steps after each
nudge. The server evaluates the policy and broadcasts each decision
with the pull batch, so serve/worker runs stay bit-identical to
`simulate --policy`.

trace renders the cross-node step timeline of a THREELC_TRACE=1 run from
a `serve --json` report (or a live server's own spans) and exports
Chrome/Perfetto JSON with --chrome. Point it at a `.flight.json`
post-mortem dump to render the flight recorder instead.

analyze reconstructs each BSP step's critical path from a traced run
(THREELC_TRACE=1) and attributes the measured step time to {node x phase}
buckets — time peers spend blocked at the barrier is charged to the
straggler that caused it, so the buckets sum to the wall clock exactly.
It flags workers whose network blame dominates and, for a report, prints
one row per tensor: values, push and pull bits/value, share of the wire
bytes and worker codec us per step, by wire bytes. --expect-blame
NODE:PHASE exits nonzero unless that bucket tops the ledger and is
flagged (the CI ground-truth gate for injected delays); --check exits
nonzero when attribution fails to conserve or any bottleneck is flagged.

top renders a live per-worker dashboard (step, ratio, wire throughput,
rejoins, latency, barrier lateness, wire-byte sparklines) by polling the
server's ring of recent steps; --once prints a single frame. serve writes
a `.flight.json` post-mortem dump (the recent steps + recent spans + the
fault log) when a run aborts, a
handler panics, or a fault fires; --flight names the dump (default:
derived from --json as `<report>.flight.json`).

THREELC_LOG=error|warn|info|debug|trace prints structured JSONL events
(accept failures, retries, rejoins, injected faults) on stderr.";

/// Magic bytes identifying a `.3lc` container.
const MAGIC: &[u8; 4] = b"3LC\0";
/// Container header: magic + u32 version + u64 element count + f32
/// sparsity multiplier.
const FILE_HEADER_LEN: usize = 4 + 4 + 8 + 4;
const VERSION: u32 = 2;

type CliResult = Result<String, Box<dyn Error>>;

/// Parses and executes a command line (without the program name),
/// returning the report to print.
///
/// # Errors
///
/// Returns a human-readable error for unknown commands, bad flags,
/// malformed files, or I/O failures. `help`, `--help` or `-h` — alone or
/// after a command — is no error: the report is the usage text.
pub fn run(args: &[String]) -> CliResult {
    let asks_for_help = |arg: &String| matches!(arg.as_str(), "--help" | "-h");
    if args.first().is_some_and(|a| a == "help") || args.iter().any(asks_for_help) {
        return Ok(usage() + "\n");
    }
    match args.first().map(String::as_str) {
        Some("compress") => compress(&args[1..]),
        Some("decompress") => decompress(&args[1..]),
        Some("inspect") => inspect(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("codec") => codec(&args[1..]),
        Some("serve") => crate::netcmd::serve_cmd(&args[1..]),
        Some("worker") => crate::netcmd::worker_cmd(&args[1..]),
        Some("simulate") => crate::netcmd::simulate_cmd(&args[1..]),
        Some("top") => crate::topcmd::top_cmd(&args[1..]),
        Some("trace") => crate::tracecmd::trace_cmd(&args[1..]),
        Some("analyze") => crate::analyzecmd::analyze_cmd(&args[1..]),
        Some(flag) if flag.starts_with("--") => Err(format!("unknown argument `{flag}`").into()),
        Some(other) => Err(format!("unknown command `{other}`").into()),
        None => Err("missing command".into()),
    }
}

/// `--sparsity` and `--no-zre`, once `positional` has checked the flags.
fn parse_sparsity(args: &[String]) -> Result<(SparsityMultiplier, bool), Box<dyn Error>> {
    let sparsity = match parse_flag(args, "--sparsity")? {
        Some(v) => SparsityMultiplier::new(v).map_err(|_| "sparsity must be in [1.0, 2.0)")?,
        None => SparsityMultiplier::default(),
    };
    Ok((sparsity, !has_flag(args, "--no-zre")))
}

fn read_f32_file(path: &Path) -> Result<Tensor, Box<dyn Error>> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if bytes.len() % 4 != 0 {
        return Err(format!(
            "{}: length {} is not a multiple of 4 (raw f32 expected)",
            path.display(),
            bytes.len()
        )
        .into());
    }
    let data: Vec<f32> = bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    let n = data.len();
    Ok(Tensor::from_vec(data, [n]))
}

/// Extracts exactly `count` positional (non-flag) arguments, by
/// [`split_flags`]' rules: flags in `valued` take exactly one value, flags
/// in `boolean` take none.
fn positional<'a>(
    args: &'a [String],
    count: usize,
    valued: &[&str],
    boolean: &[&str],
) -> Result<Vec<&'a str>, Box<dyn Error>> {
    let valued: Vec<(&str, &str)> = valued.iter().map(|&k| (k, "a value")).collect();
    let out = split_flags(args, &valued, boolean)?;
    if out.len() != count {
        return Err(format!("expected {count} file argument(s), got {}", out.len()).into());
    }
    Ok(out)
}

fn compress(args: &[String]) -> CliResult {
    let files = positional(args, 2, &["--sparsity"], &["--no-zre"])?;
    let (sparsity, zre) = parse_sparsity(args)?;
    let tensor = read_f32_file(Path::new(files[0]))?;
    let options = ThreeLcOptions {
        sparsity,
        zero_run_encoding: zre,
        error_accumulation: false, // one-shot file compression has no stream
    };
    let mut ctx = ThreeLcCompressor::with_options(tensor.shape().clone(), options);
    let wire = ctx.compress(&tensor)?;

    let mut out = Vec::with_capacity(FILE_HEADER_LEN + wire.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(tensor.len() as u64).to_le_bytes());
    out.extend_from_slice(&sparsity.value().to_le_bytes());
    out.extend_from_slice(&wire);
    std::fs::write(files[1], &out).map_err(|e| format!("{}: {e}", files[1]))?;

    let in_bytes = tensor.len() * 4;
    let mut report = String::new();
    writeln!(
        report,
        "{} -> {}: {} values, {} -> {} bytes ({:.1}x, {:.3} bits/value, {sparsity})",
        files[0],
        files[1],
        tensor.len(),
        in_bytes,
        out.len(),
        in_bytes as f64 / out.len() as f64,
        out.len() as f64 * 8.0 / tensor.len() as f64,
    )?;
    writeln!(report, "codec: {}", ctx.codec_impl().name())?;
    Ok(report)
}

/// Reports the active codec implementation tier and host support, then the
/// GEMM instantiation — the line format is stable (the CI dispatch matrix
/// greps it).
fn codec(args: &[String]) -> CliResult {
    if let Some(extra) = args.first() {
        return Err(format!("codec takes no arguments, got `{extra}`").into());
    }
    let sel = threelc::kernels::selection();
    let available: Vec<&str> = threelc::CodecImpl::ALL
        .into_iter()
        .filter(|i| i.is_available())
        .map(|i| i.name())
        .collect();
    let mut report = String::new();
    writeln!(report, "active:    {}", sel.describe())?;
    writeln!(report, "available: {}", available.join(" "))?;
    writeln!(
        report,
        "override:  {}=scalar|swar|simd",
        threelc::CODEC_IMPL_ENV
    )?;
    writeln!(
        report,
        "gemm:      {}",
        threelc_tensor::gemm_instantiation()
    )?;
    Ok(report)
}

/// A parsed `.3lc` container header plus its wire payload.
struct Container {
    /// Claimed element count, validated against the payload size.
    count: usize,
    /// Multiplier recorded at compress time; `None` when the stored
    /// value is out of range.
    sparsity: Option<f32>,
    /// The 3LC wire payload following the header.
    wire: Vec<u8>,
}

fn parse_container(bytes: &[u8], path: &str) -> Result<Container, Box<dyn Error>> {
    if bytes.len() < MAGIC.len() || &bytes[0..4] != MAGIC {
        return Err(format!("{path}: not a .3lc file").into());
    }
    if bytes.len() < FILE_HEADER_LEN {
        return Err(format!(
            "{path}: truncated .3lc file ({} bytes, the header alone is {FILE_HEADER_LEN})",
            bytes.len()
        )
        .into());
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(format!("{path}: unsupported version {version}").into());
    }
    // The stored multiplier is display metadata: decode never consults it
    // (the scale travels inside the wire payload), so an out-of-range
    // value degrades to "unrecorded" rather than rejecting an
    // otherwise-valid file.
    let sparsity = f32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    let sparsity = SparsityMultiplier::new(sparsity).ok().map(|m| m.value());
    let count = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let wire = &bytes[FILE_HEADER_LEN..];
    if wire.len() < threelc::sizing::WIRE_HEADER_LEN {
        return Err(format!(
            "{path}: truncated .3lc file (payload is {} bytes, the wire header alone is {})",
            wire.len(),
            threelc::sizing::WIRE_HEADER_LEN
        )
        .into());
    }
    // Bound the claimed element count by what this payload could possibly
    // encode before sizing any allocation by it: a corrupt or hostile
    // header must not cost memory proportional to its claim.
    let max = threelc::sizing::max_values_for_payload(wire.len()) as u64;
    if count > max {
        return Err(format!(
            "{path}: header claims {count} values but a {}-byte payload holds at most {max}; \
             the file is truncated or corrupt",
            wire.len()
        )
        .into());
    }
    Ok(Container {
        count: count as usize,
        sparsity,
        wire: wire.to_vec(),
    })
}

fn decompress(args: &[String]) -> CliResult {
    let files = positional(args, 2, &[], &[])?;
    let bytes = std::fs::read(files[0]).map_err(|e| format!("{}: {e}", files[0]))?;
    let Container { count, wire, .. } = parse_container(&bytes, files[0])?;
    let ctx = ThreeLcCompressor::new(Shape::new(&[count]), SparsityMultiplier::default());
    let tensor = ctx.decompress(&wire)?;
    let mut out = Vec::with_capacity(tensor.len() * 4);
    for &x in tensor.iter() {
        out.extend_from_slice(&x.to_le_bytes());
    }
    std::fs::write(files[1], &out).map_err(|e| format!("{}: {e}", files[1]))?;
    Ok(format!(
        "{} -> {}: {} values restored\n",
        files[0],
        files[1],
        tensor.len()
    ))
}

/// Chunk granularity of the `inspect` table, in quartic bytes (each
/// quartic byte holds five ternary values).
const CHUNK_QUARTIC_BYTES: usize = 16384;

/// Per-chunk accumulators for the `inspect` table.
#[derive(Default, Clone, Copy)]
struct ChunkStat {
    /// Wire (possibly zero-run-encoded) bytes attributed to the chunk.
    encoded: usize,
    /// Decoded quartic bytes in the chunk.
    quartic: usize,
    /// How many of those quartic bytes are the all-zero byte.
    zeros: usize,
}

/// Walks the wire body once, attributing each encoded byte to the chunk
/// (of [`CHUNK_QUARTIC_BYTES`] decoded quartic bytes) where its output
/// starts. An escape byte's whole run counts in the chunk it begins in.
fn chunk_stats(body: &[u8], zre: bool) -> Vec<ChunkStat> {
    let mut chunks: Vec<ChunkStat> = Vec::new();
    let mut pos = 0usize;
    for &b in body {
        let (decoded, zeros) = if zre && b >= threelc::zrle::ESCAPE_BASE {
            let run = usize::from(b - threelc::zrle::ESCAPE_BASE) + threelc::zrle::MIN_RUN;
            (run, run)
        } else if b == threelc::quartic::ZERO_BYTE {
            (1, 1)
        } else {
            (1, 0)
        };
        let idx = pos / CHUNK_QUARTIC_BYTES;
        if chunks.len() <= idx {
            chunks.resize(idx + 1, ChunkStat::default());
        }
        let c = &mut chunks[idx];
        c.encoded += 1;
        c.quartic += decoded;
        c.zeros += zeros;
        pos += decoded;
    }
    chunks
}

fn inspect(args: &[String]) -> CliResult {
    let files = positional(args, 1, &[], &[])?;
    let bytes = std::fs::read(files[0]).map_err(|e| format!("{}: {e}", files[0]))?;
    let Container {
        count,
        sparsity: stored_s,
        wire,
    } = parse_container(&bytes, files[0])?;
    let ctx = ThreeLcCompressor::new(Shape::new(&[count]), SparsityMultiplier::default());
    let tensor = ctx.decompress(&wire)?;
    let s = TensorStats::of(&tensor);
    let mut report = String::new();
    writeln!(report, "{}:", files[0])?;
    writeln!(report, "  values:        {count}")?;
    writeln!(report, "  file bytes:    {}", bytes.len())?;
    match stored_s {
        Some(v) => writeln!(report, "  sparsity s:    {v}")?,
        None => writeln!(report, "  sparsity s:    unrecorded")?,
    }
    writeln!(
        report,
        "  ratio:         {:.1}x ({:.3} bits/value)",
        (count * 4) as f64 / bytes.len() as f64,
        bytes.len() as f64 * 8.0 / count.max(1) as f64,
    )?;
    writeln!(report, "  scale M:       {:.6}", tensor.max_abs())?;
    writeln!(report, "  zero fraction: {:.2}%", s.zero_fraction * 100.0)?;

    // ---- Per-chunk wire anatomy. The container was validated by the
    // decompress above, so the header fields can be trusted here.
    let zre = wire[0] & threelc::sizing::WIRE_FLAG_ZRE != 0;
    let body = &wire[threelc::sizing::WIRE_HEADER_LEN..];
    writeln!(
        report,
        "  encoding:      {}",
        if zre { "quartic + zero-run" } else { "quartic" }
    )?;
    writeln!(
        report,
        "  codec:         {}",
        threelc::kernels::selection().describe()
    )?;
    writeln!(
        report,
        "  chunks ({CHUNK_QUARTIC_BYTES} quartic bytes = {} values each):",
        CHUNK_QUARTIC_BYTES * threelc::quartic::VALUES_PER_BYTE
    )?;
    writeln!(
        report,
        "    {:>5}  {:>10}  {:>10}  {:>8}  {:>9}  {:>6}",
        "chunk", "bytes", "values", "ratio", "zero-run", "s"
    )?;
    // One multiplier governs the whole file today; the column still
    // prints per chunk so adaptive multi-tensor dumps render unchanged.
    let s_col = match stored_s {
        Some(v) => format!("{v:.2}"),
        None => "-".to_string(),
    };
    let mut remaining = count;
    for (idx, c) in chunk_stats(body, zre).iter().enumerate() {
        let values = (c.quartic * threelc::quartic::VALUES_PER_BYTE).min(remaining);
        remaining -= values;
        writeln!(
            report,
            "    {:>5}  {:>10}  {:>10}  {:>7.1}x  {:>8.2}%  {s_col:>6}",
            idx,
            c.encoded,
            values,
            (values * 4) as f64 / c.encoded.max(1) as f64,
            c.zeros as f64 / c.quartic.max(1) as f64 * 100.0,
        )?;
    }

    // ---- Zero-run-length distribution, measured exactly as the encoder
    // emits runs (lone zeros are runs of 1, long runs split at MAX_RUN).
    let quartic_bytes = if zre {
        std::borrow::Cow::Owned(threelc::zrle::decode(body))
    } else {
        std::borrow::Cow::Borrowed(body)
    };
    let mut runs = Vec::new();
    threelc::zrle::encode_with_runs(&quartic_bytes, |run| runs.push(run))
        .map_err(|e| format!("{}: body is not a quartic stream: {e}", files[0]))?;
    runs.sort_unstable();
    // Nearest rank: the shortest run that `p` percent of runs do not exceed.
    let percentile = |p: usize| runs[(runs.len() * p).div_ceil(100) - 1];
    match runs.last() {
        None => writeln!(report, "  zero runs:     none")?,
        Some(max) => writeln!(
            report,
            "  zero runs:     {} (p50 {}, p95 {}, max {max} quartic bytes)",
            runs.len(),
            percentile(50),
            percentile(95),
        )?,
    }
    Ok(report)
}

fn stats(args: &[String]) -> CliResult {
    let files = positional(args, 1, &["--sparsity"], &["--no-zre"])?;
    let (sparsity, _) = parse_sparsity(args)?;
    let tensor = read_f32_file(Path::new(files[0]))?;
    let s = TensorStats::of(&tensor);
    let q = TernaryTensor::quantize(&tensor, sparsity)?;
    let mut report = String::new();
    writeln!(report, "{}:", files[0])?;
    writeln!(report, "  values:     {}", s.count)?;
    writeln!(report, "  mean/std:   {:.6} / {:.6}", s.mean, s.std_dev)?;
    writeln!(report, "  min/max:    {:.6} / {:.6}", s.min, s.max)?;
    writeln!(
        report,
        "  quantized zeros at {sparsity}: {:.2}%",
        q.zero_fraction() * 100.0
    )?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("threelc-cli-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{}-{name}", std::process::id()))
    }

    fn write_f32(path: &Path, data: &[f32]) {
        let mut bytes = Vec::new();
        for x in data {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        std::fs::write(path, bytes).expect("write");
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// Runs `serve` with `flags` (no `--addr`) on a thread, on a loopback
    /// listener bound here first: the address to dial, and the thread.
    /// `run` returns `Box<dyn Error>`, which is not `Send`, so the thread
    /// stringifies its error.
    fn serve_on_loopback(
        flags: &[&str],
    ) -> (String, std::thread::JoinHandle<Result<String, String>>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("addr").to_string();
        let cmd = crate::netcmd::ServeCmd::parse(&s(flags)).expect("serve flags");
        let server = std::thread::spawn(move || cmd.run(&listener).map_err(|e| e.to_string()));
        (addr, server)
    }

    #[test]
    fn compress_decompress_roundtrip_with_bounded_error() {
        let input = tmp("in.f32");
        let packed = tmp("out.3lc");
        let restored = tmp("back.f32");
        let data: Vec<f32> = (0..1000)
            .map(|i| ((i as f32) * 0.37).sin() * 0.01)
            .collect();
        write_f32(&input, &data);

        let report = run(&s(&[
            "compress",
            input.to_str().unwrap(),
            packed.to_str().unwrap(),
            "--sparsity",
            "1.5",
        ]))
        .expect("compress");
        assert!(report.contains("1000 values"));
        // The report names the codec tier that ran.
        assert!(report.contains("codec: "), "got: {report}");

        run(&s(&[
            "decompress",
            packed.to_str().unwrap(),
            restored.to_str().unwrap(),
        ]))
        .expect("decompress");

        let back = read_f32_file(&restored).expect("read back");
        let orig = Tensor::from_slice(&data);
        let m = orig.max_abs() * 1.5;
        assert!(orig.sub(&back).unwrap().max_abs() <= m / 2.0 + 1e-7);
    }

    #[test]
    fn inspect_reports_ratio() {
        let input = tmp("i2.f32");
        let packed = tmp("i2.3lc");
        write_f32(&input, &vec![0.0f32; 700]);
        run(&s(&[
            "compress",
            input.to_str().unwrap(),
            packed.to_str().unwrap(),
        ]))
        .expect("compress");
        let report = run(&s(&["inspect", packed.to_str().unwrap()])).expect("inspect");
        assert!(report.contains("values:        700"));
        assert!(report.contains("zero fraction: 100.00%"));
        // The per-chunk table: 700 zeros quantize to 140 quartic zero
        // bytes, zero-run encoded into 10 escape bytes (one chunk).
        assert!(report.contains("encoding:      quartic + zero-run"));
        assert!(report.contains("  codec:         "), "got: {report}");
        assert!(report.contains("280.0x"), "got: {report}");
        assert!(report.contains("100.00%"));
        // 140 zero bytes = 10 maximal runs of 14.
        assert!(
            report.contains("zero runs:     10 (p50 14, p95 14, max 14 quartic bytes)"),
            "got: {report}"
        );
    }

    proptest::proptest! {
        /// A mutated `.3lc` file through `decompress` and `inspect`: a
        /// typed error, never a panic, for a truncation, a bad magic or
        /// version, a count above what the payload can hold, or a
        /// non-finite scale. A count lie is refused by the header parse,
        /// before anything is sized by the claim.
        #[test]
        fn a_mutated_container_is_a_typed_error(
            n in 1usize..2000,
            sparsity in 1.0f32..1.9,
            zre in proptest::prelude::any::<bool>(),
            mutation in 0usize..6,
            at in proptest::prelude::any::<u64>(),
        ) {
            let (input, packed, out) = (tmp("m.f32"), tmp("m.3lc"), tmp("m.out"));
            let data: Vec<f32> = (0..n).map(|i| ((i * 7919) % 101) as f32 / 50.0 - 1.0).collect();
            write_f32(&input, &data);
            let (input, packed, out) = (input.to_str().unwrap(), packed.to_str().unwrap(), out.to_str().unwrap());
            let s_flag = sparsity.to_string();
            let mut args = vec!["compress", input, packed, "--sparsity", &s_flag];
            if !zre {
                args.push("--no-zre");
            }
            run(&s(&args)).expect("compress");
            let mut bytes = std::fs::read(packed).expect("read back");
            let wire_len = bytes.len() - FILE_HEADER_LEN;
            let max = threelc::sizing::max_values_for_payload(wire_len) as u64;
            let expect = match mutation {
                0 => None,
                1 => {
                    bytes.truncate(at as usize % bytes.len());
                    Some("")
                }
                2 => {
                    bytes[at as usize % 4] ^= 0x20;
                    Some("not a .3lc file")
                }
                3 => {
                    let version = (at as u32).max(VERSION + 1);
                    bytes[4..8].copy_from_slice(&version.to_le_bytes());
                    Some("unsupported version")
                }
                4 => {
                    let claim = max + 1 + at % (u64::MAX - max);
                    bytes[8..16].copy_from_slice(&claim.to_le_bytes());
                    Some("header claims")
                }
                _ => {
                    let scale = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][at as usize % 3];
                    let at = FILE_HEADER_LEN + 1;
                    bytes[at..at + 4].copy_from_slice(&scale.to_le_bytes());
                    Some("non-finite")
                }
            };
            std::fs::write(packed, &bytes).expect("write mutated");
            if let Ok(c) = parse_container(&bytes, packed) {
                proptest::prop_assert!(c.count as u64 <= max, "parsed a count of {}", c.count);
            }
            for result in [run(&s(&["decompress", packed, out])), run(&s(&["inspect", packed]))] {
                match (expect, result) {
                    (None, Ok(_)) => {}
                    (Some(want), Err(e)) => {
                        proptest::prop_assert!(e.to_string().contains(want), "{e} lacks {want:?}")
                    }
                    (want, got) => proptest::prop_assert!(false, "{want:?} but got {got:?}"),
                }
            }
        }
    }

    #[test]
    fn codec_command_reports_tiers() {
        let report = run(&s(&["codec"])).expect("codec");
        // Stable grep surface for the CI dispatch matrix.
        assert!(report.contains("active:    "), "got: {report}");
        assert!(report.contains("available: scalar swar"), "got: {report}");
        assert!(report.contains("THREELC_CODEC_IMPL"), "got: {report}");
        let active = report
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("active:    "))
            .expect("active line");
        let tier = active.split_whitespace().next().expect("tier name");
        assert!(
            threelc::CodecImpl::parse(tier).is_some(),
            "active line must lead with a tier name, got: {active}"
        );
        // The GEMM instantiation this process runs: AVX2 exactly where the
        // CPU has it.
        let gemm = report
            .lines()
            .find_map(|l| l.strip_prefix("gemm:      "))
            .expect("gemm line");
        #[cfg(target_arch = "x86_64")]
        let want = if std::arch::is_x86_feature_detected!("avx2") {
            "avx2"
        } else {
            "baseline"
        };
        #[cfg(not(target_arch = "x86_64"))]
        let want = "baseline";
        assert_eq!(gemm, want, "got: {report}");
        assert!(run(&s(&["codec", "extra"])).is_err());
    }

    #[test]
    fn stats_command() {
        let input = tmp("s.f32");
        write_f32(&input, &[1.0, -1.0, 0.5, 0.0]);
        let report =
            run(&s(&["stats", input.to_str().unwrap(), "--sparsity", "1.9"])).expect("stats");
        assert!(report.contains("values:     4"));
        assert!(report.contains("min/max:    -1.000000 / 1.000000"));
    }

    #[test]
    fn no_zre_flag_changes_size() {
        let input = tmp("z.f32");
        let with = tmp("z1.3lc");
        let without = tmp("z2.3lc");
        write_f32(&input, &vec![0.0f32; 7000]);
        run(&s(&[
            "compress",
            input.to_str().unwrap(),
            with.to_str().unwrap(),
        ]))
        .unwrap();
        run(&s(&[
            "compress",
            input.to_str().unwrap(),
            without.to_str().unwrap(),
            "--no-zre",
        ]))
        .unwrap();
        let a = std::fs::metadata(&with).unwrap().len();
        let b = std::fs::metadata(&without).unwrap().len();
        assert!(a * 10 < b, "ZRE file {a} should be far below no-ZRE {b}");

        // The inspect table identifies both encodings.
        let plain = run(&s(&["inspect", without.to_str().unwrap()])).expect("inspect");
        assert!(plain.contains("encoding:      quartic\n"), "got: {plain}");
        // 7000 values → 1400 quartic bytes, all zero, no run collapsing.
        assert!(plain.contains("zero runs:     100 "), "got: {plain}");
    }

    #[test]
    fn threads_is_an_unknown_flag_everywhere() {
        // Nothing has a thread knob: the codec is single-threaded and the
        // server derives its shard count. The flag is an unknown-flag
        // error on every command that once took it, named in the message.
        const FLAG: &str = "--threads";
        for cmd in [
            &["compress", "a", "b", FLAG, "2"][..],
            &["decompress", "a", "b", FLAG, "2"],
            &["worker", "--addr", "127.0.0.1:1", "--id", "0", FLAG, "2"],
            &["serve", "--addr", "127.0.0.1:1", FLAG, "2"],
            &["simulate", "--steps", "2", FLAG, "2"],
        ] {
            let err = run(&s(cmd)).expect_err("the retired flag must be rejected");
            assert!(
                err.to_string().contains(&format!("`{FLAG}`")),
                "{cmd:?}: {err}"
            );
        }
    }

    #[test]
    fn file_commands_reject_unknown_flags() {
        for cmd in [
            &["decompress", "a", "b", "--bogus"][..],
            &["inspect", "a", "--bogus"],
            &["decompress", "a", "b", "--sparsity"],
        ] {
            let err = run(&s(cmd)).expect_err("unknown flag must be rejected");
            assert!(
                err.to_string().contains(cmd[cmd.len() - 1]),
                "{cmd:?}: {err}"
            );
        }
        assert!(run(&s(&["compress", "a", "b", "--sparsity"])).is_err());
    }

    #[test]
    fn a_flag_given_twice_is_refused_by_every_command() {
        // Every flag reader takes one value; a repeat would silently lose
        // the other, so each command refuses it and names the flag.
        for (line, flag) in [
            ("simulate --workers 1 --steps 1 --steps 0", "--steps"),
            ("serve --addr 127.0.0.1:0 --json a --json b", "--json"),
            ("worker --addr 127.0.0.1:1 --id 0 --id 1", "--id"),
            ("top 127.0.0.1:1 --once --once", "--once"),
            ("trace r.json --steps 1 --steps 2", "--steps"),
            ("analyze r.json --check --check", "--check"),
            ("compress a b --sparsity 1.5 --sparsity 1.2", "--sparsity"),
            ("stats a --no-zre --no-zre", "--no-zre"),
        ] {
            let cmd: Vec<&str> = line.split(' ').collect();
            let err = run(&s(&cmd)).expect_err(line).to_string();
            assert!(
                err.contains(&format!("`{flag}` given twice")),
                "{line}: {err}"
            );
        }
        // A flag's value may still look like anything.
        let args = s(&["--from", "--from"]);
        assert_eq!(
            split_flags(&args, &[("--from", "a path")], &[]).expect("one --from"),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn help_is_the_usage_not_an_error() {
        for cmd in [
            &["--help"][..],
            &["-h"],
            &["help"],
            &["serve", "--help"],
            &["compress", "-h"],
            &["inspect", "a.3lc", "--help"],
        ] {
            let out = run(&s(cmd)).unwrap_or_else(|e| panic!("{cmd:?}: {e}"));
            assert_eq!(out, usage() + "\n", "{cmd:?}");
        }
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(run(&s(&[])).is_err());
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&s(&["compress", "only-one-file"])).is_err());
        assert!(run(&s(&["compress", "a", "b", "--sparsity", "9.0"])).is_err());
        assert!(run(&s(&["compress", "a", "b", "--bogus"])).is_err());
        // Nonexistent input.
        assert!(run(&s(&["stats", "/nonexistent/x.f32"])).is_err());
        // Not a .3lc file.
        let junk = tmp("junk.3lc");
        std::fs::write(&junk, b"hello").unwrap();
        assert!(run(&s(&["inspect", junk.to_str().unwrap()])).is_err());
    }

    #[test]
    fn truncated_containers_report_cleanly() {
        let input = tmp("trunc.f32");
        let packed = tmp("trunc.3lc");
        write_f32(&input, &vec![0.25f32; 600]);
        run(&s(&[
            "compress",
            input.to_str().unwrap(),
            packed.to_str().unwrap(),
        ]))
        .expect("compress");
        let full = std::fs::read(&packed).expect("read container");

        // Cut the file at every structurally interesting point: inside the
        // magic, inside the file header, inside the wire header, and one
        // byte short of complete. Each must yield a clean error from both
        // readers — no panic, no huge allocation.
        for cut in [
            2,
            4,
            10,
            FILE_HEADER_LEN,
            FILE_HEADER_LEN + 4,
            full.len() - 1,
        ] {
            let cut_file = tmp(&format!("cut{cut}.3lc"));
            std::fs::write(&cut_file, &full[..cut]).expect("write truncation");
            let path = cut_file.to_str().unwrap();
            assert!(
                run(&s(&["inspect", path])).is_err(),
                "inspect accepted a {cut}-byte truncation"
            );
            let out = tmp(&format!("cut{cut}.f32"));
            assert!(
                run(&s(&["decompress", path, out.to_str().unwrap()])).is_err(),
                "decompress accepted a {cut}-byte truncation"
            );
        }
    }

    #[test]
    fn hostile_count_claims_are_rejected_before_allocation() {
        // A 16-byte payload cannot hold u64::MAX values; the claim must be
        // rejected up front instead of sizing buffers from it.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        let hostile = tmp("hostile.3lc");
        std::fs::write(&hostile, &bytes).unwrap();
        let err = run(&s(&["inspect", hostile.to_str().unwrap()]))
            .expect_err("hostile claim must be rejected");
        assert!(err.to_string().contains("claims"), "got: {err}");
    }

    #[test]
    fn container_records_the_sparsity_multiplier() {
        let input = tmp("sv.f32");
        let packed = tmp("sv.3lc");
        write_f32(&input, &vec![0.125f32; 500]);
        run(&s(&[
            "compress",
            input.to_str().unwrap(),
            packed.to_str().unwrap(),
            "--sparsity",
            "1.75",
        ]))
        .expect("compress");
        let report = run(&s(&["inspect", packed.to_str().unwrap()])).expect("inspect");
        assert!(report.contains("sparsity s:    1.75"), "got: {report}");
        // The chunk table carries the multiplier column.
        assert!(report.contains("zero-run       s"), "got: {report}");
        assert!(report.contains("  1.75\n"), "got: {report}");

        // A version-1 container (no sparsity field) and an unknown future
        // version are both rejected up front, by `inspect` and
        // `decompress` alike.
        let v2 = std::fs::read(&packed).unwrap();
        let mut v1 = Vec::new();
        v1.extend_from_slice(&v2[0..4]);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&v2[8..16]);
        v1.extend_from_slice(&v2[FILE_HEADER_LEN..]);
        let old = tmp("sv-v1.3lc");
        std::fs::write(&old, &v1).unwrap();
        let back = tmp("sv-v1.f32");
        for args in [
            vec!["inspect", old.to_str().unwrap()],
            vec!["decompress", old.to_str().unwrap(), back.to_str().unwrap()],
        ] {
            let err = run(&s(&args)).expect_err("version 1");
            assert!(
                err.to_string().contains("unsupported version 1"),
                "got: {err}"
            );
        }
        assert!(!back.exists(), "decompress wrote output for a v1 file");

        let mut v9 = v2.clone();
        v9[4..8].copy_from_slice(&9u32.to_le_bytes());
        let fut = tmp("sv-v9.3lc");
        std::fs::write(&fut, &v9).unwrap();
        let err = run(&s(&["inspect", fut.to_str().unwrap()])).expect_err("future version");
        assert!(
            err.to_string().contains("unsupported version 9"),
            "got: {err}"
        );
    }

    #[test]
    fn policy_flag_drives_an_adaptive_loopback_run() {
        let json = tmp("policy-report.json");
        let spec = "feedback:ratio=10000,start=1.2,gain=0.05,hold=1";
        let (addr, server) = serve_on_loopback(&[
            "--workers",
            "1",
            "--steps",
            "4",
            "--width",
            "16",
            "--blocks",
            "1",
            "--batch",
            "8",
            "--scheme",
            "3lc",
            "--policy",
            spec,
            "--json",
            json.to_str().unwrap(),
        ]);
        // The worker takes the policy from the server's config.
        let worker_args = s(&["worker", "--addr", &addr, "--id", "0"]);
        let worker = std::thread::spawn(move || run(&worker_args).map_err(|e| e.to_string()));
        worker.join().expect("worker thread").expect("worker run");
        let report = server.join().expect("server thread").expect("serve run");
        assert!(
            report.contains("policy [feedback:ratio=10000,start=1.2,gain=0.05,band=0.1,hold=1]"),
            "got: {report}"
        );

        // The JSON report records every decision, and the sequence moved.
        let dumped = std::fs::read_to_string(&json).expect("json report");
        let parsed: threelc_net::NetReport = serde_json::from_str(&dumped).expect("parse report");
        assert!(!parsed.result.trace.policy.records.is_empty());
        assert!(!parsed.result.trace.policy.is_constant());

        // `simulate` with the same flags prints the same fingerprint AND
        // the same decision summary — the equality CI's policy smoke
        // greps for.
        let crc_line = report
            .lines()
            .find(|l| l.starts_with("final model crc32: "))
            .expect("fingerprint line");
        let policy_line = report
            .lines()
            .find(|l| l.starts_with("policy ["))
            .expect("policy line");
        let sim = run(&s(&[
            "simulate",
            "--workers",
            "1",
            "--steps",
            "4",
            "--width",
            "16",
            "--blocks",
            "1",
            "--batch",
            "8",
            "--scheme",
            "3lc",
            "--policy",
            spec,
        ]))
        .expect("simulate run");
        assert!(sim.contains(crc_line), "serve: {report}\nsimulate: {sim}");
        assert!(
            sim.contains(policy_line),
            "serve: {report}\nsimulate: {sim}"
        );
    }

    #[test]
    fn serve_and_worker_commands_run_a_loopback_experiment() {
        let json = tmp("net-report.json");
        let (addr, server) = serve_on_loopback(&[
            "--workers",
            "2",
            "--steps",
            "3",
            "--width",
            "16",
            "--blocks",
            "1",
            "--batch",
            "8",
            "--scheme",
            "3lc",
            "--sparsity",
            "1.5",
            "--json",
            json.to_str().unwrap(),
        ]);
        let workers: Vec<_> = (0..2)
            .map(|id| {
                let args = s(&["worker", "--addr", &addr, "--id", &id.to_string()]);
                std::thread::spawn(move || run(&args).map_err(|e| e.to_string()))
            })
            .collect();
        for w in workers {
            let report = w.join().expect("worker thread").expect("worker run");
            assert!(report.contains("finished 3 steps"), "got: {report}");
        }
        let report = server.join().expect("server thread").expect("serve run");
        assert!(report.contains("final eval"), "got: {report}");
        let dumped = std::fs::read_to_string(&json).expect("json report");
        let parsed: threelc_net::NetReport = serde_json::from_str(&dumped).expect("parse report");
        assert_eq!(parsed.connections.len(), 2);
        assert_eq!(parsed.result.trace.steps.len(), 3);

        // `threelc simulate` with the same experiment flags prints the
        // exact same final-model fingerprint line — the equality the CI
        // chaos smoke greps for.
        let crc_line = report
            .lines()
            .find(|l| l.starts_with("final model crc32: "))
            .expect("serve prints the fingerprint line");
        let sim = run(&s(&[
            "simulate",
            "--workers",
            "2",
            "--steps",
            "3",
            "--width",
            "16",
            "--blocks",
            "1",
            "--batch",
            "8",
            "--scheme",
            "3lc",
            "--sparsity",
            "1.5",
        ]))
        .expect("simulate run");
        assert!(
            sim.contains(crc_line),
            "simulate fingerprint diverged:\nserve: {report}\nsimulate: {sim}"
        );
    }

    #[test]
    fn the_removed_exporter_flags_are_unknown_arguments() {
        for (args, flag) in [
            (&["--log-json", "x", "codec"][..], "--log-json"),
            (
                &["serve", "--addr", "127.0.0.1:0", "--log-json", "x"],
                "--log-json",
            ),
        ] {
            let err = run(&s(args)).expect_err(flag).to_string();
            let want = format!("unknown argument `{flag}`");
            assert!(err.contains(&want), "{args:?}: got {err}");
        }
    }

    #[test]
    fn net_command_flags_are_validated() {
        assert!(run(&s(&["serve"])).is_err()); // --addr missing
        assert!(run(&s(&["serve", "--addr", "x", "--bogus", "1"])).is_err());
        assert!(run(&s(&["serve", "--addr", "x", "--workers"])).is_err());
        assert!(run(&s(&["serve", "--addr", "x", "--scheme", "zstd"])).is_err());
        assert!(run(&s(&["serve", "--addr", "x", "--sparsity", "3.0"])).is_err());
        assert!(run(&s(&["worker", "--addr", "127.0.0.1:1"])).is_err()); // --id missing
        assert!(run(&s(&["worker", "--id", "0"])).is_err()); // --addr missing
        assert!(run(&s(&["worker", "--addr", "not-an-address", "--id", "0"])).is_err());
        // A relaunched worker takes no flag to resume: the old one is unknown.
        let retired = run(&s(&["worker", "--addr", "x", "--id", "0", "--rejoin"])).unwrap_err();
        assert!(retired.to_string().contains("`--rejoin`"), "got: {retired}");
        // Fault-tolerance flags are validated up front.
        assert!(run(&s(&["serve", "--addr", "x", "--max-rejoins", "many"])).is_err());
        assert!(run(&s(&["serve", "--addr", "x", "--rejoin-timeout"])).is_err());
        let bad_fault = run(&s(&[
            "worker",
            "--addr",
            "127.0.0.1:1",
            "--id",
            "0",
            "--inject-fault",
            "meteor@3",
        ]))
        .expect_err("unknown fault kind");
        assert!(bad_fault.to_string().contains("meteor"), "got: {bad_fault}");
        assert!(run(&s(&["simulate", "--bogus", "1"])).is_err());
        // Unknown and retired schemes, named by the error beside every
        // token the list holds.
        for scheme in ["zstd", "fp16"] {
            for cmd in [vec!["serve", "--addr", "x"], vec!["simulate"]] {
                let err = run(&s(&[&cmd[..], &["--scheme", scheme]].concat()))
                    .expect_err("an unknown scheme must be rejected");
                let text = err.to_string();
                assert!(text.contains(&format!("`{scheme}`")), "got: {text}");
                for token in SchemeKind::tokens() {
                    assert!(text.contains(token), "{token} missing from: {text}");
                }
            }
        }
        // Policy specs are validated at every entry point, and the retired
        // forms are gone.
        for spec in [
            "warp:9",
            "feedback:ratio=12,start=5.0",
            "schedule:from=1.0,to=1.9,over=3",
            "fixed:1.5",
            "static:1.5",
            "feedback:residual=0.5,start=1.8",
            "@x.json",
        ] {
            for cmd in [vec!["serve", "--addr", "x"], vec!["simulate"]] {
                let err = run(&s(&[&cmd[..], &["--policy", spec]].concat()))
                    .expect_err("bad policy spec must be rejected");
                assert!(err.to_string().contains("policy"), "{spec}: {err}");
            }
        }
        // The worker takes its policy from the server and no flag for it.
        let err = run(&s(&[
            "worker",
            "--addr",
            "127.0.0.1:1",
            "--id",
            "0",
            "--policy",
            "static",
        ]))
        .expect_err("worker --policy is not a flag");
        assert!(err.to_string().contains("`--policy`"), "got: {err}");
    }

    #[test]
    fn serve_and_simulate_refuse_a_config_alike_before_binding() {
        // An address already taken: a serve that bound before validating
        // would fail on the bind instead.
        let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = taken.local_addr().expect("addr").to_string();
        let experiment = ["--workers", "0", "--steps", "1", "--width", "8"];
        let simulate = run(&s(&[&["simulate"][..], &experiment].concat()))
            .expect_err("simulate must refuse a run without workers");
        let serve = run(&s(&[&["serve", "--addr", &addr][..], &experiment].concat()))
            .expect_err("serve must refuse a run without workers");
        assert_eq!(simulate.to_string(), "at least one worker required");
        assert_eq!(serve.to_string(), simulate.to_string());
    }

    #[test]
    fn simulate_runs_every_scheme_token_under_its_paper_label() {
        let usage = usage();
        for token in SchemeKind::tokens() {
            assert!(usage.contains(token), "usage lacks {token}");
            let out = run(&s(&[
                "simulate",
                "--workers",
                "2",
                "--steps",
                "2",
                "--width",
                "32",
                "--blocks",
                "1",
                "--batch",
                "4",
                "--sparsity",
                "1.5",
                "--scheme",
                token,
            ]))
            .unwrap_or_else(|e| panic!("simulate --scheme {token}: {e}"));
            let label = SchemeKind::parse(token, 1.5).expect("listed token").label();
            assert!(
                out.contains(&format!("simulated 2 worker(s) for 2 steps [{label}]")),
                "{token}: {out}"
            );
        }
    }

    #[test]
    fn simulate_command_is_deterministic() {
        let args = s(&[
            "simulate",
            "--workers",
            "2",
            "--steps",
            "2",
            "--width",
            "8",
            "--blocks",
            "1",
            "--batch",
            "4",
        ]);
        let a = run(&args).expect("first simulate");
        let b = run(&args).expect("second simulate");
        assert_eq!(a, b);
        assert!(a.contains("final model crc32: "), "got: {a}");
        assert!(a.contains("simulated 2 worker(s) for 2 steps"), "got: {a}");
    }

    #[test]
    fn odd_length_f32_rejected() {
        let input = tmp("odd.f32");
        std::fs::write(&input, [1u8, 2, 3]).unwrap();
        assert!(run(&s(&["stats", input.to_str().unwrap()])).is_err());
    }

    #[test]
    fn a_dump_with_a_metrics_snapshot_still_renders() {
        // A flight dump from a build that embedded the metrics registry's
        // snapshot (its `gauges` array included): `trace` reads past it.
        let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/metrics.flight.json");
        let text = run(&s(&["trace", fixture])).expect("offline render");
        assert!(
            text.contains("flight recorder: trigger=abort steps_recorded=4"),
            "got: {text}"
        );
        assert!(
            text.contains("detail: worker 0 disconnected at step 4"),
            "got: {text}"
        );
        assert!(!text.contains("net.server.bytes_in"), "got: {text}");
        // The registry's reader went with it.
        for args in [
            &["metrics", "--from", fixture][..],
            &["metrics", "127.0.0.1:1", "--json"],
        ] {
            let err = run(&s(args)).expect_err("no metrics command").to_string();
            assert!(err.contains("unknown command `metrics`"), "got: {err}");
        }
    }

    #[test]
    fn trace_command_flags_are_validated() {
        assert!(run(&s(&["trace"])).is_err()); // source missing
        assert!(run(&s(&["trace", "a", "b"])).is_err()); // two sources
        assert!(run(&s(&["trace", "a", "--bogus"])).is_err());
        assert!(run(&s(&["trace", "a", "--chrome"])).is_err()); // path missing
        assert!(run(&s(&["trace", "a", "--steps", "x"])).is_err());
        // Not a file → treated as a live address → unreachable.
        assert!(run(&s(&["trace", "not-an-address-or-file"])).is_err());
        // A report file without trace data points at THREELC_TRACE.
        let report = threelc_net::NetReport {
            result: threelc_distsim::run_experiment(&threelc_distsim::ExperimentConfig {
                workers: 1,
                batch_per_worker: 4,
                total_steps: 2,
                model_width: 8,
                model_blocks: 1,
                ..threelc_distsim::ExperimentConfig::for_scheme(
                    threelc_baselines::SchemeKind::Float32,
                )
            }),
            connections: vec![],
            node_traces: vec![],
            final_model_crc32: 0,
            faults: threelc_net::FaultsReport::default(),
            recent: Default::default(),
        };
        let path = tmp("untraced-report.json");
        std::fs::write(&path, serde_json::to_string(&report).unwrap()).unwrap();
        let err = run(&s(&["trace", path.to_str().unwrap()])).expect_err("no trace data");
        assert!(err.to_string().contains("THREELC_TRACE"), "got: {err}");
    }

    #[test]
    fn trace_command_renders_checks_and_exports_a_traced_loopback() {
        // End-to-end: a traced loopback serve/worker run through the CLI,
        // then `threelc trace` on the dumped report.
        let json = tmp("traced-report.json");
        threelc_obs::set_trace_enabled(true);
        let (addr, server) = serve_on_loopback(&[
            "--workers",
            "2",
            "--steps",
            "4",
            "--width",
            "16",
            "--blocks",
            "1",
            "--batch",
            "8",
            "--scheme",
            "3lc",
            "--sparsity",
            "1.5",
            "--json",
            json.to_str().unwrap(),
        ]);
        let workers: Vec<_> = (0..2)
            .map(|id| {
                let args = s(&["worker", "--addr", &addr, "--id", &id.to_string()]);
                std::thread::spawn(move || run(&args).map_err(|e| e.to_string()))
            })
            .collect();
        for w in workers {
            w.join().expect("worker thread").expect("worker run");
        }
        let report = server.join().expect("server thread").expect("serve run");
        threelc_obs::set_trace_enabled(false);
        assert!(
            report.contains("collected 3 node trace(s)"),
            "got: {report}"
        );

        // Render + export. The phase table and every phase name must show.
        let chrome = tmp("trace.chrome.json");
        let text = run(&s(&[
            "trace",
            json.to_str().unwrap(),
            "--chrome",
            chrome.to_str().unwrap(),
        ]))
        .expect("trace render");
        assert!(text.contains("3 node(s), 4 step(s)"), "got: {text}");
        assert!(text.contains("clock worker0"), "got: {text}");
        assert!(text.contains("wrote Chrome trace"), "got: {text}");
        let exported = std::fs::read_to_string(&chrome).expect("chrome file");
        let parsed: serde_json::Value = serde_json::from_str(&exported).expect("chrome parses");
        assert!(parsed.get("traceEvents").is_some());
        for phase in threelc_obs::PHASES {
            assert!(
                exported.contains(&format!("\"name\":\"{phase}\"")),
                "phase {phase} missing from Chrome export"
            );
        }

        // The removed gate is an unknown flag.
        let err =
            run(&s(&["trace", json.to_str().unwrap(), "--check"])).expect_err("--check is gone");
        assert!(err.to_string().contains("--check"), "got: {err}");
    }
}
