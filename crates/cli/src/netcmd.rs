//! The `serve` and `worker` subcommands: the TCP parameter-server runtime
//! from `threelc-net`, driven from the command line.
//!
//! The server owns the full experiment configuration and distributes it in
//! the handshake, so a worker invocation needs nothing but an address and
//! a worker id.

use std::error::Error;
use std::fmt::Write as _;
use std::net::TcpListener;
use std::time::Duration;
use threelc::SparsityMultiplier;
use threelc_baselines::SchemeKind;
use threelc_distsim::{Cluster, ExperimentConfig, PolicySpec};
use threelc_net::{model_crc32, run_worker, serve, FaultPlan, ServeOptions, WorkerOptions};

type CliResult = Result<String, Box<dyn Error>>;

/// The one flag walker: flags in `valued` — `(name, what it needs)` pairs
/// — take exactly one value, flags in `boolean` take none, and any other
/// `--flag` is an error, as is a flag given twice (a reader of the flags
/// would see only one of its values). Returns the positional arguments, in
/// order.
pub(crate) fn split_flags<'a>(
    args: &'a [String],
    valued: &[(&str, &str)],
    boolean: &[&str],
) -> Result<Vec<&'a str>, Box<dyn Error>> {
    let mut positional = Vec::new();
    let mut seen = Vec::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        if let Some((_, needs)) = valued.iter().find(|(name, _)| *name == a) {
            if it.next().is_none() {
                return Err(format!("{a} requires {needs}").into());
            }
        } else if !boolean.contains(&a) {
            if a.starts_with("--") {
                return Err(format!("unknown argument `{a}`").into());
            }
            positional.push(a);
            continue;
        }
        if seen.contains(&a) {
            return Err(format!("`{a}` given twice").into());
        }
        seen.push(a);
    }
    Ok(positional)
}

/// Rejects unknown flags, flags missing their value, and positional
/// arguments. Every flag in `known` takes exactly one value.
fn check_flags(args: &[String], known: &[&str]) -> Result<(), Box<dyn Error>> {
    let valued: Vec<(&str, &str)> = known.iter().map(|&k| (k, "a value")).collect();
    match split_flags(args, &valued, &[])?.first() {
        Some(a) => Err(format!("unknown argument `{a}`").into()),
        None => Ok(()),
    }
}

/// The single positional argument a reader command takes, or the
/// command's own error for none / too many.
pub(crate) fn sole_positional<'a>(
    positional: &[&'a str],
    none: &str,
    many: &str,
) -> Result<&'a str, Box<dyn Error>> {
    match positional {
        [one] => Ok(one),
        [] => Err(none.into()),
        _ => Err(many.into()),
    }
}

/// Whether the boolean flag `name` is present.
pub(crate) fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The value following `name`, if the flag is present.
pub(crate) fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses the value following `name`, if present.
pub(crate) fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
) -> Result<Option<T>, Box<dyn Error>> {
    match flag_value(args, name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid value `{v}` for {name}").into()),
    }
}

/// The experiment-shape flags shared by `serve` and `simulate`.
const CONFIG_FLAGS: &[&str] = &[
    "--workers",
    "--steps",
    "--scheme",
    "--sparsity",
    "--seed",
    "--width",
    "--blocks",
    "--batch",
    "--eval-every",
    "--policy",
];

/// The flags only `serve` takes, beside [`CONFIG_FLAGS`].
const SERVE_FLAGS: &[&str] = &[
    "--addr",
    "--json",
    "--rejoin-timeout",
    "--max-rejoins",
    "--flight",
];

/// Builds the experiment configuration from the shared [`CONFIG_FLAGS`],
/// so `serve` and `simulate` agree byte-for-byte on what a given command
/// line trains, and refuse the same configurations with the same message
/// ([`ExperimentConfig::validate`]) before either binds or builds anything.
fn config_from_flags(args: &[String]) -> Result<ExperimentConfig, Box<dyn Error>> {
    let sparsity: f32 = parse_flag(args, "--sparsity")?.unwrap_or(1.0);
    SparsityMultiplier::new(sparsity).map_err(|_| "sparsity must be in [1.0, 2.0)")?;
    let scheme = match flag_value(args, "--scheme") {
        Some(token) => SchemeKind::parse(token, sparsity)?,
        None => SchemeKind::three_lc(sparsity),
    };
    let mut config = ExperimentConfig::for_scheme(scheme);
    if let Some(v) = parse_flag(args, "--workers")? {
        config.workers = v;
    }
    if let Some(v) = parse_flag(args, "--steps")? {
        config.total_steps = v;
    }
    if let Some(v) = parse_flag(args, "--seed")? {
        config.seed = v;
    }
    if let Some(v) = parse_flag(args, "--width")? {
        config.model_width = v;
    }
    if let Some(v) = parse_flag(args, "--blocks")? {
        config.model_blocks = v;
    }
    if let Some(v) = parse_flag(args, "--batch")? {
        config.batch_per_worker = v;
    }
    if let Some(v) = parse_flag(args, "--eval-every")? {
        config.eval_every = v;
    }
    if let Some(spec) = flag_value(args, "--policy") {
        config.policy = PolicySpec::parse(spec).map_err(|e| format!("--policy: {e}"))?;
    }
    config.validate()?;
    Ok(config)
}

/// `threelc serve`: parse, bind `--addr`, run a full experiment as the
/// parameter server ([`ServeCmd::run`]), and report.
pub fn serve_cmd(args: &[String]) -> CliResult {
    let cmd = ServeCmd::parse(args)?;
    let addr =
        flag_value(args, "--addr").ok_or("--addr is required (e.g. --addr 127.0.0.1:7171)")?;
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    // The port actually bound, for a caller that asked for port 0: what it
    // dials its workers at, with no window in which another process can
    // take the port.
    eprintln!("listening on {}", listener.local_addr()?);
    cmd.run(&listener)
}

/// A parsed `serve` command line: everything but the address to bind.
pub(crate) struct ServeCmd {
    config: ExperimentConfig,
    opts: ServeOptions,
    json: Option<String>,
}

impl ServeCmd {
    /// Parses every `serve` flag but `--addr`, which it accepts and
    /// ignores.
    pub(crate) fn parse(args: &[String]) -> Result<ServeCmd, Box<dyn Error>> {
        check_flags(args, &[CONFIG_FLAGS, SERVE_FLAGS].concat())?;
        let config = config_from_flags(args)?;
        let mut opts = ServeOptions::default();
        if let Some(secs) = parse_flag::<u64>(args, "--rejoin-timeout")? {
            opts.rejoin_timeout = Duration::from_secs(secs);
        }
        if let Some(v) = parse_flag(args, "--max-rejoins")? {
            opts.max_rejoins = v;
        }
        let json = flag_value(args, "--json").map(str::to_string);
        // The flight recorder dumps to an explicit --flight path, or rides
        // along with --json as `<report>.flight.json`. Without either flag
        // there is nowhere sensible to write, so no dump is armed.
        opts.flight = match (flag_value(args, "--flight"), &json) {
            (Some(path), _) => Some(path.to_string()),
            (None, Some(json)) => {
                let stem = json.strip_suffix(".json").unwrap_or(json);
                Some(format!("{stem}.flight.json"))
            }
            (None, None) => None,
        };
        Ok(ServeCmd { config, opts, json })
    }

    /// Serves the run on `listener`, which the caller bound, and renders
    /// the report.
    pub(crate) fn run(&self, listener: &TcpListener) -> CliResult {
        let ServeCmd { config, opts, json } = self;
        let bound = listener.local_addr()?;
        let report = serve(listener, config, opts)?;

        if let Some(path) = json {
            let json = serde_json::to_string(&report)?;
            std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        }

        let result = &report.result;
        let (push, pull, raw) = result
            .trace
            .steps
            .iter()
            .fold((0u64, 0u64, 0u64), |acc, s| {
                (
                    acc.0 + s.push_bytes,
                    acc.1 + s.pull_bytes,
                    acc.2 + s.raw_bytes,
                )
            });
        let mut out = String::new();
        writeln!(
            out,
            "served {} worker(s) for {} steps on {bound} [{}]",
            config.workers, config.total_steps, result.scheme_label
        )?;
        writeln!(
            out,
            "final eval: loss {:.4}, accuracy {:.2}%",
            result.final_eval.loss,
            result.final_eval.accuracy * 100.0
        )?;
        writeln!(out, "final model crc32: {:08x}", report.final_model_crc32)?;
        write_policy_summary(&mut out, &result.trace.policy)?;
        if report.faults.disconnects > 0 || report.faults.rejoins > 0 {
            writeln!(
                out,
                "faults: {} disconnect(s), {} rejoin(s)",
                report.faults.disconnects, report.faults.rejoins
            )?;
            for e in &report.faults.events {
                writeln!(
                    out,
                    "fault [{}] step {} worker {}: {}",
                    e.kind, e.step, e.worker, e.detail
                )?;
            }
        }
        writeln!(
            out,
            "traffic: push {push} B, pull {pull} B, raw {raw} B (payloads, all workers)"
        )?;
        for conn in &report.connections {
            let c = &conn.counters;
            writeln!(
                out,
                "worker {} @ {}: in {} B / {} frames, out {} B / {} frames, socket {:.3}s",
                conn.worker,
                conn.peer,
                c.bytes_in,
                c.frames_in,
                c.bytes_out,
                c.frames_out,
                c.socket_seconds
            )?;
        }
        if !report.node_traces.is_empty() {
            writeln!(
                out,
                "collected {} node trace(s); render with `threelc trace <report.json>`",
                report.node_traces.len()
            )?;
        }
        Ok(out)
    }
}

/// One line summarizing an adaptive run's decision sequence: the label,
/// the tensor-0 multiplier per step (the sequence CI asserts is
/// non-constant), and the count of distinct multipliers. Prints nothing
/// for a static run.
fn write_policy_summary(
    out: &mut String,
    policy: &threelc_distsim::PolicyTrace,
) -> Result<(), Box<dyn Error>> {
    if policy.records.is_empty() {
        return Ok(());
    }
    let mults: Vec<String> = policy
        .records
        .iter()
        .filter(|r| r.tensor == 0)
        .map(|r| format!("{}", r.s))
        .collect();
    let distinct: std::collections::BTreeSet<u32> =
        policy.records.iter().map(|r| r.s.to_bits()).collect();
    writeln!(
        out,
        "policy [{}]: {} distinct multiplier(s); tensor-0 sequence: {}",
        policy.label,
        distinct.len(),
        mults.join(" ")
    )?;
    Ok(())
}

/// `threelc simulate`: run the same experiment a `serve`/`worker` pair
/// would, entirely in-process, and print the same final-model fingerprint
/// line. The chaos smoke in CI compares this line against a faulted
/// networked run's — bit-identical recovery, checked from the shell.
pub fn simulate_cmd(args: &[String]) -> CliResult {
    check_flags(args, CONFIG_FLAGS)?;
    let config = config_from_flags(args)?;

    let mut cluster = Cluster::new(config);
    for _ in 0..config.total_steps {
        cluster.step();
    }
    let eval = cluster.evaluate();
    let mut out = String::new();
    writeln!(
        out,
        "simulated {} worker(s) for {} steps [{}]",
        config.workers,
        config.total_steps,
        config.scheme.label()
    )?;
    writeln!(
        out,
        "final eval: loss {:.4}, accuracy {:.2}%",
        eval.loss,
        eval.accuracy * 100.0
    )?;
    writeln!(
        out,
        "final model crc32: {:08x}",
        model_crc32(cluster.global_model())
    )?;
    write_policy_summary(&mut out, cluster.policy_trace())?;
    Ok(out)
}

/// `threelc worker`: join a serving parameter server and train.
pub fn worker_cmd(args: &[String]) -> CliResult {
    const FLAGS: &[&str] = &["--addr", "--id", "--max-rejoins", "--inject-fault"];
    check_flags(args, FLAGS)?;
    let addr =
        flag_value(args, "--addr").ok_or("--addr is required (e.g. --addr 127.0.0.1:7171)")?;
    let id: u16 = parse_flag(args, "--id")?.ok_or("--id is required (0-based worker id)")?;

    let mut wopts = WorkerOptions::new(addr, id);
    if let Some(v) = parse_flag(args, "--max-rejoins")? {
        wopts.max_rejoins = v;
    }
    wopts.fault = match flag_value(args, "--inject-fault") {
        Some(spec) => Some(FaultPlan::parse(spec)?),
        None => FaultPlan::from_env()?,
    };
    let outcome = run_worker(&wopts)?;
    let c = &outcome.counters;
    let mut out = String::new();
    writeln!(
        out,
        "worker {id} finished {} steps against {addr} [{}]",
        outcome.steps,
        outcome.config.scheme.label()
    )?;
    if outcome.rejoins > 0 {
        writeln!(
            out,
            "rejoined {} time(s) after losing the server",
            outcome.rejoins
        )?;
    }
    writeln!(
        out,
        "traffic: in {} B / {} frames, out {} B / {} frames, {} retries",
        c.bytes_in, c.frames_in, c.bytes_out, c.frames_out, c.retries
    )?;
    writeln!(out, "time: socket {:.3}s", c.socket_seconds)?;
    Ok(out)
}
