#!/usr/bin/env bash
# Repository CI gate: formatting, lints, build, the full test suite, the
# step-ledger smoke and tests, and the end-to-end CLI smokes. Everything
# runs offline against the vendored compat/ stubs.
set -euo pipefail
cd "$(dirname "$0")"

# Snapshot the tree up front; the final stage fails if any stage below
# created or modified tracked-or-untracked files.
status_before="$(git status --porcelain)"

echo "==> toolchain vs MSRV"
msrv="$(sed -n 's/^rust-version = "\(.*\)"$/\1/p' Cargo.toml | head -n1)"
have="$(rustc --version | sed -n 's/^rustc \([0-9][0-9.]*\).*/\1/p')"
if [ -z "$msrv" ] || [ -z "$have" ]; then
    echo "could not determine MSRV ($msrv) or toolchain version ($have)" >&2
    exit 1
fi
if [ "$(printf '%s\n%s\n' "$msrv" "$have" | sort -V | head -n1)" != "$msrv" ]; then
    echo "toolchain $have is older than MSRV $msrv" >&2
    exit 1
fi
echo "    rustc $have >= MSRV $msrv"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --offline --all-targets -- -D warnings

echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps

echo "==> cargo build --no-default-features (per crate)"
for crate in threelc-tensor threelc threelc-baselines threelc-learning \
    threelc-policy threelc-distsim threelc-net threelc-obs threelc-cli \
    threelc-bench; do
    echo "    $crate"
    cargo build --offline --no-default-features -p "$crate"
done

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test"
cargo test -q --offline

echo "==> cargo test --release (core + net)"
cargo test -q --offline --release -p threelc -p threelc-net

echo "==> step ledger (builds against the crates' public API; tests + --quick smoke)"
# ledger/ is a package of its own, not a workspace member, so no stage above
# compiles it: an API change in tensor/learning/distsim/net that breaks the
# benchmark would otherwise surface only in the benchmark driver. --quick is
# one short and one 5-step real loopback run plus a 3-step replay, with
# every output check on. Build output goes to ledger/target (git-ignored).
#
# A perf_opt or simplicity change is judged by its parent commit's
# benchmark, so it may not touch ledger/ or BENCHMARK.json (only a
# benchmark change may): the unedited ledger must build against the
# changed crates. Each PR of the stack is one commit, so the parent is
# HEAD while the change is still uncommitted and HEAD~1 once it is HEAD.
if [ -n "$status_before" ]; then base=HEAD; else base=HEAD~1; fi
if grep -Eq '^# ISSUE [0-9]* · \[(perf_opt|simplicity)\]' ISSUE.md && {
    ! git diff --quiet "$base" -- ledger BENCHMARK.json ||
        [ -n "$(git status --porcelain -- ledger BENCHMARK.json)" ]
}; then
    echo "a perf_opt or simplicity change may not edit ledger/ or BENCHMARK.json:" >&2
    git status --porcelain -- ledger BENCHMARK.json >&2
    git diff --stat "$base" -- ledger BENCHMARK.json >&2
    exit 1
fi
cargo build --release --offline --manifest-path ledger/Cargo.toml
cargo test -q --offline --manifest-path ledger/Cargo.toml
cargo run -q --release --offline --manifest-path ledger/Cargo.toml -- --quick

echo "==> codec dispatch matrix (forced scalar / swar / simd tiers)"
threelc=target/release/threelc
matrixdir=target/codec-matrix
rm -rf "$matrixdir"
mkdir -p "$matrixdir"
"$threelc" codec | tee "$matrixdir/codec.txt"
# Availability must be truthful: an x86-64 host with AVX2 that hides the
# simd tier would silently rot this matrix down to scalar-only coverage.
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
    if ! grep -q '^available: scalar swar simd$' "$matrixdir/codec.txt"; then
        echo "host CPU reports AVX2 but the simd tier claims unavailable" >&2
        exit 1
    fi
fi
tiers="$(sed -n 's/^available: //p' "$matrixdir/codec.txt")"
# Deterministic mixed-sparsity input shared by every tier below.
python3 - "$matrixdir/input.f32" <<'PYEOF'
import math
import struct
import sys

out = bytearray()
for i in range(100003):
    x = 0.0 if i % 3 == 0 else math.sin(i * 0.37) * 0.01
    out += struct.pack("<f", x)
with open(sys.argv[1], "wb") as f:
    f.write(out)
PYEOF
for tier in $tiers; do
    echo "    tier $tier: forced selection, core suite, net loopback, CLI output"
    # Forcing a tier the host supports must activate exactly that tier —
    # a silent downgrade here would mean the matrix no longer tests what
    # it claims to.
    if ! THREELC_CODEC_IMPL="$tier" "$threelc" codec \
        | grep -q "^active:    $tier (forced"; then
        echo "THREELC_CODEC_IMPL=$tier did not activate the $tier tier" >&2
        exit 1
    fi
    # The core suite holds the fused decode (`unpack_dequant`, the kernel
    # every push and pull now goes through) to its two-pass oracle on all
    # tiers in each leg and runs the compressor's own tests on the forced
    # one; the loopback suite then drives the engine's `decode_into` calls
    # on it end to end.
    THREELC_CODEC_IMPL="$tier" cargo test -q --offline -p threelc
    THREELC_CODEC_IMPL="$tier" cargo test -q --offline -p threelc-net --test loopback
    THREELC_CODEC_IMPL="$tier" "$threelc" compress "$matrixdir/input.f32" \
        "$matrixdir/$tier.3lc" --sparsity 1.5 >"$matrixdir/$tier.compress.log"
    grep -q "codec: $tier" "$matrixdir/$tier.compress.log"
    # A second container without zero-run encoding feeds the corrupt-input
    # check below (0xff is unambiguously invalid only without ZRE escapes).
    THREELC_CODEC_IMPL="$tier" "$threelc" compress "$matrixdir/input.f32" \
        "$matrixdir/$tier.nozre.3lc" --sparsity 1.5 --no-zre >/dev/null
done
first_tier=""
for tier in $tiers; do
    if [ -z "$first_tier" ]; then
        first_tier="$tier"
        continue
    fi
    for suffix in 3lc nozre.3lc; do
        if ! cmp -s "$matrixdir/$first_tier.$suffix" "$matrixdir/$tier.$suffix"; then
            echo "tier $tier produced different .$suffix bytes than $first_tier" >&2
            exit 1
        fi
    done
done
echo "    all tiers byte-identical on $(wc -c <"$matrixdir/$first_tier.3lc")-byte container"
# Corrupt-input parity: plant an invalid quartic byte (0xff > 242) in the
# payload; every tier must reject it with the *same* error text (same
# kind, same offset).
python3 - "$matrixdir/$first_tier.nozre.3lc" "$matrixdir/corrupt.3lc" <<'PYEOF'
import sys

data = bytearray(open(sys.argv[1], "rb").read())
data[len(data) // 2] = 0xFF
with open(sys.argv[2], "wb") as f:
    f.write(data)
PYEOF
for tier in $tiers; do
    rc=0
    THREELC_CODEC_IMPL="$tier" "$threelc" decompress "$matrixdir/corrupt.3lc" \
        "$matrixdir/corrupt.$tier.f32" >"$matrixdir/corrupt.$tier.err" 2>&1 || rc=$?
    if [ "$rc" = 0 ]; then
        echo "tier $tier decoded a corrupt container without error" >&2
        exit 1
    fi
    if ! cmp -s "$matrixdir/corrupt.$first_tier.err" "$matrixdir/corrupt.$tier.err"; then
        echo "tier $tier reported a different corrupt-input error than $first_tier:" >&2
        diff "$matrixdir/corrupt.$first_tier.err" "$matrixdir/corrupt.$tier.err" >&2 || true
        exit 1
    fi
done
grep -q "invalid quartic byte" "$matrixdir/corrupt.$first_tier.err"
echo "    corrupt container rejected identically by every tier"

echo "==> unsafe-code stage (sanitizer over the intrinsics kernels, the CRC fold and the ChaCha8 refill)"
# cargo miri would be the first choice, but the component is not
# installable on this image (offline). AddressSanitizer on a nightly
# toolchain covers the unsafe SIMD paths instead; the MSRV and stable
# toolchains cannot pass -Zsanitizer, so without a nightly the stage
# skips LOUDLY rather than failing hosts that lack one.
if [ "$(uname -m)" = x86_64 ] && rustup run nightly rustc --version >/dev/null 2>&1; then
    RUSTFLAGS="-Zsanitizer=address" cargo +nightly test -q --offline \
        -p threelc --lib kernels --target x86_64-unknown-linux-gnu
    RUSTFLAGS="-Zsanitizer=address" cargo +nightly test -q --offline \
        -p threelc --test dispatch_identity --target x86_64-unknown-linux-gnu
    RUSTFLAGS="-Zsanitizer=address" cargo +nightly test -q --offline \
        -p threelc-net --lib crc32 --target x86_64-unknown-linux-gnu
    RUSTFLAGS="-Zsanitizer=address" cargo +nightly test -q --offline \
        -p rand_chacha --target x86_64-unknown-linux-gnu
    echo "    AddressSanitizer clean: kernels unit tests + dispatch differential suite"
    echo "    + the frame checksum's pclmulqdq fold + the ChaCha8 SSE2 refill"
else
    echo "    SKIPPED: no nightly toolchain for -Zsanitizer=address (cargo miri is"
    echo "    not installed and cannot be fetched offline); the unsafe kernels, the"
    echo "    CRC fold and the ChaCha8 refill ran un-sanitized in the suites above"
fi

# (No chaos stanzas: disconnect@2 / kill@2 recovery onto the simulator's
# crc, and the same fault aborting under --max-rejoins 0, are
# crates/cli/tests/chaos_e2e.rs under `cargo test`. No aggregation-mode
# matrix either: there is one aggregation path, and its serve == simulate
# crc is asserted there and by loopback_run_matches_simulator_bit_for_bit.
# No analyze or flight stanzas: conserved attribution on a clean run, a
# delay@2:250 blamed on worker1/network and failing `analyze --check`, and
# an aborted run's flight dump rendering and failing `trace --check`, are
# crates/cli/tests/analyze_e2e.rs and flight_abort.rs. No trace stanzas:
# the nine-phase Chrome export, `trace --check` passing a healthy run and
# failing a THREELC_STRAGGLE_MS=250 one, and the offline `metrics --from`
# views are crates/cli/tests/trace_e2e.rs. No policy stanzas: adaptive
# multipliers stable and non-constant under simulate, and a feedback serve
# with a kill@2 worker relaunched matching simulate's crc and decision
# sequence, are crates/cli/tests/policy_e2e.rs.)

# serve_bg <stdout log> <serve flags...>: `threelc serve` in the background
# on a port the kernel picks (no window for another process to take it);
# sets serve_pid, and addr to the address serve reports once it has bound.
serve_bg() {
    local log="$1"
    shift
    "$threelc" serve --addr 127.0.0.1:0 "$@" >"$log" 2> >(tee "$log.err" >&2) &
    serve_pid=$!
    for _ in $(seq 1 200); do
        addr="$(sed -n 's/^listening on //p' "$log.err")"
        [ -n "$addr" ] && return 0
        sleep 0.05
    done
    echo "serve never reported the address it bound" >&2
    exit 1
}

echo "==> observability smoke (threelc top + metrics --watch on a live run)"
obsdir=target/obs-smoke
rm -rf "$obsdir"
mkdir -p "$obsdir"
# A straggling worker 0 stretches the run to a couple of seconds, leaving
# a window to scrape it live.
serve_bg "$obsdir/serve.log" --workers 2 --steps 20 --width 16 \
    --blocks 1 --batch 8 --scheme 3lc --sparsity 1.5
THREELC_STRAGGLE_MS=100 "$threelc" worker --addr "$addr" --id 0 \
    >"$obsdir/w0.log" &
w0=$!
"$threelc" worker --addr "$addr" --id 1 >"$obsdir/w1.log" &
w1=$!
top_ok=0
for _ in $(seq 1 100); do
    if "$threelc" top "$addr" --once >"$obsdir/top.txt" 2>/dev/null; then
        top_ok=1
        break
    fi
    sleep 0.05
done
if [ "$top_ok" != 1 ]; then
    echo "threelc top --once never rendered a frame from the live run" >&2
    exit 1
fi
# One row per worker, always — even before a worker's first step lands.
grep -q "^worker 0 " "$obsdir/top.txt"
grep -q "^worker 1 " "$obsdir/top.txt"
grep -q "2 worker(s)" "$obsdir/top.txt"
# The watcher follows the run and exits cleanly when the server goes away.
"$threelc" metrics "$addr" --watch 0.2 >"$obsdir/watch.txt" &
watch_pid=$!
wait "$w0"
wait "$w1"
wait "$serve_pid"
wait "$watch_pid"
grep -q "server went away" "$obsdir/watch.txt"
echo "    top rendered every worker row; --watch followed the run to the end"

echo "==> working tree must stay clean"
status_after="$(git status --porcelain)"
if [ "$status_before" != "$status_after" ]; then
    echo "a stage dirtied the working tree:" >&2
    diff <(printf '%s\n' "$status_before") <(printf '%s\n' "$status_after") >&2 || true
    exit 1
fi

echo "CI OK"
