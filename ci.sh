#!/usr/bin/env bash
# Repository CI gate: formatting, lints, build, the full test suite (the
# end-to-end CLI checks included), the step-ledger smoke and tests, the
# suites under each forced codec tier, and the sanitizer stage. Everything
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

echo "==> no fused multiply-add in the AVX2 GEMM instantiation"
# Every model CRC rests on each GEMM sum being separate IEEE multiplies and
# adds (DESIGN.md §17): `gemm::avx2` enables avx2 and nothing else, and
# Rust never contracts `a * b + c` on its own. Wider register blocks give
# the compiler more room to fuse, so the release build's AVX2 symbols are
# held to no vfmadd/vfmsub/vfnmadd/vfnmsub here.
if [ "$(uname -m)" = x86_64 ]; then
    avx2_asm="$(objdump -d --no-show-raw-insn -C target/release/threelc |
        awk '/^[0-9a-f]+ <threelc_tensor::gemm::avx2::[^>]*>:$/ { keep = 1 }
             /^$/ { keep = 0 }
             keep')"
    symbols="$(grep -c '^[0-9a-f]* <threelc_tensor::gemm::avx2::' <<<"$avx2_asm" || true)"
    if [ "$symbols" -lt 4 ] || ! grep -q 'ymm' <<<"$avx2_asm"; then
        echo "found $symbols gemm::avx2 symbols with ymm code in target/release/threelc, want 4" >&2
        exit 1
    fi
    if grep -E '\svfn?m(add|sub)' <<<"$avx2_asm" >&2; then
        echo "a fused multiply-add in gemm::avx2 (above) would move model bits" >&2
        exit 1
    fi
    echo "    $symbols gemm::avx2 symbols, $(grep -c 'ymm' <<<"$avx2_asm") ymm instructions, 0 fused"
else
    echo "    SKIPPED: gemm::avx2 is compiled on x86_64 only"
fi

echo "==> cargo test"
# --no-fail-fast: one failing suite must not hide the verdict of every
# suite after it.
cargo test -q --offline --no-fail-fast

echo "==> cargo test --release (core + net + paced link)"
# The paced-link suite times real steps through the relay: its rate and
# 3LC-vs-f32 ratio checks must hold at release compute speed, not only at
# the debug speed of the stage above.
cargo test -q --offline --release --no-fail-fast -p threelc -p threelc-net
cargo test -q --offline --release --no-fail-fast -p threelc-bench --test paced_link

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
# --locked: a crate change that would rewrite ledger/Cargo.lock fails here,
# naming the lockfile, rather than at the clean-tree stage below.
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
cargo build --release --offline --locked --manifest-path ledger/Cargo.toml
cargo test -q --offline --locked --no-fail-fast --manifest-path ledger/Cargo.toml
cargo run -q --release --offline --locked --manifest-path ledger/Cargo.toml -- --quick

echo "==> forced codec tiers (core suite + baseline strips + server step oracle + net loopback on each)"
# Each leg forces one tier the host can run: the core suite holds each
# tier's encoder — the one lend-and-fold path every design and `compress`
# take — to the paper-step oracle (quantize, quartic encode, zero-run
# encode, run one by one, and the residual `acc − q·scale`), covers the
# zero-run kernels — the compressor zero-run-encodes in place on the forced
# tier (the portable map-and-filter loop on scalar and SWAR, the AVX2
# kernel on simd), and tests/zre_oracle.rs holds every tier's encoder and
# the shared expander to the paper's byte-at-a-time loops — holds the
# fused decode (`unpack_dequant` and its plane kernel, which every push
# and pull goes through) to its two-pass oracle on all tiers and runs the
# compressor's own tests on the forced one; the baselines' proptests hold
# every design's strips to its `decode_into` and its `stage` errors to its
# `decompress` (stochastic ternary's strips run 3LC's plane kernel), since
# every design's pushes are staged and swept strip by strip on the server;
# aggregate_identity then holds every design's server step — stage, the
# fused strip sweep and re-encode — to its dense f32 oracle on it; the
# loopback suite drives the engine's decode calls on it end to end. That the forced tier is the active one, that an
# AVX2 host offers simd, and that every tier writes the same `.3lc` bytes
# and rejects a corrupt one alike is crates/cli/tests/codec_matrix.rs.
tiers="$(target/release/threelc codec | sed -n 's/^available: //p')"
for tier in $tiers; do
    echo "    tier $tier"
    THREELC_CODEC_IMPL="$tier" cargo test -q --offline --no-fail-fast -p threelc
    THREELC_CODEC_IMPL="$tier" cargo test -q --offline --no-fail-fast -p threelc-baselines --test proptests
    THREELC_CODEC_IMPL="$tier" cargo test -q --offline --no-fail-fast -p threelc-distsim --test aggregate_identity
    THREELC_CODEC_IMPL="$tier" cargo test -q --offline --no-fail-fast -p threelc-net --test loopback
done

echo "==> unsafe-code stage (sanitizer over the intrinsics kernels, the CRC fold, the ChaCha8 refill, the AVX2 GEMM and the AVX2 normal kernel)"
# cargo miri would be the first choice, but the component is not
# installable on this image (offline). AddressSanitizer on a nightly
# toolchain covers the unsafe SIMD paths instead; the MSRV and stable
# toolchains cannot pass -Zsanitizer, so without a nightly the stage
# skips LOUDLY rather than failing hosts that lack one.
if [ "$(uname -m)" = x86_64 ] && rustup run nightly rustc --version >/dev/null 2>&1; then
    RUSTFLAGS="-Zsanitizer=address" cargo +nightly test -q --offline --no-fail-fast \
        -p threelc --lib kernels --target x86_64-unknown-linux-gnu
    RUSTFLAGS="-Zsanitizer=address" cargo +nightly test -q --offline --no-fail-fast \
        -p threelc --test dispatch_identity --target x86_64-unknown-linux-gnu
    RUSTFLAGS="-Zsanitizer=address" cargo +nightly test -q --offline --no-fail-fast \
        -p threelc --test zre_oracle --target x86_64-unknown-linux-gnu
    RUSTFLAGS="-Zsanitizer=address" cargo +nightly test -q --offline --no-fail-fast \
        -p threelc-net --lib crc32 --target x86_64-unknown-linux-gnu
    RUSTFLAGS="-Zsanitizer=address" cargo +nightly test -q --offline --no-fail-fast \
        -p rand_chacha --target x86_64-unknown-linux-gnu
    RUSTFLAGS="-Zsanitizer=address" cargo +nightly test -q --offline --no-fail-fast \
        -p threelc-tensor --lib gemm --target x86_64-unknown-linux-gnu
    RUSTFLAGS="-Zsanitizer=address" cargo +nightly test -q --offline --no-fail-fast \
        -p threelc-tensor --lib init --target x86_64-unknown-linux-gnu
    echo "    AddressSanitizer clean: kernels unit tests + dispatch differential suite"
    echo "    + the zero-run oracle suite (every tier's in-place encoder and the expander)"
    echo "    + the frame checksum's pclmulqdq fold + the ChaCha8 SSE2 refill"
    echo "    + the GEMM unit tests (AVX2 instantiation against the baseline)"
    echo "    + the init unit tests (AVX2 normal kernel against the baseline and libm)"
else
    echo "    SKIPPED: no nightly toolchain for -Zsanitizer=address (cargo miri is"
    echo "    not installed and cannot be fetched offline); the unsafe kernels, the"
    echo "    CRC fold, the ChaCha8 refill and the AVX2 GEMM and normal-kernel"
    echo "    instantiations ran un-sanitized in the suites above"
fi

# (No chaos stanzas: disconnect@2 / kill@2 recovery onto the simulator's
# crc, and the same fault aborting under --max-rejoins 0, are
# crates/cli/tests/chaos_e2e.rs under `cargo test`. No aggregation-mode
# matrix either: there is one aggregation path, and its serve == simulate
# crc is asserted there and by loopback_run_matches_simulator_bit_for_bit.
# No per-scheme stanzas: serve == simulate for every `--scheme` design
# (final crc, per-step bytes, worker replicas) is loopback.rs's
# every_scheme_design_serves_what_the_simulator_trains, run above under
# every forced codec tier.
# No analyze or flight stanzas: conserved attribution and the per-tensor
# view of a clean run, and a delay@2:250 blamed on worker1/network and
# failing `analyze --check` (the one slow-worker gate), are
# crates/cli/tests/analyze_e2e.rs; an aborted run's flight dump naming its
# fault is flight_abort.rs. No trace stanzas: the nine-phase Chrome export
# of a traced run, and its report booking every connection's bytes, are
# crates/cli/tests/trace_e2e.rs. No policy stanzas:
# adaptive multipliers stable and non-constant under simulate, and a
# feedback serve with a kill@2 worker relaunched matching simulate's crc
# and decision sequence, are crates/cli/tests/policy_e2e.rs. No
# observability stanza: `top --once` rendering every worker row of a live
# run is crates/cli/tests/observability_e2e.rs.)

echo "==> working tree must stay clean"
status_after="$(git status --porcelain)"
if [ "$status_before" != "$status_after" ]; then
    echo "a stage dirtied the working tree:" >&2
    diff <(printf '%s\n' "$status_before") <(printf '%s\n' "$status_after") >&2 || true
    exit 1
fi

echo "CI OK"
