#!/usr/bin/env bash
# Repository CI gate: formatting, lints, release build, full test suite.
# Run locally before pushing; .github/workflows/ci.yml runs the same steps.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Broken or private intra-doc links fail the gate. `--lib` because the
# tandem_tune binary's doc page would collide with the tandem-tune crate's.
echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# Static verification of the full zoo in both loop-summarization modes.
# The budget holds the widened (production) mode to autotuner-gate speed:
# the full-zoo widened verify measured ~17ms locally, so 250ms leaves
# >10x headroom for slow CI runners while still catching a regression to
# per-iteration cost. Exits non-zero on any post-dedup error, on any
# widened/exact divergence, or when over budget.
echo "==> tandem-lint (static verification of the model zoo)"
cargo run --release -q --bin tandem_lint -- TANDEM_LINT.json --budget-ms 250

# Trace outputs land in artifacts/ (gitignored), not the repo root.
mkdir -p artifacts

# tandem_profile exits non-zero if the attribution buckets don't sum to
# the reported latency; the traces are uploaded as CI artifacts.
echo "==> tandem-profile (cycle-attribution traces: ResNet-50, BERT)"
cargo run --release -q --bin tandem_profile -- resnet50 artifacts/resnet50.trace.json
cargo run --release -q --bin tandem_profile -- bert artifacts/bert.trace.json

# Executor caches: bench_exec re-asserts that cold and warm cached runs
# report exactly what Npu::uncached reports, on every zoo model. Its
# timings go to artifacts/; the committed BENCH_EXEC.json baseline is not
# rewritten here, and no timing is gated beyond the binary's own
# warm-speedup sanity bar.
echo "==> bench-exec (cached == uncached on the zoo)"
cargo run --release -q --bin bench_exec -- artifacts/BENCH_EXEC_SMOKE.json

# Multi-NPU serving sweep: policies × fleet sizes over the zoo; the
# SERVE.json artifact is byte-deterministic for a fixed seed.
echo "==> tandem-serve (fleet serving sweep, smoke)"
cargo run --release -q --bin tandem_serve -- --smoke SERVE.json --trace artifacts/fleet.trace.json

# Shared-HBM contention: the BERT-heavy sweep with and without a finite
# shared-bandwidth budget (tail-latency cost of the shared stack).
echo "==> tandem-serve (shared-HBM contention scenario, smoke)"
cargo run --release -q --bin tandem_serve -- --scenario contention --smoke --out SERVE_CONTENTION.json

# LLM decode serving: static vs continuous vs preemptive batching over
# GPT-2 prefill/decode-step cost tables; SERVE_LLM.json quantifies the
# continuous-over-static p99-TTFT and tokens/sec wins per fleet size.
echo "==> tandem-serve (LLM continuous-batching scenario, smoke)"
cargo run --release -q --bin tandem_serve -- --scenario llm --smoke --out SERVE_LLM.json

# The three smoke serving artifacts are committed and byte-deterministic:
# regenerating them must leave no diff.
echo "==> serve-artifact drift check"
git diff --exit-code -- SERVE.json SERVE_CONTENTION.json SERVE_LLM.json

# Fleet-engine throughput: streaming-statistics serving at CI size.
# Fails if requests/sec drops below the smoke_floor_rps committed in
# the baseline BENCH_SERVE.json (the perf regression guard).
echo "==> bench-serve (fleet engine throughput, smoke + regression floor)"
cargo run --release -q --bin bench_serve -- --smoke

# Schedule/tiling autotuner: the CI-sized search per zoo model, scored by
# the cached simulator and gated by widened tandem-verify. The search is
# byte-deterministic, so the committed smoke_floor_cycles_* values in
# BENCH_TUNE.json are exact: the step fails if any model's smoke search
# lands above its floor (a schedule lever or the search got worse) or if
# the searches blow the committed wall budget. The smoke output goes to
# artifacts/ so the committed full-mode baseline stays the floor source.
echo "==> tandem-tune (schedule autotuner, smoke + regression floors)"
cargo run --release -q --bin tandem_tune -- --smoke --out artifacts/BENCH_TUNE_SMOKE.json

# Whole-stack host benchmark, correctness only: a short transformer_cold
# run checks every phase's result against the uncached reference and
# must report "correct": true on its last line. Its timings are not
# gated here (a 2 s run on a shared CI runner is too noisy for that).
echo "==> hostbench (whole-stack correctness smoke)"
hostbench_out=$(cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
    --workload transformer_cold --seed 1 --seconds 2 --trace 0 | tail -n 1)
case "$hostbench_out" in
    *'"correct": true'*) ;;
    *) echo "hostbench smoke failed: $hostbench_out" >&2; exit 1 ;;
esac

echo "CI OK"
