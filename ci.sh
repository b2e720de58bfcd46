#!/usr/bin/env bash
# Repository CI gate: formatting, lints, release build, full test suite.
# Run locally before pushing; .github/workflows/ci.yml runs the same steps.
set -euo pipefail
cd "$(dirname "$0")"

# Informational, not a gate: the code-line count (neither blank nor a
# `//` comment) of crates/*/src that ROADMAP asks every change to report.
echo "==> code lines in crates/*/src: $(find crates/*/src -name '*.rs' -print0 \
    | xargs -0 cat | grep -Evc '^[[:space:]]*(//|$)')"

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
# The budget holds the widened (production) mode to autotuner-gate speed.
# tandem_lint times it as the best of five passes over the zoo; that
# measured a median of 8.3 ms over 11 runs on a 2-vCPU host, and the
# budget is at most 3x the median, so a 3x regression fails here. Over
# budget, the step prints the wall per pass, largest first. It also exits
# non-zero on any post-dedup error or any widened/exact divergence.
# Per model, TANDEM_LINT.json also records distinct_blocks (block
# programs distinct up to sync group, the ones the compiler's verify gate
# verifies) and gate_ns (median wall of five schedule_graph_opts runs with
# verify on, gate_min_ns and gate_max_ns beside it); neither is gated.
echo "==> tandem-lint (static verification of the model zoo)"
cargo run --release -q --bin tandem_lint -- TANDEM_LINT.json --budget-ms 24

# Trace outputs land in artifacts/ (gitignored), not the repo root.
mkdir -p artifacts

# `tandem profile` exits non-zero if the model fails the verify gate or
# the attribution buckets don't sum to the reported latency; the traces
# are uploaded as CI artifacts.
echo "==> tandem profile (cycle-attribution traces: ResNet-50, BERT)"
cargo run --release -q --bin tandem -- profile resnet50 artifacts/resnet50.trace.json
cargo run --release -q --bin tandem -- profile bert artifacts/bert.trace.json

# Paper figures and extensions: `cargo test` pins `tandem figure all` to
# the golden in a debug build; this re-checks the release build byte for
# byte, so a release-only divergence in a modeled number fails here.
echo "==> tandem figure all (release output == tests/golden/figures_all.txt)"
cargo run --release -q --bin tandem -- figure all > artifacts/figures_all.txt
diff -u tests/golden/figures_all.txt artifacts/figures_all.txt

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
# Fails if requests/sec drops below the smoke_floor_rps, or LLM decode
# tokens/sec below the smoke_floor_llm_tok_ps, committed in the baseline
# BENCH_SERVE.json (the perf regression guards), or if a second GPT-2
# decode-table build on the warm pool returns different tables than the
# first. The smoke output goes to artifacts/ so host timings never
# overwrite the committed baseline.
echo "==> bench-serve (fleet engine throughput, smoke + regression floors)"
cargo run --release -q --bin bench_serve -- --smoke --out artifacts/BENCH_SERVE_SMOKE.json

# Schedule/tiling autotuner: the CI-sized search per zoo model, scored by
# the cached simulator, its winner gated by widened tandem-verify. The search is
# byte-deterministic, so the committed smoke_floor_cycles_* values in
# BENCH_TUNE.json are exact: the step fails if any model's smoke search
# lands above its floor (a schedule lever or the search got worse) or if
# the searches blow the committed wall budget (smoke_budget_s, 0.06 s:
# under 3x the median smoke wall of 0.0226 s over 13 runs on a 2-vCPU host,
# printed to the microsecond; over budget, the step prints each model's
# wall, largest first). The smoke
# output goes to artifacts/ so the committed full-mode baseline stays the
# floor source.
echo "==> tandem-tune (schedule autotuner, smoke + regression floors)"
cargo run --release -q --bin tandem_tune -- --smoke --out artifacts/BENCH_TUNE_SMOKE.json

# Whole-stack host benchmark, correctness only: short transformer_cold
# and cnn_cold runs (every cache cold, so every node is lowered, verified
# and simulated on the cold compile path) and short cnn_warm and
# transformer_warm runs (caches filled in set-up, so runs, tuner siblings
# and serving tables take the warm paths; transformer_warm's siblings
# answer most nodes from each run's own table of node reports) check
# every phase's result against the uncached reference and must report
# "correct": true on their last line. Their timings are not gated here (a
# 2 s run on a shared CI runner is too noisy for that).
for workload in transformer_cold cnn_cold cnn_warm transformer_warm; do
    echo "==> hostbench (whole-stack correctness smoke, $workload)"
    hostbench_out=$(cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)
    case "$hostbench_out" in
        *'"correct": true'*) ;;
        *) echo "hostbench $workload smoke failed: $hostbench_out" >&2; exit 1 ;;
    esac
done

echo "CI OK"
