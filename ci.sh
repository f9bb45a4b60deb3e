#!/usr/bin/env bash
# The full local gate: everything CI runs, in the same order.
#
#   ./ci.sh
#
# The build is hermetic (workspace-only dependencies), so every cargo
# invocation runs --offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --check

echo "== clippy =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== build =="
cargo build --release --offline

echo "== test =="
# Every crate's suites, not just the root package's: a test that exists
# blocks a merge.
cargo test -q --offline --workspace

echo "== planner release equivalence =="
# The daemon serves answers from release code, where floating-point
# codegen may differ from the debug test build. PipeDream's pruned DP
# must still match its golden answers and its full-scan oracle, every
# move priced from a stage table must still equal the built candidate's
# price, the slotted max-min solver must still match its progressive
# fill oracle, and verify_plan must still measure its golden engine
# throughputs, bit for bit, in release.
cargo test -q --release --offline -p ap-planner --test pipedream_golden --test pipedream_oracle
cargo test -q --release --offline -p autopipe --test delta_pricing
cargo test -q --release --offline -p ap-cluster --test fair_share_oracle
cargo test -q --release --offline -p ap-serve --test verify_golden

echo "== matmul and tanh release equivalence =="
# The equivalence suites run in debug, where vectorized codegen differs
# from what ships. matmul_bench asserts that the kernel and its
# transposed-operand forms are bit-identical to the naive loop at its
# shapes, and that the tanh slice kernel equals the scalar tanh, with
# release codegen, before timing; its numbers go to a temp file, not the
# committed BENCH_hotpath.json. The tanh suite's pinned output bits must
# hold in release too.
mm_tmp="$(mktemp -d)"
trap 'rm -rf "$mm_tmp"' EXIT
cargo run --release --offline -p ap-bench --bin matmul_bench -- "$mm_tmp/BENCH_hotpath.json"
cargo test -q --release --offline -p ap-nn --test tanh

echo "== matmul and tanh equivalence without AVX-512 =="
# Where AVX-512 is enabled the kernels run on 512-bit lanes (the
# product's register block is 8 rows of them); elsewhere on portable
# lanes (2 rows), so an AVX-512 host would never test the portable build.
# Run the equivalence and tanh suites once more with AVX-512 off, in
# their own target directory: tanh's pinned bits must not move.
RUSTFLAGS="-C target-cpu=native -C target-feature=-avx512f" CARGO_TARGET_DIR=target/no-avx512 \
  cargo test -q --offline -p ap-nn --test matmul_equivalence --test tanh

echo "== benchmark build =="
# perfbench (BENCHMARK.json's command) builds the workspace crates from
# source as path dependencies, outside the workspace. Its unit tests
# include probe_fit_matches_refine_plan, which checks that its mirror of
# refine_plan's memory fit still reaches the program's decision, and
# --self-test checks seeded inputs and bit-identical quality. An API
# change that breaks either fails here, not in the next benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --self-test

echo "== chaos drill =="
# Fault-injection smoke: exits 2 on a wedged (deadlocked) run and 3 if
# AutoPipe fails to keep completing work through a scored outage.
cargo run --release --offline -p ap-bench --bin repro -- chaos --smoke

echo "== committed results regenerate =="
# repro_out/ is the repository's claim to reproduce the paper, so every
# deterministic figure must regenerate byte for byte. fig12 records
# wall-clock time and is left out. The full chaos run also writes
# BENCH_chaos.json into its working directory, so it runs in the temp dir
# and that file is compared too.
cargo build --release --offline -p ap-bench --bin repro
repro="$PWD/target/release/repro"
repro_tmp="$(mktemp -d)"
trap 'rm -rf "$mm_tmp" "$repro_tmp"' EXIT
for fig in fig2 fig3 fig4 fig5 fig6 fig8 fig9 fig10 fig11 fig13 multijob ablations chaos; do
  (cd "$repro_tmp" && "$repro" "$fig" --json . >/dev/null)
  cmp "$repro_tmp/$fig.json" "repro_out/$fig.json"
done
cmp "$repro_tmp/BENCH_chaos.json" BENCH_chaos.json

echo "== committed benchmark files regenerate =="
# cluster-bench and mem-bench write BENCH_cluster.json and BENCH_mem.json
# into their working directory, so they run in a temp dir. BENCH_mem is
# closed-form model arithmetic and must match whole. BENCH_cluster also
# records wall-clock latencies: every line holding one of the keys listed
# in ci/bench_cluster_wallclock_keys.txt is dropped from both files, and
# the rest (placements, counts, objectives) must match. ap-sched seeds
# every job with PipeDream's DP, so this also guards the DP's answers.
# A failure here is not always a diff: the full cluster-bench run exits 3
# when its wall-clock gate (full_replan_speedup >= 10 at 1000 jobs, about
# 19x on a 2-vCPU host) fails, and mem-bench then does not run. On a slow
# or busy host, read the "FAIL: cluster-bench gate" line before the diff.
bench_tmp="$(mktemp -d)"
trap 'rm -rf "$mm_tmp" "$repro_tmp" "$bench_tmp"' EXIT
(cd "$bench_tmp" && "$repro" cluster-bench >/dev/null && "$repro" mem-bench >/dev/null)
cmp "$bench_tmp/BENCH_mem.json" BENCH_mem.json
wallclock=ci/bench_cluster_wallclock_keys.txt
diff <(grep -v -F -f "$wallclock" "$bench_tmp/BENCH_cluster.json") \
  <(grep -v -F -f "$wallclock" BENCH_cluster.json)

echo "== serve + resilience smoke =="
# Serving-layer smoke: spawns the ap-serve daemon on an ephemeral port and
# drives every endpoint — plan + cache hit, invalidation, simulate,
# malformed input, a 4x-capacity overload burst (503 with a computed
# Retry-After that shed clients honor and recover from, queue depth
# within bound), the degraded-operation drill (induced verification
# failures open the circuit breaker, /plan keeps answering 200 with
# "degraded": true, the half-open probe closes it again, a zero-capacity
# bulkhead sheds cleanly) and a graceful drain. Exits 2 if the daemon
# fails to run and 3 if any check fails. It runs twice as a determinism
# check: smoke output uses fixed-clock reporting, so the JSON must be
# byte-identical across runs.
serve_tmp="$(mktemp -d)"
trap 'rm -rf "$mm_tmp" "$repro_tmp" "$bench_tmp" "$serve_tmp"' EXIT
cargo run --release --offline -p ap-bench --bin repro -- serve-bench --smoke --json "$serve_tmp/a"
cargo run --release --offline -p ap-bench --bin repro -- serve-bench --smoke --json "$serve_tmp/b"
cmp "$serve_tmp/a/serve.json" "$serve_tmp/b/serve.json"

echo "== exec smoke =="
# Execution-runtime smoke: trains partitioned Mlps for real on the
# ap-exec pipeline runtime (threads + byte channels, 1F1B with weight
# stashing) and replays a controller-driven reconfiguration live through
# the §4.4 drain-free migration protocol. Exits 2 if a run fails, 3 if
# an invariant breaks (loss not decreasing, pipeline drained, migration
# bytes over the SwitchPlan prediction). The static op schedules make
# numerics independent of thread timing, so the two runs' JSON must be
# byte-identical — including the calibrated predictions and the emitted
# calibration.json (smoke pins synthetic calibration constants, and the
# engine's calibrated simulation is deterministic). Each schedule runs
# twice as a determinism check, so a source of run-to-run variation added
# anywhere on this path cannot change the bytes unnoticed.
# Both an async and a flush schedule replay the same IR contract, so the
# determinism gate runs per schedule kind.
exec_tmp="$(mktemp -d)"
trap 'rm -rf "$mm_tmp" "$repro_tmp" "$bench_tmp" "$serve_tmp" "$exec_tmp"' EXIT
for sched in pipedream_async gpipe; do
  cargo run --release --offline -p ap-bench --bin repro -- exec-validate --smoke --calibrate --schedule "$sched" --json "$exec_tmp/$sched-a"
  cargo run --release --offline -p ap-bench --bin repro -- exec-validate --smoke --calibrate --schedule "$sched" --json "$exec_tmp/$sched-b"
  cmp "$exec_tmp/$sched-a/exec_validate.json" "$exec_tmp/$sched-b/exec_validate.json"
  cmp "$exec_tmp/$sched-a/calibration.json" "$exec_tmp/$sched-b/calibration.json"
done

echo "== cluster control-plane smoke =="
# Control-plane smoke: seeded arrival/departure/fault traces through the
# ap-sched event loop, with whole-world best-response forks sampled
# mid-trace. Exits 3 if placement stalls or the neighborhood-replanned
# objective drifts past the declared epsilon from whole-world
# best-response. Smoke runs under a fake clock (every wall-clock field
# zeroed), so it runs twice as a determinism check: the JSON must be
# byte-identical across runs.
# (plain grep, not -q: -q exits on first match and breaks repro's pipe
# mid-listing, which pipefail turns into a spurious failure)
cargo run --release --offline -p ap-bench --bin repro -- list | grep cluster-bench >/dev/null
sched_tmp="$(mktemp -d)"
trap 'rm -rf "$mm_tmp" "$repro_tmp" "$bench_tmp" "$serve_tmp" "$exec_tmp" "$sched_tmp"' EXIT
cargo run --release --offline -p ap-bench --bin repro -- cluster-bench --smoke --json "$sched_tmp/a"
cargo run --release --offline -p ap-bench --bin repro -- cluster-bench --smoke --json "$sched_tmp/b"
cmp "$sched_tmp/a/cluster.json" "$sched_tmp/b/cluster.json"

echo "== memory-aware planning smoke =="
# ap-mem smoke: self-calibrating per-GPU capacity ladder on BERT-48 —
# rich keeps the requested async schedule at full depth, mid clamps the
# in-flight depth, starved switches schedule (recompute), hopeless is
# infeasible. Exits 3 if the schedule choice fails to flip with
# capacity. Pure closed-form model arithmetic, so it runs twice as a
# determinism check: the JSON must be byte-identical.
cargo run --release --offline -p ap-bench --bin repro -- list | grep mem-bench >/dev/null
mem_tmp="$(mktemp -d)"
trap 'rm -rf "$mm_tmp" "$repro_tmp" "$bench_tmp" "$serve_tmp" "$exec_tmp" "$sched_tmp" "$mem_tmp"' EXIT
cargo run --release --offline -p ap-bench --bin repro -- mem-bench --smoke --json "$mem_tmp/a"
cargo run --release --offline -p ap-bench --bin repro -- mem-bench --smoke --json "$mem_tmp/b"
cmp "$mem_tmp/a/mem.json" "$mem_tmp/b/mem.json"

echo "ci: all green"
