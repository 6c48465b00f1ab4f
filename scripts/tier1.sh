#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, and clippy with warnings
# denied — the checks every PR must keep green (see ROADMAP.md).
#
# Usage: scripts/tier1.sh
#
# The workspace vendors its external dependencies (vendor/ via
# [patch.crates-io]), so everything runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

# `--workspace` everywhere: the root manifest is both a package (the
# `escalate` facade) and the workspace, so bare `cargo build`/`cargo test`
# would cover only the facade and silently skip every member crate's
# binaries and test targets.
cargo build --release --offline --workspace
# perfbench is its own package outside the workspace and the one caller
# of the escalate-obs reader API beyond it: build it here so an API break
# fails the gate, not only the benchmark.
CARGO_TARGET_DIR=target cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --offline --workspace
# The observability crate is dependency-free and cheap: exercise its full
# test matrix (unit + doc tests) explicitly so a workspace-level filter
# can never silently drop it.
cargo test -q --offline -p escalate-obs
# Golden-diff regression check over the full corpus: all 20 registered
# experiments must stay byte-identical to the committed results/ files
# (~75 s in release on a single core; the per-experiment dev-profile
# round-trips live in crates/bench/tests/report.rs).
./target/release/escalate report --all --check
# Resumable design-space sweep smoke on the frontier-golden grid: run
# the 64-point cold grid (the exact grid committed as
# results/sweep_frontier.txt, so frontier drift fails here), "interrupt"
# it by keeping only the first 20 records, resume from the stream, and
# require the resumed stream to be byte-identical to the cold run — with
# an identical Pareto summary (it is recomputed from the parsed stream
# either way). The cold run records metrics: its deterministic work
# counters (compressions, plan compiles, cache traffic, positions walked)
# are identical at any thread count, so each is checked exactly — a
# change in how much work the grid does fails here. Wall times are never
# gated.
SWEEP_DIR="$(mktemp -d)"
SERVE_DIR="$(mktemp -d)"
trap 'rm -rf "$SWEEP_DIR" "$SERVE_DIR"; kill "${SERVE_PID:-}" "${SWEEP_PID:-}" 2>/dev/null || true' EXIT
./target/release/escalate sweep MobileNet MobileNetV2 --samples 32 --seeds 1 \
  --out "$SWEEP_DIR/cold.jsonl" --metrics "$SWEEP_DIR/cold.metrics.json" \
  --check results/sweep_frontier.txt > "$SWEEP_DIR/cold.txt"
# `check_counters FILE name=value…` requires each counter of a metrics
# manifest to hold exactly that value.
check_counters() {
  local file="$1" want name
  shift
  for want in "$@"; do
    name="${want%%=*}"
    grep -qE "\"${name//./\\.}\": ${want#*=}[,}]" "$file" \
      || { echo "work counter $name != ${want#*=} in $file" >&2; exit 1; }
  done
}
check_counters "$SWEEP_DIR/cold.metrics.json" \
  bench.cache_hits=54 bench.cache_misses=10 \
  ca.plan_compiles=997 ca.plan_reuses=507 \
  pipeline.synth_hits=316 pipeline.synth_misses=79 pipeline.units=245 \
  sweep.derived_hits=1417 sweep.derived_misses=151 \
  sweep.derived_evictions=485 sweep.walk_hits=507 \
  sweep.frontier_comparisons=940 sim.positions_walked=426368
# The same exact gate on a one-shot run: one compression, one walk per
# decomposed layer and seed, at one thread and at all cores (0).
for threads in 1 0; do
  ./target/release/escalate simulate MobileNet --seeds 2 --threads "$threads" \
    --metrics "$SWEEP_DIR/oneshot.metrics.json" > /dev/null
  check_counters "$SWEEP_DIR/oneshot.metrics.json" \
    bench.cache_misses=1 ca.plan_compiles=26 pipeline.units=14 \
    sim.layers=28 sim.positions_walked=9984
done
head -n 20 "$SWEEP_DIR/cold.jsonl" > "$SWEEP_DIR/resumed.jsonl"
./target/release/escalate sweep MobileNet MobileNetV2 --samples 32 --seeds 1 \
  --out "$SWEEP_DIR/resumed.jsonl" > "$SWEEP_DIR/resumed.txt"
cmp "$SWEEP_DIR/cold.jsonl" "$SWEEP_DIR/resumed.jsonl"
grep -q "44 sample(s) ran, 20 resumed" "$SWEEP_DIR/resumed.txt"
diff <(tail -n +2 "$SWEEP_DIR/cold.txt" | grep -v '^frontier matches') \
     <(tail -n +2 "$SWEEP_DIR/resumed.txt")
# A real interrupt: run the same grid into a fresh stream, SIGINT it as
# soon as its first record lands, and require the records completed
# before the signal to survive (strictly between 0 and 64 of them). The
# resume must then complete the stream byte-identically to the cold run.
# A script starts background jobs with SIGINT ignored unless job control
# is on, so `set -m` is what lets the signal through.
set -m
./target/release/escalate sweep MobileNet MobileNetV2 --samples 32 --seeds 1 \
  --out "$SWEEP_DIR/killed.jsonl" > /dev/null &
SWEEP_PID=$!
set +m
for _ in $(seq 1 3000); do
  [ "$(wc -l 2>/dev/null < "$SWEEP_DIR/killed.jsonl" || echo 0)" -ge 1 ] && break
  sleep 0.1
done
kill -INT "$SWEEP_PID"
wait "$SWEEP_PID" || true
KEPT="$(wc -l < "$SWEEP_DIR/killed.jsonl")"
[ "$KEPT" -gt 0 ]
[ "$KEPT" -lt 64 ]
./target/release/escalate sweep MobileNet MobileNetV2 --samples 32 --seeds 1 \
  --out "$SWEEP_DIR/killed.jsonl" > "$SWEEP_DIR/killed.txt"
grep -q "$((64 - KEPT)) sample(s) ran, $KEPT resumed" "$SWEEP_DIR/killed.txt"
cmp "$SWEEP_DIR/cold.jsonl" "$SWEEP_DIR/killed.jsonl"
# Network-description + pipelined-schedule smoke: write a generated
# network as an escalate-network/v1 file, require the file → Model →
# file round trip to be byte-identical, and simulate it under the
# pipelined schedule (the pipeline stage/interval/stall line only
# renders when that schedule actually ran).
./target/release/escalate network gen:dilated:blocks=2 \
  --out "$SWEEP_DIR/gen.network"
./target/release/escalate network "@$SWEEP_DIR/gen.network" \
  --out "$SWEEP_DIR/gen2.network"
cmp "$SWEEP_DIR/gen.network" "$SWEEP_DIR/gen2.network"
./target/release/escalate simulate --network "$SWEEP_DIR/gen.network" \
  --schedule pipelined --seeds 1 > "$SWEEP_DIR/pipelined.txt"
grep -q '^pipeline: .* stage(s), interval ' "$SWEEP_DIR/pipelined.txt"
# Serve smoke: an ephemerally-bound daemon (port discovered via
# --port-file), one job per verb through `escalate submit`, well-formed
# escalate-run-manifest/v1 unit records, non-empty metrics, and a
# graceful drain — every step timeout-bounded so a wedged daemon fails
# the gate instead of hanging it.
./target/release/escalate serve --port-file "$SERVE_DIR/port" \
  > "$SERVE_DIR/serve.txt" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$SERVE_DIR/port" ] && break; sleep 0.1; done
[ -s "$SERVE_DIR/port" ]
submit() { timeout 120 ./target/release/escalate submit "$@" --port-file "$SERVE_DIR/port"; }
submit ping | grep -q '"type": "pong"'
submit simulate MobileNet --seeds 1 > "$SERVE_DIR/simulate.txt"
test "$(grep -c '"schema": "escalate-run-manifest/v1"' "$SERVE_DIR/simulate.txt")" -eq 4
grep -q '"type": "done"' "$SERVE_DIR/simulate.txt"
submit compress MobileNet | grep -q '"type": "done"'
submit report table4 | grep -q '"type": "done"'
# A served custom-network pipelined job: the daemon resolves the same
# @FILE spec the CLI does and its done frame carries the pipeline line.
submit simulate "@$SWEEP_DIR/gen.network" --seeds 1 --schedule pipelined \
  > "$SERVE_DIR/network.txt"
grep -q '"type": "done"' "$SERVE_DIR/network.txt"
grep -q 'pipeline: ' "$SERVE_DIR/network.txt"
submit metrics | grep -q '"serve.jobs_done": 4'
submit shutdown | grep -q '"drained": true'
for _ in $(seq 1 300); do kill -0 "$SERVE_PID" 2>/dev/null || break; sleep 0.1; done
! kill -0 "$SERVE_PID" 2>/dev/null
grep -q "drained — 4 jobs done, 0 failed" "$SERVE_DIR/serve.txt"
cargo fmt --check
cargo clippy --all-targets --offline --workspace -- -D warnings

echo "tier-1: OK"
