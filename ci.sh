#!/usr/bin/env bash
# Local CI: the tier-1 gate plus lint hygiene. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --workspace"
cargo build --release --workspace

# The workspace test run includes the verification suites: the
# differential engine-vs-oracle campaign (bounded by CCS_DIFF_CASES,
# deterministic per case id) and the golden snapshot tests, which
# re-evaluate the full benchmark x layout x policy grid in checked
# (invariant-audited) mode against results/golden/.
echo "==> cargo test -q (incl. differential campaign + golden snapshots)"
CCS_DIFF_CASES="${CCS_DIFF_CASES:-200}" cargo test -q

# Every crate-internal unit test, integration test and doctest of the
# workspace (the plain `cargo test` above covers the root package only).
echo "==> cargo test --workspace --release"
CCS_DIFF_CASES="${CCS_DIFF_CASES:-200}" cargo test --workspace --release -q

# Manifest pin: the committed checkpoint manifest must regenerate line
# for line. Its digests hash every cell's full result, so any drift in
# the simulator or in the record digest shows up here.
echo "==> committed manifest regenerates (results/checkpoints/grid_campaign.jsonl)"
PIN_MANIFEST="$(mktemp -u)"
CCS_LEN=1500 CCS_MANIFEST="$PIN_MANIFEST" target/release/grid_campaign >/dev/null
diff <(sort "$PIN_MANIFEST") <(sort results/checkpoints/grid_campaign.jsonl) \
    || { echo "grid_campaign no longer reproduces the committed manifest"; exit 1; }
rm -f "$PIN_MANIFEST"
echo "    all records byte-identical"

# Fault-injection smoke: a bounded slice of the 100-cell seeded-fault
# acceptance grid (panic isolation, deterministic timeouts, bit-identity
# of the unfaulted cells). CCS_FAULT_CASES bounds the grid; the full
# 100-cell run happens when the variable is unset (as in the plain
# `cargo test` above).
echo "==> fault-injection smoke (CCS_FAULT_CASES=${CCS_FAULT_CASES:-30})"
CCS_FAULT_CASES="${CCS_FAULT_CASES:-30}" \
    cargo test --release --test fault_injection -q

# Kill-and-resume: a campaign truncated mid-run and resumed from its
# manifest must reproduce the uninterrupted run bit-identically without
# re-running finished cells.
echo "==> checkpoint kill-and-resume"
cargo test --release --test checkpoint_resume -q

# Metrics smoke: run a checked grid with metrics on and require the
# counters' CPI stack to reconcile exactly with the critical-path
# breakdown, metrics-on runs to be bit-identical to metrics-off, and
# aggregation to be independent of thread count.
echo "==> metrics observability smoke"
cargo test --release --test metrics_observability -q

# Prediction-tier smoke: a bounded slice of the analytic-bounds suite
# (every case must land inside its predicted cycle/IPC envelope; the
# full 200-case run plus the whole golden corpus happens in the plain
# `cargo test` above) and the bound-mutation tests proving each
# check_bounds rule is non-vacuous. Then the approx-vs-full loadgen
# comparison, which asserts the envelope tier is measurably cheaper
# than simulation.
echo "==> predict bounds smoke (CCS_PREDICT_CASES=${CCS_PREDICT_CASES:-40})"
CCS_PREDICT_CASES="${CCS_PREDICT_CASES:-40}" \
    cargo test --release --test predict_bounds -q
cargo test --release -p ccs-verify bound -q
cargo run --release --example loadgen -- --approx --out "$(mktemp -u)" >/dev/null
echo "    envelope tier measurably cheaper than simulation"

# Serve smoke: boot the daemon on an ephemeral loopback port, run a
# small grid through the client CLI and a bounded loadgen against it,
# then drain and require a clean exit 0. The roundtrip/protocol test
# suites above prove bit-identity and fault tolerance; this stage proves
# the *shipped binaries* wire together.
echo "==> ccs-serve smoke (daemon + client grid + loadgen + drain)"
cargo build --release --example loadgen
SERVE_LOG="$(mktemp)"
target/release/ccs-serve --addr 127.0.0.1:0 >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    SERVE_ADDR="$(sed -n 's/^listening on //p' "$SERVE_LOG")"
    [ -n "$SERVE_ADDR" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { cat "$SERVE_LOG"; exit 1; }
    sleep 0.1
done
[ -n "$SERVE_ADDR" ] || { echo "daemon never reported its address"; cat "$SERVE_LOG"; exit 1; }
CCS_LEN=1000 CCS_EPOCHS=1 CCS_SAMPLES=1 \
    target/release/grid_campaign --server "$SERVE_ADDR" >/dev/null
target/release/ccs-client --server "$SERVE_ADDR" status >/dev/null
target/release/examples/loadgen --server "$SERVE_ADDR" \
    --clients 2 --requests 2 --batch 2 --len 1000 \
    --out "$(mktemp -u)" >/dev/null
target/release/ccs-client --server "$SERVE_ADDR" drain >/dev/null
SERVE_EXIT=0
wait "$SERVE_PID" || SERVE_EXIT=$?
[ "$SERVE_EXIT" -eq 0 ] || { echo "daemon exited $SERVE_EXIT"; cat "$SERVE_LOG"; exit 1; }
rm -f "$SERVE_LOG"
echo "    daemon drained cleanly (exit 0)"

# Sharded-cluster smoke: two journaled shards, a campaign routed across
# both with `--servers`, one shard killed -9 mid-run, and the victim
# restarted from its journal. The campaign must exit 0 via ring
# failover, its manifest digests must match the in-process batch run
# bit for bit, and the reborn shard must report replayed cells.
echo "==> sharded serve smoke (2 shards + kill -9 failover + journal recovery)"
SHARD_DIR="$(mktemp -d)"
SHARD_LEN="${CCS_SHARD_LEN:-2000}"
CCS_LEN="$SHARD_LEN" CCS_EPOCHS=1 CCS_SAMPLES=1 CCS_MANIFEST="$SHARD_DIR/local.jsonl" \
    target/release/grid_campaign >/dev/null
boot_shard() { # log journal [peers]
    target/release/ccs-serve --addr 127.0.0.1:0 --journal "$2" \
        ${3:+--peers "$3"} ${4:+--recover} >"$1" 2>&1 &
}
shard_addr() { # log pid
    local addr=
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on //p' "$1")"
        [ -n "$addr" ] && break
        kill -0 "$2" 2>/dev/null || { cat "$1"; return 1; }
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "shard never reported its address"; cat "$1"; return 1; }
    echo "$addr"
}
boot_shard "$SHARD_DIR/shard1.log" "$SHARD_DIR/shard1.jsonl"
SHARD1_PID=$!
SHARD1_ADDR="$(shard_addr "$SHARD_DIR/shard1.log" "$SHARD1_PID")"
boot_shard "$SHARD_DIR/shard2.log" "$SHARD_DIR/shard2.jsonl" "$SHARD1_ADDR"
SHARD2_PID=$!
SHARD2_ADDR="$(shard_addr "$SHARD_DIR/shard2.log" "$SHARD2_PID")"
CCS_LEN="$SHARD_LEN" CCS_EPOCHS=1 CCS_SAMPLES=1 \
    CCS_MANIFEST="$SHARD_DIR/cluster.jsonl" \
    target/release/grid_campaign --servers "$SHARD1_ADDR,$SHARD2_ADDR" \
    >"$SHARD_DIR/campaign.log" 2>&1 &
CAMPAIGN_PID=$!
sleep 1
kill -9 "$SHARD2_PID" 2>/dev/null || true
CAMPAIGN_EXIT=0
wait "$CAMPAIGN_PID" || CAMPAIGN_EXIT=$?
[ "$CAMPAIGN_EXIT" -eq 0 ] || {
    echo "sharded campaign exited $CAMPAIGN_EXIT despite failover"
    cat "$SHARD_DIR/campaign.log"; exit 1; }
manifest_digests() { sed -n 's/.*"key":"\([^"]*\)".*"digest":"\([^"]*\)".*/\1 \2/p' "$1" | sort; }
diff <(manifest_digests "$SHARD_DIR/local.jsonl") \
     <(manifest_digests "$SHARD_DIR/cluster.jsonl") \
    || { echo "sharded campaign digests diverge from the batch run"; exit 1; }
echo "    campaign survived the kill; digests bit-identical to the batch run"
boot_shard "$SHARD_DIR/shard3.log" "$SHARD_DIR/shard2.jsonl" "$SHARD1_ADDR" recover
SHARD3_PID=$!
SHARD3_ADDR="$(shard_addr "$SHARD_DIR/shard3.log" "$SHARD3_PID")"
RECOVERED="$(target/release/ccs-client --server "$SHARD3_ADDR" status \
    | grep -o 'recovered [0-9]*' | awk '{print $2}')"
[ "${RECOVERED:-0}" -gt 0 ] || {
    echo "reborn shard replayed nothing (recovered=${RECOVERED:-unset})"
    cat "$SHARD_DIR/shard3.log"; exit 1; }
echo "    reborn shard replayed $RECOVERED cells from its crash journal"
for pair in "$SHARD1_ADDR $SHARD1_PID" "$SHARD3_ADDR $SHARD3_PID"; do
    set -- $pair
    target/release/ccs-client --server "$1" drain >/dev/null
    SHARD_EXIT=0
    wait "$2" || SHARD_EXIT=$?
    [ "$SHARD_EXIT" -eq 0 ] || { echo "shard $1 exited $SHARD_EXIT"; exit 1; }
done
rm -rf "$SHARD_DIR"
echo "    both shards drained cleanly (exit 0)"

# Perf smoke: regenerate the grid-throughput measurement at a small
# scale (default trace length, best-of-2) into a scratch file and fail
# if the parallel executor regresses against serial. On a single-core
# host the parallel path degenerates to the serial one, so speedup is
# 1.0 +/- timer noise; multi-core hosts must actually go faster.
echo "==> grid perf smoke (bench_grid, best-of-${CCS_BENCH_REPS:-2})"
PERF_JSON="$(mktemp)"
CCS_BENCH_REPS="${CCS_BENCH_REPS:-2}" CCS_THREADS=auto CCS_BENCH_OUT="$PERF_JSON" \
    target/release/bench_grid >/dev/null
MIN_SPEEDUP=1.0
[ "$(nproc)" -le 1 ] && MIN_SPEEDUP=0.9
grep -o '"speedup": [0-9.]*' "$PERF_JSON" | awk -v min="$MIN_SPEEDUP" '
    { n += 1
      if ($2 + 0 < min + 0) { printf "    parallel speedup %s < %s\n", $2, min; bad = 1 }
      else { printf "    parallel speedup %s ok (>= %s)\n", $2, min } }
    END { if (n == 0) { print "    no speedup rows in bench output"; exit 1 }
          exit bad }' \
    || { echo "parallel grid executor regressed"; exit 1; }
rm -f "$PERF_JSON"

# Adaptive-tier smoke: both dynamic policies (the online switcher and
# ineffectuality steering) across the 12-benchmark grid in checked
# mode — zero invariant violations, bit-identical rerun, 1-vs-8-thread
# agreement, and proof the switcher/predictor actually fire. Then the
# committed exhibit regenerates at smoke scale to keep the figure path
# itself under test.
echo "==> adaptive policy smoke (checked 12-benchmark grid + exhibit)"
cargo test --release --test adaptive_policies -q
CCS_LEN=2000 target/release/adaptive_policy --threads auto >/dev/null
echo "    dynamic policies clean, deterministic, and non-vacuous"

# Scenario smoke: the seeded manifest fuzzer at a bounded budget
# (random valid scenarios -> manifest round-trip + trace validation +
# the full engine-vs-oracle differential pipeline; deterministic per
# case id, full 120-case run in the plain `cargo test` above), the
# gallery tests (all 16 committed manifests parse, the 12 benchmark
# equivalents generate bit-identical traces), and one gallery manifest
# driven through the shipped campaign binary end to end.
echo "==> scenario smoke (CCS_SCENARIO_CASES=${CCS_SCENARIO_CASES:-40})"
CCS_SCENARIO_CASES="${CCS_SCENARIO_CASES:-40}" \
    cargo test --release --test scenario_fuzz -q
cargo test --release -p ccs-scenario -q >/dev/null
CCS_LEN=1200 CCS_EPOCHS=1 CCS_SAMPLES=1 CCS_MANIFEST="$(mktemp -u)" \
    target/release/grid_campaign \
    --scenario examples/scenarios/phase_shift.toml >/dev/null
echo "    fuzzer agreed, gallery pinned, campaign ran a manifest cell grid"

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
