#!/usr/bin/env bash
# CI entry point: tier-1 gate plus a capped lbmf-check smoke pass.
#
# Tier-1 (must stay green): release build + full workspace test suite.
# Smoke: the check harness proves the asymmetric Dekker lock safe under
# bounded DFS (preemption bound 2) and demonstrates it still *finds* the
# store-buffering violation when serialization is removed. The example
# self-enforces a 5-second budget and exits nonzero on any failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: workspace tests =="
cargo test --workspace -q

echo "== purity gate: the fast paths' machine code has no fence or locked RMW =="
# Builds the lbmf-purity probes alone with the shipped features (trace on,
# check-hooks off), disassembles them, and fails on any lock prefix, xchg
# with memory, mfence or cpuid reachable from a primary fast path outside
# an allowlist of cold first-use, conflict and clock paths. The symmetric
# strategy's probe is the negative control: its full fence must be caught.
python3 scripts/purity_gate.py

echo "== lbmf-check smoke pass (DFS, preemption bound 2, <5s) =="
cargo run -p lbmf-check --example smoke --release

echo "== trace smoke: traced Dekker run + exporter self-check =="
# The example validates its own Chrome JSON (validate_with_serialize_pair)
# and exits nonzero if the trace is malformed or lacks a serialize
# request/deliver pair; the grep double-checks the file landed on disk
# with at least one completed round trip.
cargo run --release --example trace_dekker target/ci_trace_dekker.trace.json
grep -q '"name":"serialize-deliver"' target/ci_trace_dekker.trace.json

echo "== explain smoke: causal chains from live steal + Dekker runs =="
# work_stealing --trace-out loops Figure-4 kernels until the rings hold
# at least one *complete* causal serialization chain, then writes the
# validated Chrome trace. `explain` re-validates (structure + flow-event
# pairing, so any validator error is fatal), reconstructs the chains,
# prints per-phase attribution, and --require-complete 1 exits nonzero
# unless a full request→ack chain was reconstructed.
# A complete steal chain needs thief and victim actually running in
# parallel. With nproc = 1 the probe loop never overlaps a drain, so the
# steal half runs only with 2 or more CPUs (as on the 2-vCPU CI host);
# without it the Dekker trace's dozens of complete signal chains still
# keep `explain` honest.
explain_traces=(target/ci_trace_dekker.trace.json)
if [ "$(nproc)" -ge 2 ]; then
    cargo run --release --example work_stealing -- --trace-out target/ci_steal.trace.json
    explain_traces+=(target/ci_steal.trace.json)
else
    echo "   (nproc = 1: skipping the work_stealing steal-chain capture)"
fi
cargo run --release -p lbmf-obs -- explain \
    "${explain_traces[@]}" --require-complete 2

echo "== sim-trace smoke: simulated Dekker -> Chrome export -> validate =="
# The example exports the coherence-level trace of the simulated l-mfence
# schedule (per-CPU tracks, MESI timelines, the LE/ST link span) and
# asserts the remote-downgrade flow arrow is present; `validate` re-checks
# the file structurally (flow pairing included) from a separate process,
# and the greps pin the acceptance surface: a remote-downgrade flow pair
# and at least one MESI timeline track.
cargo run --release --example sim_dekker -- --trace-out target/ci_sim_dekker.trace.json
cargo run --release -p lbmf-obs -- validate target/ci_sim_dekker.trace.json
grep -q '"name":"remote-downgrade"' target/ci_sim_dekker.trace.json
grep -q '"ph":"s"' target/ci_sim_dekker.trace.json
grep -q '"ph":"f"' target/ci_sim_dekker.trace.json
grep -q ' MESI"' target/ci_sim_dekker.trace.json

echo "== store smoke: serving tier self-checks + /metrics agreement =="
# The example replays the same Zipfian schedule under the symmetric and
# asymmetric stores (its counters must agree with the generated
# schedule), then projects the schedule through the DES at 64 simulated
# cores where the LE/ST store must out-read the mfence store. The short
# --serve run finishes with a self-scrape asserting the /metrics
# lbmf_store_* and lbmf_fence_* families match the in-process snapshot
# diffs. (The epoch-pin safety proofs and the NoFence torn-read control
# run in tier-1 as crates/store/tests/check_store.rs.)
cargo run --release --example store_server -- --smoke
cargo run --release --example store_server -- --serve --addr 127.0.0.1:0 --duration-secs 2

echo "== health plane: doctor on live, wedged, and simulated stores =="
# Healthy live run: serve in the background, then doctor must scrape
# /metrics + /healthz and exit 0 (--require-healthy also fails on a
# vacuous scrape with no shard gauges).
cargo run --release --example store_server -- \
    --serve --addr 127.0.0.1:9478 --duration-secs 8 &
serve_pid=$!
sleep 3
cargo run --release -p lbmf-obs -- doctor --addr 127.0.0.1:9478 --require-healthy
wait "$serve_pid"
# Fault injection: wedge a reader pin on shard 0. The example's own
# self-checks assert /healthz went 503 naming the slot; doctor against
# the live wedged endpoint must exit NONZERO within one watchdog period.
cargo run --release --example store_server -- \
    --serve --addr 127.0.0.1:9478 --duration-secs 8 \
    --max-pin-age-ms 500 --wedge-reader &
serve_pid=$!
sleep 4
if cargo run --release -p lbmf-obs -- doctor --addr 127.0.0.1:9478; then
    echo "doctor must flag the wedged reader" >&2
    wait "$serve_pid" || true
    exit 1
fi
wait "$serve_pid"
# Simulated topology: the DES writes the same gauge schema from a
# 64-core replay; doctor diagnoses the snapshot file identically.
cargo run --release --example store_server -- --des-health target/ci_health_ok.prom --cores 64
cargo run --release -p lbmf-obs -- doctor --snapshot target/ci_health_ok.prom --require-healthy
# doctor's machine-readable verdict parses as an lbmf-doctor/1 document.
cargo run --release -p lbmf-obs -- doctor --snapshot target/ci_health_ok.prom --json \
    | grep -q '"schema":"lbmf-doctor/1"'
cargo run --release --example store_server -- \
    --des-health target/ci_health_stuck.prom --cores 64 --stuck-core 5
if cargo run --release -p lbmf-obs -- doctor --snapshot target/ci_health_stuck.prom; then
    echo "doctor must flag the DES-wedged core" >&2
    exit 1
fi

echo "== workload observatory: heat on simulated, live, and dead sources =="
# Estimator validation: the DES replays a Zipfian workload of KNOWN
# ground-truth theta 0.99 at 64 simulated cores through the sampled heat
# plane; `heat` must reassemble the snapshot, re-derive theta, and land
# within +/-0.1 of the truth (--expect-theta exits 2 on a miss). The
# printed table carries the serialize-bill attribution per hot key.
cargo run --release --example store_server -- \
    --des-heat target/ci_heat_zipf.prom --cores 64 --theta 0.99
cargo run --release -p lbmf-obs -- heat --snapshot target/ci_heat_zipf.prom \
    --expect-theta 0.99 --theta-tol 0.1 --require-heat
# Control: a uniform workload (theta 0) must yield NO hot-key verdict —
# the observatory must not invent skew where the generator put none.
cargo run --release --example store_server -- \
    --des-heat target/ci_heat_flat.prom --cores 64 --theta 0
cargo run --release -p lbmf-obs -- heat --snapshot target/ci_heat_flat.prom \
    | grep -q "no significant hot keys"
# Live source: scrape the armed serve run mid-flight; --require-heat
# fails if the hotkey/skew families are missing (disarmed plane).
cargo run --release --example store_server -- \
    --serve --addr 127.0.0.1:9478 --duration-secs 8 &
serve_pid=$!
sleep 3
cargo run --release -p lbmf-obs -- heat --addr 127.0.0.1:9478 --require-heat
wait "$serve_pid"
# Dead address: the scrape path is bounded (connect/read timeouts, one
# retry) — heat must exit nonzero promptly, never hang the pipeline.
if cargo run --release -p lbmf-obs -- heat --addr 127.0.0.1:9 --require-heat; then
    echo "heat must fail against a dead address" >&2
    exit 1
fi

echo "== zero-cost-when-disabled: trace feature compiles out =="
cargo build --release --no-default-features -p lbmf
cargo build --release --no-default-features -p lbmf-cilk

echo "== obs smoke: quick record + schema self-check + advisory gate =="
# Quick mode shrinks the mini-criterion window to 5 ms per batch so the
# whole suite lands in a few seconds; the self-check re-parses the file
# through the same loader `compare` uses, and the greps pin the written
# schema (v3, with no retired `pmu` block). The gate runs in advisory
# mode on this shared 2-vCPU CI host — timing deltas are reported, never
# fatal; the committed BENCH_<n>.json baselines are the perf trajectory
# of record.
cargo run --release -p lbmf-obs -- record --quick --out target/ci_bench.json
cargo run --release -p lbmf-obs -- compare --self-check target/ci_bench.json
grep -q '"schema": "lbmf-bench/3"' target/ci_bench.json
if grep -q '"pmu"' target/ci_bench.json; then
    echo "record must not write the retired pmu block" >&2
    exit 1
fi
baseline=$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1 || true)
if [ -n "$baseline" ]; then
    cargo run --release -p lbmf-obs -- compare \
        --baseline "$baseline" --candidate target/ci_bench.json --gate --advisory
fi

echo "== trend: drift over all committed recordings (advisory) =="
# Fits each benchmark's mean across every committed BENCH_*.json and
# reports %/recording slopes against per-benchmark noise floors — the
# slow-drift detector the pairwise gate structurally cannot be. Always
# advisory: a slope over a handful of points is a hint, not a verdict.
cargo run --release -p lbmf-obs -- trend

echo "ci: all green"
