#!/usr/bin/env bash
# Gate on the graph-free inference engine's speedup + parity, and on the
# data-parallel training engine's speedup + determinism.
#
#   tools/check_perf.sh [build-dir] [min-speedup] [min-train-speedup]
#       [min-scale-speedup] [min-serve-speedup] [min-memo-speedup]
#       [min-gemm-speedup] [max-ingest-p99-ratio]
#
# Inference: builds bench_micro + inference_test, runs the inference sweep
# (which writes <build-dir>/bench_out/BENCH_inference.json comparing the
# autodiff graph path against the fast path over thread counts), asserts
# the fast path's single-thread speedup on both timed workloads (ScoreRoute
# on a 19-segment route, beam PredictRoute) is at least min-speedup
# (default 3), and runs the parity/regression test suite.
#
# Training: runs the training sweep (serial single-graph tape vs
# micro-sharded on 1/2/4 threads -> BENCH_training.json), asserts sharded
# runs trained bitwise identical parameters across thread counts, that
# single-thread sharding overhead stays under 30%, and — on machines with
# >= 4 cores, where wall-clock parallel speedup is physically possible —
# that the 4-thread epoch speedup is at least min-train-speedup
# (default 1.8).
#
# Scale: runs the cold-load sweep (bench_scale -> BENCH_scale.json, v2
# streaming heap vs v3 mmap at ~10k and ~100k directed segments) and asserts
# the v3 path reaches query-ready at least min-scale-speedup (default 5)
# times faster than v2 at the 100k scale. This sweep runs at full size even
# under DEEPST_FAST, since 100k segments is the claim being gated
# (docs/formats.md).
#
# Serving: runs the serve-daemon sweep (bench_serving -> BENCH_serving.json,
# closed-loop client fleet against the batching scheduler at 1/2/4 workers)
# and — on machines with >= 4 cores — asserts 4 workers deliver at least
# min-serve-speedup (default 2.0) times the 1-worker QPS without letting p99
# latency grow past 3x the 1-worker tail (docs/serving.md). The live-ingest
# scenario (server_ingest: concurrent ingest + snapshot swaps against the
# same 4-worker fleet, docs/streaming.md) must keep its p99 within
# max-ingest-p99-ratio (default 1.5) of the static 4-worker p99 — swaps
# must never stall serving.
#
# Transition memo: runs the memo sweep (BM_MemoSweep -> BENCH_memo.json; a
# hot-query beam workload with the memo off and on). Always asserts a
# steady-state memo hit rate >= 0.5; on AVX2 hardware (where the vector
# kernels actually dispatch) also asserts the memoized run beats the
# unmemoized one by min-memo-speedup (default 2.0).
#
# GEMM blocking: runs the GEMM sweep (BM_GemmSweep -> BENCH_gemm.json; the
# register-blocked panel kernel against the chunk kernel at each shape).
# Always asserts every row's bitwise_equal field (the blocking must never
# change a result); on AVX2 hardware also asserts the blocked speedup is at
# least min-gemm-speedup (default 1.5) at each served batched GRU-step
# shape, gemm_double_m{28,32}_k{32,64}. The H = 128 rows are reported, not
# gated: the default model (H = 64, embedding 32) does not run them.
#
# Proxy logits: runs BM_ProxyLogits (-> BENCH_proxy.json; the proxy
# encoder's output layer through ops::Linear vs the output-major row kernel
# MakeContext uses) and asserts every row's bitwise_equal field.
#
# GRU gates: runs BM_GateMath (-> BENCH_gates.json; the gate kernel's vector
# expf/tanhf against std::exp/std::tanh over all 2^32 floats, ~30 s on 4
# threads even under DEEPST_FAST, and GruGates against the scalar libm
# composition at H = 64) and asserts every row's bitwise_equal field. Its
# timings are reported, not gated.
#
# Every section runs even when an earlier gate fails; the script then exits
# nonzero listing each failed gate.
#
# DEEPST_FAST=1 keeps the other runs small; the speedups also hold at the
# full model size (docs/inference.md, docs/training-perf.md).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
MIN_SPEEDUP="${2:-3.0}"
MIN_TRAIN_SPEEDUP="${3:-1.8}"
MIN_SCALE_SPEEDUP="${4:-5.0}"
MIN_SERVE_SPEEDUP="${5:-2.0}"
MIN_MEMO_SPEEDUP="${6:-2.0}"
MIN_GEMM_SPEEDUP="${7:-1.5}"
MAX_INGEST_P99_RATIO="${8:-1.5}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j"$(nproc)" --target bench_micro bench_scale \
  bench_serving inference_test train_sharded_test quant_test

export DEEPST_FAST=1

# A failed gate is recorded and the remaining sections still run.
FAILED=()
fail() {
  echo "FAIL: $*" >&2
  FAILED+=("$*")
}

echo "== inference sweep (graph vs fast, threads 1/2/4) =="
# The benches write bench_out/ relative to their working directory; run them
# from the build dir so the JSON lands where this script (and .gitignore)
# expect it.
inference_gates() {
  (cd "$BUILD_DIR" && bench/bench_micro --benchmark_filter='BM_InferenceSweep') ||
    fail "BM_InferenceSweep exited nonzero"

  local JSON="$BUILD_DIR/bench_out/BENCH_inference.json"
  [[ -f "$JSON" ]] || { fail "$JSON not written"; return; }

  local workload speedup ok
  for workload in score_route_len19 predict_route; do
    speedup=$(jq -r --arg w "$workload" \
      '.[] | select(.engine == "fast" and .workload == $w and .threads == 1)
           | .speedup_vs_graph' "$JSON")
    ok=$(jq -n --argjson s "$speedup" --argjson min "$MIN_SPEEDUP" '$s >= $min')
    if [[ "$ok" != "true" ]]; then
      fail "$workload single-thread speedup ${speedup}x < ${MIN_SPEEDUP}x"
    else
      echo "OK: $workload single-thread speedup ${speedup}x >= ${MIN_SPEEDUP}x"
    fi
  done
}
inference_gates

echo "== training sweep (serial vs sharded, threads 1/2/4) =="
training_gates() {
  (cd "$BUILD_DIR" && bench/bench_micro --benchmark_filter='BM_TrainingSweep') ||
    fail "BM_TrainingSweep exited nonzero"

  local TRAIN_JSON="$BUILD_DIR/bench_out/BENCH_training.json"
  [[ -f "$TRAIN_JSON" ]] || { fail "$TRAIN_JSON not written"; return; }

  local bitwise overhead ok speedup4
  bitwise=$(jq -r '.[0].bitwise_identical_params' "$TRAIN_JSON")
  if [[ "$bitwise" != "true" ]]; then
    fail "sharded training parameters differ across thread counts"
  else
    echo "OK: sharded parameters bitwise identical across 1/2/4 threads"
  fi

  # Single-thread sharding overhead gate: sharding swaps kernel-level for
  # shard-level parallelism, so on one thread it must stay within 30% of the
  # single-graph tape (arena recycling keeps it close). Runs on any machine.
  overhead=$(jq -r '.[] | select(.mode == "sharded" and .threads == 1)
                        | .speedup_vs_serial' "$TRAIN_JSON")
  ok=$(jq -n --argjson s "$overhead" '$s >= 0.7')
  if [[ "$ok" != "true" ]]; then
    fail "sharded 1-thread runs at ${overhead}x of serial (< 0.7x)"
  else
    echo "OK: sharded 1-thread at ${overhead}x of serial (>= 0.7x)"
  fi

  # Wall-clock speedup gate: only meaningful where 4 workers can actually run
  # in parallel; on smaller machines report the number instead of gating on
  # the weather.
  speedup4=$(jq -r '.[] | select(.mode == "sharded" and .threads == 4)
                        | .speedup_vs_serial' "$TRAIN_JSON")
  if [[ "$cores" -ge 4 ]]; then
    ok=$(jq -n --argjson s "$speedup4" --argjson min "$MIN_TRAIN_SPEEDUP" \
         '$s >= $min')
    if [[ "$ok" != "true" ]]; then
      fail "sharded 4-thread epoch speedup ${speedup4}x < ${MIN_TRAIN_SPEEDUP}x"
    else
      echo "OK: sharded 4-thread epoch speedup ${speedup4}x >= ${MIN_TRAIN_SPEEDUP}x"
    fi
  else
    echo "SKIP: 4-thread speedup gate (${cores} core(s) available; measured ${speedup4}x)"
  fi
}
cores=$(nproc)
training_gates

echo "== scale sweep (cold load to query-ready, v2 heap vs v3 mmap) =="
scale_gates() {
  # Full-size on purpose: the gate is about the 100k-segment regime.
  (cd "$BUILD_DIR" && DEEPST_FAST=0 bench/bench_scale) ||
    fail "bench_scale exited nonzero"

  local SCALE_JSON="$BUILD_DIR/bench_out/BENCH_scale.json"
  [[ -f "$SCALE_JSON" ]] || { fail "$SCALE_JSON not written"; return; }

  local segs ok scale_speedup
  segs=$(jq -r 'map(.segments) | max' "$SCALE_JSON")
  ok=$(jq -n --argjson s "$segs" '$s >= 100000')
  if [[ "$ok" != "true" ]]; then
    fail "largest scale has $segs segments (< 100000)"
    return
  fi
  scale_speedup=$(jq -r --argjson s "$segs" \
    '.[] | select(.format == "v3" and .segments == $s) | .speedup_vs_v2' \
    "$SCALE_JSON")
  ok=$(jq -n --argjson s "$scale_speedup" --argjson min "$MIN_SCALE_SPEEDUP" \
       '$s >= $min')
  if [[ "$ok" != "true" ]]; then
    fail "v3 cold load at ${segs} segments is ${scale_speedup}x vs v2 (< ${MIN_SCALE_SPEEDUP}x)"
  else
    echo "OK: v3 cold load at ${segs} segments is ${scale_speedup}x vs v2 (>= ${MIN_SCALE_SPEEDUP}x)"
  fi
}
scale_gates

echo "== serving sweep (client fleet vs batching daemon, workers 1/2/4) =="
serving_gates() {
  (cd "$BUILD_DIR" && bench/bench_serving) || fail "bench_serving exited nonzero"

  local SERVE_JSON="$BUILD_DIR/bench_out/BENCH_serving.json"
  [[ -f "$SERVE_JSON" ]] || { fail "$SERVE_JSON not written"; return; }

  local qps1 qps4 p99_1 p99_4 serve_speedup ok p99_live live_swaps
  qps1=$(jq -r '.[] | select(.mode == "server" and .workers == 1) | .qps' \
    "$SERVE_JSON")
  qps4=$(jq -r '.[] | select(.mode == "server" and .workers == 4) | .qps' \
    "$SERVE_JSON")
  p99_1=$(jq -r '.[] | select(.mode == "server" and .workers == 1) | .p99_ms' \
    "$SERVE_JSON")
  p99_4=$(jq -r '.[] | select(.mode == "server" and .workers == 4) | .p99_ms' \
    "$SERVE_JSON")
  serve_speedup=$(jq -n --argjson a "$qps4" --argjson b "$qps1" '$a / $b')
  # Like the training gate: 4 workers can only beat 1 where 4 cores exist;
  # elsewhere report the measurement instead of gating on the hardware.
  if [[ "$cores" -ge 4 ]]; then
    ok=$(jq -n --argjson s "$serve_speedup" --argjson min "$MIN_SERVE_SPEEDUP" \
         --argjson p1 "$p99_1" --argjson p4 "$p99_4" \
         '($s >= $min) and ($p4 <= 3 * $p1)')
    if [[ "$ok" != "true" ]]; then
      fail "serve 4-worker QPS ${serve_speedup}x vs 1 worker (want >= ${MIN_SERVE_SPEEDUP}x at p99 ${p99_4}ms <= 3x ${p99_1}ms)"
    else
      echo "OK: serve 4-worker QPS ${serve_speedup}x >= ${MIN_SERVE_SPEEDUP}x (p99 ${p99_4}ms vs ${p99_1}ms)"
    fi
  else
    echo "SKIP: serve 4-worker QPS gate (${cores} core(s) available; measured ${serve_speedup}x, p99 ${p99_4}ms vs ${p99_1}ms)"
  fi

  # Live-ingest tail gate: snapshot swaps (clone + fold off-thread, atomic
  # publish, memo-epoch bump) must never stall the predict fleet. Like the
  # other concurrency gates, only meaningful where the fleet, the ingest
  # client, and the aggregator can actually run in parallel.
  p99_live=$(jq -r '.[] | select(.mode == "server_ingest") | .p99_ms' \
    "$SERVE_JSON")
  live_swaps=$(jq -r '.[] | select(.mode == "server_ingest") | .swaps' \
    "$SERVE_JSON")
  if [[ "$cores" -ge 4 ]]; then
    ok=$(jq -n --argjson l "$p99_live" --argjson s "$p99_4" \
         --argjson r "$MAX_INGEST_P99_RATIO" '$l <= $r * $s')
    if [[ "$ok" != "true" ]]; then
      fail "live-ingest p99 ${p99_live}ms > ${MAX_INGEST_P99_RATIO}x static 4-worker p99 ${p99_4}ms (${live_swaps} swaps)"
    else
      echo "OK: live-ingest p99 ${p99_live}ms <= ${MAX_INGEST_P99_RATIO}x static ${p99_4}ms across ${live_swaps} swaps"
    fi
  else
    echo "SKIP: live-ingest p99 gate (${cores} core(s) available; measured ${p99_live}ms vs static ${p99_4}ms, ${live_swaps} swaps)"
  fi
}
serving_gates

echo "== memo sweep (hot-query beam, transition memo off vs on) =="
memo_gates() {
  (cd "$BUILD_DIR" && bench/bench_micro --benchmark_filter='BM_MemoSweep') ||
    fail "BM_MemoSweep exited nonzero"

  local MEMO_JSON="$BUILD_DIR/bench_out/BENCH_memo.json"
  [[ -f "$MEMO_JSON" ]] || { fail "$MEMO_JSON not written"; return; }

  # The memo must actually be absorbing the hot-query workload; 0.5 is far
  # below the measured steady state (~0.99) but rules out a cache that
  # silently stopped hitting (bad keys, over-invalidation).
  local hit ok speedup
  hit=$(jq -r '.[] | select(.variant == "double_memo") | .steady_hit_rate' \
    "$MEMO_JSON")
  ok=$(jq -n --argjson h "$hit" '$h >= 0.5')
  if [[ "$ok" != "true" ]]; then
    fail "transition memo steady-state hit rate ${hit} < 0.5"
  else
    echo "OK: transition memo steady-state hit rate ${hit} >= 0.5"
  fi

  # Throughput gate: the memoized fast path must beat the unmemoized one.
  # Vector-ISA-dependent, so like the other hardware gates it reports
  # instead of failing where the kernels cannot dispatch past the scalar
  # clone.
  speedup=$(jq -r '.[] | select(.variant == "double_memo") | .speedup_vs_nomemo' \
    "$MEMO_JSON")
  if grep -q avx2 /proc/cpuinfo 2>/dev/null; then
    ok=$(jq -n --argjson s "$speedup" --argjson min "$MIN_MEMO_SPEEDUP" \
         '$s >= $min')
    if [[ "$ok" != "true" ]]; then
      fail "memoized beam workload speedup ${speedup}x < ${MIN_MEMO_SPEEDUP}x"
    else
      echo "OK: memoized beam workload speedup ${speedup}x >= ${MIN_MEMO_SPEEDUP}x"
    fi
  else
    echo "SKIP: memo speedup gate (no avx2; measured ${speedup}x)"
  fi
}
memo_gates

echo "== gemm sweep (register-blocked kernel vs chunk) =="
gemm_gates() {
  (cd "$BUILD_DIR" && bench/bench_micro --benchmark_filter='BM_GemmSweep') ||
    fail "BM_GemmSweep exited nonzero"

  local GEMM_JSON="$BUILD_DIR/bench_out/BENCH_gemm.json"
  [[ -f "$GEMM_JSON" ]] || { fail "$GEMM_JSON not written"; return; }

  # Bitwise floor runs on every machine: blocking reorders work across output
  # elements only, so every kernel row must match the unblocked path bit for
  # bit.
  local not_bitwise variant gemm_speedup ok
  not_bitwise=$(jq -r '[.[] | select(.bitwise_equal != true) | .variant] | join(", ")' \
    "$GEMM_JSON")
  if [[ -n "$not_bitwise" ]]; then
    fail "blocked GEMM differs from the unblocked path: $not_bitwise"
  else
    echo "OK: blocked GEMM bitwise identical to the unblocked path (all variants)"
  fi

  # Throughput gate at the batched GRU-step shapes the served models run;
  # hardware-dependent like the other vector-ISA gates.
  for variant in gemm_double_m28_k32 gemm_double_m32_k32 \
                 gemm_double_m28_k64 gemm_double_m32_k64; do
    gemm_speedup=$(jq -r --arg v "$variant" \
      '.[] | select(.variant == $v) | .speedup_vs_unblocked' "$GEMM_JSON")
    if [[ -z "$gemm_speedup" ]]; then
      fail "$variant missing from $GEMM_JSON"
    elif grep -q avx2 /proc/cpuinfo 2>/dev/null; then
      ok=$(jq -n --argjson s "$gemm_speedup" --argjson min "$MIN_GEMM_SPEEDUP" \
           '$s >= $min')
      if [[ "$ok" != "true" ]]; then
        fail "$variant blocked speedup ${gemm_speedup}x < ${MIN_GEMM_SPEEDUP}x"
      else
        echo "OK: $variant blocked speedup ${gemm_speedup}x >= ${MIN_GEMM_SPEEDUP}x"
      fi
    else
      echo "SKIP: $variant speedup gate (no avx2; measured ${gemm_speedup}x)"
    fi
  done
}
gemm_gates

echo "== proxy logits (ops::Linear vs the output-major row kernel) =="
proxy_gates() {
  (cd "$BUILD_DIR" && bench/bench_micro --benchmark_filter='BM_ProxyLogits') ||
    fail "BM_ProxyLogits exited nonzero"

  local PROXY_JSON="$BUILD_DIR/bench_out/BENCH_proxy.json"
  [[ -f "$PROXY_JSON" ]] || { fail "$PROXY_JSON not written"; return; }
  local not_bitwise
  not_bitwise=$(jq -r '[.[] | select(.bitwise_equal != true) | .variant] | join(", ")' \
    "$PROXY_JSON")
  if [[ -n "$not_bitwise" ]]; then
    fail "output-major proxy logits differ from ops::Linear: $not_bitwise"
  else
    echo "OK: output-major proxy logits bitwise identical to ops::Linear"
  fi
}
proxy_gates

echo "== GRU gates (vector expf/tanhf vs libm, all 2^32 floats) =="
gate_gates() {
  (cd "$BUILD_DIR" && bench/bench_micro --benchmark_filter='BM_GateMath') ||
    fail "BM_GateMath exited nonzero"

  local GATES_JSON="$BUILD_DIR/bench_out/BENCH_gates.json"
  [[ -f "$GATES_JSON" ]] || { fail "$GATES_JSON not written"; return; }
  local not_bitwise
  not_bitwise=$(jq -r '[.[] | select(.bitwise_equal != true)
                            | "\(.variant) (\(.mismatches) mismatches)"]
                       | join(", ")' "$GATES_JSON")
  if [[ -n "$not_bitwise" ]]; then
    fail "GRU gate kernel differs from libm: $not_bitwise"
  else
    echo "OK: GRU gate kernel bitwise identical to libm (all 2^32 floats, H = 64 gates)"
  fi
}
gate_gates

echo "== parity / regression tests =="
for t in inference_test train_sharded_test quant_test; do
  "$BUILD_DIR"/tests/$t || fail "$t"
done

if [[ ${#FAILED[@]} -gt 0 ]]; then
  echo "FAILED ${#FAILED[@]} gate(s):" >&2
  printf '  - %s\n' "${FAILED[@]}" >&2
  exit 1
fi
echo "OK: fast path >= ${MIN_SPEEDUP}x over the graph path and parity holds"
