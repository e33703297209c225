#!/usr/bin/env bash
# Builds the concurrency-sensitive tests under a sanitizer and runs them.
#
#   tools/check_sanitize.sh [thread|address|undefined] [build-dir]
#
# The sanitizer (default: thread) maps to the DEEPST_SANITIZE CMake option;
# the instrumented tree lives in its own build directory (default
# build-<sanitizer>/) so it never collides with the regular build.
# "undefined" is UBSan built with -fno-sanitize-recover=undefined, so any
# report aborts the test binary.
set -euo pipefail

cd "$(dirname "$0")/.."
SANITIZER="${1:-${DEEPST_SANITIZE:-thread}}"
case "$SANITIZER" in
  thread|address|undefined) ;;
  *) echo "usage: tools/check_sanitize.sh [thread|address|undefined] [build-dir]" >&2
     exit 2 ;;
esac
BUILD_DIR="${2:-build-$SANITIZER}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDEEPST_SANITIZE="$SANITIZER" \
  -DDEEPST_BUILD_BENCHES=OFF \
  -DDEEPST_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target parallel_test trainer_test checkpoint_test inference_test \
           train_sharded_test corruption_test serving_test serve_test \
           format_v3_test spatial_index_test quant_test streaming_test \
           traffic_test

# halt_on_error makes a reported race/issue fail the script, not just print.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
export ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
export DEEPST_FAST=1

"$BUILD_DIR"/tests/parallel_test
"$BUILD_DIR"/tests/trainer_test
"$BUILD_DIR"/tests/checkpoint_test
"$BUILD_DIR"/tests/inference_test
"$BUILD_DIR"/tests/train_sharded_test
"$BUILD_DIR"/tests/corruption_test
"$BUILD_DIR"/tests/serving_test
"$BUILD_DIR"/tests/serve_test
"$BUILD_DIR"/tests/format_v3_test
"$BUILD_DIR"/tests/spatial_index_test
"$BUILD_DIR"/tests/quant_test
"$BUILD_DIR"/tests/streaming_test
# Published-snapshot reader contract + live swap/pinning races
# (docs/streaming.md): concurrent lazy slot builds and swaps racing the
# reader fleet must be clean under TSan.
"$BUILD_DIR"/tests/traffic_test \
  --gtest_filter='TrafficTensorCacheTest.ConcurrentReadersAreSafe' \
  --gtest_repeat=3

# Short chaos soak: repeat the fault-driven serve tests (poisoned batches,
# hung-worker watchdog recycling) so the injected-failure and lease-recycling
# paths run many times under the sanitizer (docs/serving.md).
"$BUILD_DIR"/tests/serve_test --gtest_repeat=5 \
  --gtest_filter='ServeTest.PoisonedRequestFailsAloneInItsBatch:ServeTest.WatchdogRecyclesHungWorkerAndSpawnsReplacement:ServeTest.ShedsWhenQueueFullWithRetryAfterHint'

echo "OK: ThreadPool/backend/checkpoint/inference/sharded-training/robustness/format-v3/serve/quant tests clean under $SANITIZER sanitizer"
