#!/usr/bin/env bash
# Fault-injection + corruption robustness suite under AddressSanitizer.
#
#   tools/check_fault.sh [build-dir]
#
# Three layers:
#   1. corruption_test  -- byte-level corpus against every binary/CSV loader
#   2. serving_test     -- degradation, deadline and pool-failure coverage
#   3. deepst_cli e2e   -- armed fault points (DEEPST_FAULTS env and --faults
#                          flag), a corrupted data file, bad grid and model
#                          size flags, an unknown flag and a valid city too
#                          large for its grid must each produce a clean
#                          nonzero exit with an error message; never a
#                          crash, never a sanitizer report.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-fault}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDEEPST_SANITIZE=address \
  -DDEEPST_BUILD_BENCHES=OFF \
  -DDEEPST_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target corruption_test serving_test deepst_cli

export ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}"
export DEEPST_FAST=1

"$BUILD_DIR"/tests/corruption_test
"$BUILD_DIR"/tests/serving_test

CLI="$BUILD_DIR"/cli/deepst_cli
DATA_DIR="$(mktemp -d)"
trap 'rm -rf "$DATA_DIR"' EXIT

# Expects the command to exit with a plain failure (not a crash: signals
# surface as exit codes >= 128) and to mention $2 in its output.
expect_fail() {
  local want="$1"; shift
  local out rc=0
  out="$("$@" 2>&1)" || rc=$?
  if [ "$rc" -eq 0 ]; then
    echo "FAIL: expected nonzero exit: $*" >&2; echo "$out" >&2; exit 1
  fi
  if [ "$rc" -ge 128 ]; then
    echo "FAIL: crashed (exit $rc): $*" >&2; echo "$out" >&2; exit 1
  fi
  if ! grep -q "$want" <<<"$out"; then
    echo "FAIL: output missing '$want': $*" >&2; echo "$out" >&2; exit 1
  fi
}

echo "== generate tiny world =="
"$CLI" generate --out-dir "$DATA_DIR" --days 4 --trips-per-day 12 --seed 5

echo "== armed fault points fail cleanly =="
DEEPST_FAULTS="roadnet.load:io_error" expect_fail "injected" \
  "$CLI" evaluate --data-dir "$DATA_DIR" --train-days 2 --val-days 1 \
  --model "$DATA_DIR/none.bin"
expect_fail "injected" \
  "$CLI" evaluate --data-dir "$DATA_DIR" --train-days 2 --val-days 1 \
  --model "$DATA_DIR/none.bin" --faults "traj.load:partial_read"
expect_fail "unknown fault kind" \
  "$CLI" evaluate --data-dir "$DATA_DIR" --faults "traj.load:not_a_kind"

echo "== corrupted data files fail cleanly =="
cp "$DATA_DIR/dataset.bin" "$DATA_DIR/dataset.bak"
printf '\x5a' | dd of="$DATA_DIR/dataset.bin" bs=1 seek=100 conv=notrunc \
  status=none
expect_fail "CRC mismatch" \
  "$CLI" evaluate --data-dir "$DATA_DIR" --train-days 2 --val-days 1 \
  --model "$DATA_DIR/none.bin"
mv "$DATA_DIR/dataset.bak" "$DATA_DIR/dataset.bin"
head -c 64 "$DATA_DIR/network.bin" > "$DATA_DIR/network.trunc"
cp "$DATA_DIR/network.bin" "$DATA_DIR/network.bak"
mv "$DATA_DIR/network.trunc" "$DATA_DIR/network.bin"
expect_fail "" \
  "$CLI" evaluate --data-dir "$DATA_DIR" --train-days 2 --val-days 1 \
  --model "$DATA_DIR/none.bin"
mv "$DATA_DIR/network.bak" "$DATA_DIR/network.bin"

echo "== bad grids, model sizes and unknown flags fail cleanly =="
expect_fail "traffic-cell-m" \
  "$CLI" evaluate --data-dir "$DATA_DIR" --train-days 2 --val-days 1 \
  --model "$DATA_DIR/none.bin" --traffic-cell-m 0
expect_fail "traffic-slot-s" \
  "$CLI" evaluate --data-dir "$DATA_DIR" --train-days 2 --val-days 1 \
  --model "$DATA_DIR/none.bin" --traffic-slot-s nan
expect_fail "cell size" \
  "$CLI" convert --in "$DATA_DIR/network.bin" --out "$DATA_DIR/never.bin" \
  --cell-size 0
expect_fail "hidden" \
  "$CLI" train --data-dir "$DATA_DIR" --train-days 2 --val-days 1 \
  --model "$DATA_DIR/never.bin" --hidden 0
mkdir "$DATA_DIR/bogus"
expect_fail "unknown flag --bogus" \
  "$CLI" generate --out-dir "$DATA_DIR/bogus" --bogus 1
if [ -n "$(ls -A "$DATA_DIR/bogus")" ] || [ -e "$DATA_DIR/never.bin" ]; then
  echo "FAIL: a rejected command wrote its output" >&2; exit 1
fi
# A valid network.bin whose 250 m index grid would hold 4.3e9 cells: the
# generated (v2) file with vertex 0 moved to (1.64e7, 1.64e7) and its CRC
# re-sealed.
cp "$DATA_DIR/network.bin" "$DATA_DIR/network.bak"
python3 - "$DATA_DIR/network.bin" <<'EOF'
import struct, sys, zlib
path = sys.argv[1]
b = bytearray(open(path, "rb").read())
# v2 layout: magic, version and vertex count (u32 each), then vertex 0's
# x and y (f64 each); the last 4 bytes are the CRC-32 of everything before.
struct.pack_into("<dd", b, 12, 1.64e7, 1.64e7)
struct.pack_into("<I", b, len(b) - 4, zlib.crc32(bytes(b[:-4])))
open(path, "wb").write(b)
EOF
expect_fail "cells, more than" \
  "$CLI" evaluate --data-dir "$DATA_DIR" --train-days 2 --val-days 1 \
  --model "$DATA_DIR/none.bin"
mv "$DATA_DIR/network.bak" "$DATA_DIR/network.bin"

echo "== train a small model for the serving e2e =="
"$CLI" train --data-dir "$DATA_DIR" --train-days 2 --val-days 1 \
  --model "$DATA_DIR/model.bin" --epochs 1 --hidden 8 --proxies 8

echo "== serving e2e: degrade by default, refuse under --strict, inject =="
# Test trip 0 has no traffic observations in its snapshot window (the tiny
# world is sparse), so default mode serves it degraded...
"$CLI" predict --data-dir "$DATA_DIR" --train-days 2 --val-days 1 \
  --model "$DATA_DIR/model.bin" --hidden 8 --proxies 8 --trip 0 \
  --deadline-ms 200
# ...and strict mode refuses the same query with FailedPrecondition.
expect_fail "strict mode refuses" \
  "$CLI" predict --data-dir "$DATA_DIR" --train-days 2 --val-days 1 \
  --model "$DATA_DIR/model.bin" --hidden 8 --proxies 8 --trip 0 --strict
expect_fail "injected" \
  "$CLI" predict --data-dir "$DATA_DIR" --train-days 2 --val-days 1 \
  --model "$DATA_DIR/model.bin" --hidden 8 --proxies 8 --trip 0 \
  --faults "infer.query:io_error"

echo "OK: fault-injection and corruption suites clean under address sanitizer"
