#!/usr/bin/env bash
# Fault-injection + corruption robustness suite under AddressSanitizer.
#
#   tools/check_fault.sh [build-dir]
#
# Three layers:
#   1. corruption_test  -- byte-level corpus against every binary/CSV loader
#   2. serving_test     -- degradation, deadline and pool-failure coverage
#   3. deepst_cli e2e   -- armed fault points (DEEPST_FAULTS env and --faults
#                          flag), a corrupted data file, a file of another
#                          format version, bad grid, slot and model size
#                          flags, an unknown flag and a valid city too large
#                          for its grid must each produce a clean nonzero
#                          exit with an error message (from `inspect` too,
#                          for the files); never a crash, never a sanitizer
#                          report.
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

echo "== bad grids, slots, model sizes, unknown flags and file versions fail cleanly =="
expect_fail "traffic-cell-m" \
  "$CLI" evaluate --data-dir "$DATA_DIR" --train-days 2 --val-days 1 \
  --model "$DATA_DIR/none.bin" --traffic-cell-m 0
expect_fail "traffic-slot-s" \
  "$CLI" evaluate --data-dir "$DATA_DIR" --train-days 2 --val-days 1 \
  --model "$DATA_DIR/none.bin" --traffic-slot-s nan
expect_fail "traffic-slot-s" \
  "$CLI" evaluate --data-dir "$DATA_DIR" --train-days 2 --val-days 1 \
  --model "$DATA_DIR/none.bin" --traffic-slot-s 1e-5
expect_fail "hidden" \
  "$CLI" train --data-dir "$DATA_DIR" --train-days 2 --val-days 1 \
  --model "$DATA_DIR/never.bin" --hidden 0
mkdir "$DATA_DIR/bogus"
expect_fail "unknown flag --bogus" \
  "$CLI" generate --out-dir "$DATA_DIR/bogus" --bogus 1
if [ -n "$(ls -A "$DATA_DIR/bogus")" ] || [ -e "$DATA_DIR/never.bin" ]; then
  echo "FAIL: a rejected command wrote its output" >&2; exit 1
fi
# Patches network.bin in place: packs VALUES with the struct FORMAT at byte
# OFFSET of section SECTION's payload (section 0: the file itself, from its
# header), then re-seals the CRC-32 in the 8-byte footer over everything
# before the footer, so only the loader's own checks can reject the file.
#   patch_network SECTION OFFSET FORMAT VALUES...
patch_network() {
  python3 - "$DATA_DIR/network.bin" "$@" <<'EOF'
import struct, sys, zlib
path, section, offset, fmt = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
kind = float if fmt[-1] in "df" else int
values = [kind(v) for v in sys.argv[5:]]
b = bytearray(open(path, "rb").read())
if section != 0:
    # The 48-byte header keeps the section count at byte 32; each 24-byte
    # section-table entry after it is (u32 id, u32 reserved, u64 offset,
    # u64 bytes).
    (num_sections,) = struct.unpack_from("<I", b, 32)
    entries = [struct.unpack_from("<IIQQ", b, 48 + 24 * i)
               for i in range(num_sections)]
    offset += next(e[2] for e in entries if e[0] == section)
struct.pack_into(fmt, b, offset, *values)
struct.pack_into("<I", b, len(b) - 8, zlib.crc32(bytes(b[:-8])))
open(path, "wb").write(b)
EOF
}
cp "$DATA_DIR/network.bin" "$DATA_DIR/network.bak"
# A valid network.bin whose 250 m index grid would hold 4.3e9 cells: vertex
# 0 (section 1) moved to (1.64e7, 1.64e7).
patch_network 1 0 "<dd" 1.64e7 1.64e7
expect_fail "cells, more than" \
  "$CLI" evaluate --data-dir "$DATA_DIR" --train-days 2 --val-days 1 \
  --model "$DATA_DIR/none.bin"
expect_fail "cells, more than" "$CLI" inspect "$DATA_DIR/network.bin"
cp "$DATA_DIR/network.bak" "$DATA_DIR/network.bin"
# Segment 0 (section 2) with `to`, at byte 4 of the record, out of range.
patch_network 2 4 "<i" 9999
expect_fail "endpoint out of range" "$CLI" inspect "$DATA_DIR/network.bin"
cp "$DATA_DIR/network.bak" "$DATA_DIR/network.bin"
# A file of another format version is refused, naming the remedy.
patch_network 0 4 "<I" 2
expect_fail "deepst_cli generate" \
  "$CLI" evaluate --data-dir "$DATA_DIR" --train-days 2 --val-days 1 \
  --model "$DATA_DIR/none.bin"
expect_fail "unsupported version 2" "$CLI" inspect "$DATA_DIR/network.bin"
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
