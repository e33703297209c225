#!/usr/bin/env bash
# End-to-end soak of the `deepst serve` daemon (docs/serving.md).
#
#   tools/check_serve.sh [build-dir]
#
# Stages:
#   1. Startup health check -- `serve` must refuse (nonzero, no crash) a
#      data dir whose network file fails its CRC, exactly like `inspect`.
#   2. Healthy fleet -- a pipelined request stream is fully served: one
#      tagged response per request, zero errors, clean drain on `quit`; and
#      the daemon's `predict_trip K` serves the route `predict --trip K`
#      prints, for K = 0..3.
#   3. Chaos soak (I/O faults) -- DEEPST_FAULTS armed on infer.query under
#      fleet load: the daemon must exit 0 (its own shutdown check fails the
#      process on leaked session leases), some requests fail cleanly, their
#      co-riders survive, and the admission counters balance exactly.
#   4. Chaos soak (latency + deadlines + watchdog) -- latency spikes under a
#      tight end-to-end deadline with the hung-worker watchdog armed.
#   5. SIGTERM drain -- a long-lived daemon must drain and exit 0 on
#      SIGTERM, never hang or crash.
#   6. Ingest storm + kill -9 (docs/streaming.md) -- live traffic enabled
#      via --traffic-wal: seed observations, swap, record a pinned query,
#      then kill -9 the daemon mid-ingest-storm. A restart must replay the
#      WAL (torn tail tolerated), land on the same generation, and serve
#      the recorded query bitwise identically.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S . > /dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" --target deepst_cli

CLI="$BUILD_DIR"/cli/deepst_cli
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Split + model-shape flags shared by train and every serve run.
DATA_FLAGS=(--train-days 2 --val-days 1 --hidden 16 --proxies 8)

# Expects nonzero exit, no crash (signals exit >= 128), output naming $1.
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

# Emits n requests (every fifth one a score) plus stats and quit.
gen_requests() {
  local n="$1"
  for ((i = 0; i < n; i++)); do
    if (( i % 5 == 4 )); then echo "score_trip $i"; else echo "predict_trip $i"; fi
  done
  echo "stats"
  echo "quit"
}

# Asserts the daemon's final drained counters balance: every submission is
# accounted for by exactly one admission-or-rejection counter, and every
# admitted request by exactly one completion counter.
check_invariants() {
  local errlog="$1"
  local drained
  drained=$(grep -m1 '^drained: ' "$errlog" | sed 's/^drained: //')
  if [ -z "$drained" ]; then
    echo "FAIL: no drained counters in $errlog" >&2; exit 1
  fi
  local ok
  ok=$(jq -n --argjson m "$drained" \
    '($m.submitted == $m.admitted + $m.shed_queue_full + $m.rejected_draining)
     and ($m.admitted == $m.completed_ok + $m.failed)
     and ($m.expired_in_queue <= $m.failed)')
  if [ "$ok" != "true" ]; then
    echo "FAIL: serve counters do not balance: $drained" >&2; exit 1
  fi
  echo "OK: counters balance ($drained)"
}

echo "== generate + train a tiny model =="
"$CLI" generate --out-dir "$WORK" --days 4 --trips-per-day 12 --seed 5
"$CLI" train --data-dir "$WORK" "${DATA_FLAGS[@]}" \
  --model "$WORK/model.bin" --epochs 1

echo "== startup health check gates on file validation =="
BROKEN="$WORK/broken"
mkdir -p "$BROKEN"
cp "$WORK/network.bin" "$WORK/dataset.bin" "$BROKEN/"
size=$(stat -c%s "$BROKEN/network.bin")
# Flip one payload byte: the header still parses, the CRC must not.
printf '\xa5' | dd of="$BROKEN/network.bin" bs=1 seek=$((size - 64)) \
  conv=notrunc status=none
expect_fail "failed validation" "$CLI" inspect "$BROKEN/network.bin"
expect_fail "health check failed" "$CLI" serve --data-dir "$BROKEN" \
  "${DATA_FLAGS[@]}" --model "$WORK/model.bin"
echo "OK: corrupt network refused by inspect and serve alike"

echo "== healthy fleet =="
N=30
rc=0
gen_requests "$N" | "$CLI" serve --data-dir "$WORK" "${DATA_FLAGS[@]}" \
  --model "$WORK/model.bin" --workers 2 --max-batch 4 \
  > "$WORK/healthy.out" 2> "$WORK/healthy.err" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL: healthy serve exited $rc" >&2; cat "$WORK/healthy.err" >&2
  exit 1
fi
oks=$(grep -c '^#[0-9]* ok ' "$WORK/healthy.out" || true)
errs=$(grep -c '^#[0-9]* error ' "$WORK/healthy.out" || true)
if [ "$oks" -ne "$N" ] || [ "$errs" -ne 0 ]; then
  echo "FAIL: healthy fleet served $oks/$N ok, $errs errors" >&2
  cat "$WORK/healthy.out" >&2; exit 1
fi
check_invariants "$WORK/healthy.err"
echo "OK: $N/$N requests served, zero errors"
# One request pipeline: the CLI's single query and the daemon's batch serve
# the same route. Both index the test split as K % its size, and request K
# of the stream above is `predict_trip K`.
for K in 0 1 2 3; do
  cli_route=$("$CLI" predict --data-dir "$WORK" "${DATA_FLAGS[@]}" \
    --model "$WORK/model.bin" --trip "$K" |
    sed -nE 's/^predicted\( *[0-9]+\): //p' | tr ' ' ',')
  daemon_route=$(sed -nE "s/^#$K ok .*route=([0-9,]+) .*/\1/p" \
    "$WORK/healthy.out")
  if [ -z "$cli_route" ] || [ "$cli_route" != "$daemon_route" ]; then
    echo "FAIL: trip $K: predict served '$cli_route'," \
      "the daemon '$daemon_route'" >&2
    exit 1
  fi
done
echo "OK: predict --trip K and the daemon's predict_trip K agree (K = 0..3)"

echo "== chaos soak: injected I/O faults under fleet load =="
N=80
rc=0
gen_requests "$N" | DEEPST_FAULTS="infer.query:io_error@6x12" \
  "$CLI" serve --data-dir "$WORK" "${DATA_FLAGS[@]}" \
  --model "$WORK/model.bin" --workers 2 --queue-capacity 8 --max-batch 4 \
  > "$WORK/chaos.out" 2> "$WORK/chaos.err" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL: chaos serve exited $rc (crash or leaked leases)" >&2
  cat "$WORK/chaos.err" >&2; exit 1
fi
oks=$(grep -c '^#[0-9]* ok ' "$WORK/chaos.out" || true)
errs=$(grep -c '^#[0-9]* error ' "$WORK/chaos.out" || true)
if [ "$errs" -lt 1 ]; then
  echo "FAIL: armed faults never surfaced (0 request errors)" >&2; exit 1
fi
if [ "$oks" -lt $((N / 2)) ]; then
  echo "FAIL: only $oks/$N requests survived the fault storm" >&2
  cat "$WORK/chaos.out" >&2; exit 1
fi
if [ $((oks + errs)) -ne "$N" ]; then
  echo "FAIL: $((oks + errs)) responses for $N requests" >&2; exit 1
fi
check_invariants "$WORK/chaos.err"
echo "OK: $errs injected failures isolated, $oks co-riders served"

echo "== chaos soak: latency spikes + deadlines + watchdog =="
N=60
rc=0
gen_requests "$N" | DEEPST_FAULTS="infer.query:latency@2x20" \
  "$CLI" serve --data-dir "$WORK" "${DATA_FLAGS[@]}" \
  --model "$WORK/model.bin" --workers 2 --queue-capacity 6 --max-batch 2 \
  --deadline-ms 250 --watchdog-ms 5 --hung-ms 50 \
  > "$WORK/latency.out" 2> "$WORK/latency.err" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL: latency-chaos serve exited $rc" >&2
  cat "$WORK/latency.err" >&2; exit 1
fi
responses=$(grep -c '^#[0-9]* ' "$WORK/latency.out" || true)
if [ "$responses" -ne "$N" ]; then
  echo "FAIL: $responses responses for $N requests under latency faults" >&2
  exit 1
fi
check_invariants "$WORK/latency.err"
echo "OK: every request resolved under latency faults + deadlines"

echo "== SIGTERM drains and exits 0 =="
FIFO="$WORK/fifo"
mkfifo "$FIFO"
"$CLI" serve --data-dir "$WORK" "${DATA_FLAGS[@]}" --model "$WORK/model.bin" \
  --workers 2 < "$FIFO" > "$WORK/drain.out" 2> "$WORK/drain.err" &
PID=$!
exec 3> "$FIFO"  # hold the write end open so stdin does not EOF
for _ in $(seq 1 100); do
  grep -q '^serving:' "$WORK/drain.err" 2>/dev/null && break
  sleep 0.2
done
echo "predict_trip 0" >&3
sleep 1
kill -TERM "$PID"
rc=0
wait "$PID" || rc=$?
exec 3>&-
if [ "$rc" -ne 0 ]; then
  echo "FAIL: SIGTERM drain exited $rc" >&2
  cat "$WORK/drain.err" >&2; exit 1
fi
check_invariants "$WORK/drain.err"
echo "OK: SIGTERM drained cleanly (exit 0)"

echo "== ingest storm: kill -9 mid-append, WAL replay, pinned-query identity =="
WAL="$WORK/traffic.wal"
LIVE_FIFO="$WORK/live_fifo"
mkfifo "$LIVE_FIFO"
# Strips the request tag and the (legitimately varying) latency field so
# response lines can be compared bitwise across a crash/restart.
normalize() { sed -E 's/^#[0-9]+ //; s/ latency_ms=[0-9.]+//'; }

"$CLI" serve --data-dir "$WORK" "${DATA_FLAGS[@]}" --model "$WORK/model.bin" \
  --workers 2 --traffic-wal "$WAL" --swap-interval-ms 0 \
  < "$LIVE_FIFO" > "$WORK/live.out" 2> "$WORK/live.err" &
PID=$!
exec 4> "$LIVE_FIFO"
for _ in $(seq 1 100); do
  grep -q '^serving:' "$WORK/live.err" 2>/dev/null && break
  sleep 0.2
done
# Seed observations inside the recorded query's window, fold them into a
# published snapshot (generation 2), and record the pinned response.
echo "ingest 100,200,200,5;200,300,300,6;700,400,400,7" >&4
echo "swap" >&4
echo "predict 0 500 500 1500" >&4
# Responses flush on the next protocol line; a second swap drains the
# pipeline (and publishes nothing, since nothing is pending).
echo "swap" >&4
for _ in $(seq 1 100); do
  grep -q '^#1 ' "$WORK/live.out" 2>/dev/null && break
  sleep 0.2
done
REF=$(grep -m1 '^#1 ' "$WORK/live.out" | normalize)
if [ -z "$REF" ] || ! grep -q 'gen=2' <<<"$REF"; then
  echo "FAIL: recorded query missing or not pinned to generation 2" >&2
  cat "$WORK/live.out" "$WORK/live.err" >&2; exit 1
fi
# Storm: concurrent ingest (far outside the recorded window) + predicts,
# then kill -9 the daemon while appends are in flight.
(
  i=0
  while :; do
    echo "ingest $((500000 + i)),250,250,5" || break
    echo "predict_trip $((i % 8))" || break
    i=$((i + 1))
  done >&4
) 2>/dev/null &
STORM=$!
sleep 1
kill -9 "$PID"
rc=0
wait "$PID" || rc=$?
kill "$STORM" 2>/dev/null || true
wait "$STORM" 2>/dev/null || true
exec 4>&-
if [ "$rc" -ne 137 ]; then
  echo "FAIL: expected exit 137 after kill -9, got $rc" >&2; exit 1
fi
if [ ! -s "$WAL" ]; then
  echo "FAIL: no WAL left behind by the killed daemon" >&2; exit 1
fi

# Restart on the same WAL: replay must rebuild generation 2 and serve the
# recorded query bitwise identically (acked rows survive; at most the
# unacked torn tail is dropped).
printf 'predict 0 500 500 1500\nquit\n' | \
  "$CLI" serve --data-dir "$WORK" "${DATA_FLAGS[@]}" --model "$WORK/model.bin" \
  --workers 2 --traffic-wal "$WAL" --swap-interval-ms 0 \
  > "$WORK/replay.out" 2> "$WORK/replay.err" || {
  echo "FAIL: restart on recovered WAL did not exit 0" >&2
  cat "$WORK/replay.err" >&2; exit 1
}
if ! grep -q 'live traffic: wal .* replayed' "$WORK/replay.err"; then
  echo "FAIL: restart did not report a WAL replay" >&2
  cat "$WORK/replay.err" >&2; exit 1
fi
POST=$(grep -m1 '^#0 ' "$WORK/replay.out" | normalize)
if [ "$REF" != "$POST" ]; then
  echo "FAIL: pinned query diverged across crash/restart" >&2
  echo "  pre-crash:  $REF" >&2
  echo "  post-crash: $POST" >&2
  cat "$WORK/replay.err" >&2; exit 1
fi
check_invariants "$WORK/replay.err"
# Opening the WAL truncated any torn tail, so inspect must now pass and
# agree with the daemon's own accounting.
"$CLI" inspect "$WAL" > "$WORK/wal.inspect" || {
  echo "FAIL: inspect rejected the recovered WAL" >&2
  cat "$WORK/wal.inspect" >&2; exit 1
}
grep -q 'traffic wal v1: .* crc OK' "$WORK/wal.inspect" || {
  echo "FAIL: inspect did not identify a clean traffic WAL" >&2
  cat "$WORK/wal.inspect" >&2; exit 1
}
echo "OK: pinned query bitwise identical across kill -9 + WAL replay"

echo "OK: serve daemon soak passed (health gate, fleet, chaos, drain, ingest storm)"
