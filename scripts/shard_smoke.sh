#!/usr/bin/env bash
# Sharded out-of-core smoke test (make shard-smoke):
#
#   1. run the tiny bundled campaign through the sharded check pipeline
#      (--shards 4 --mem-budget 64M) with a dedicated spill directory and
#      require its canonical report to be byte-identical to a --shards 1
#      run and to the default (unsharded) pipeline — and so must the
#      canonical-identity matrix: --no-incremental, --incremental-debug,
#      --shards 3 --incremental-debug and --shards 8 --mem-budget 4K
#      --incremental-debug (from-scratch closures, and delta closures
#      cross-checked against fresh ones, across shard counts and spills);
#   2. rerun with a 1 KiB budget so every shard segment actually spills,
#      require the same canonical bytes again, and require the spill
#      directory to be empty afterwards — completed runs must not leak
#      mechaspill-* scratch;
#   3. start the mechaserve daemon with sharding enabled under the tiny
#      budget, submit a campaign, require /v1/stats to report the sharding
#      block with engaged spills and the streamed verdicts to match the
#      local reference, then SIGTERM it and require the drain to leave the
#      spill directory empty as well;
#   4. export the bundled automata and run one counterexample-producing
#      `run` (protocol receiver against the fire-and-forget sender) as is
#      and under --shards 4 --mem-budget 1K: stdout, the rendered
#      Counterexample listing included, must be byte-identical, and the
#      spill directory empty afterwards.
#
# The binary is the dune-built mechaverify; override BIN/DIR to point
# elsewhere.  Any failing step fails the script (set -e).
set -euo pipefail

BIN=${BIN:-./_build/default/bin/mechaverify.exe}
DIR=${DIR:-_build/shard-smoke}
DRAIN_DEADLINE_S=${DRAIN_DEADLINE_S:-10}

rm -rf "$DIR"
mkdir -p "$DIR/spill"

DAEMON_PID=
DAEMON_LOG="$DIR/daemon.log"

cleanup() {
  status=$?
  if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill -9 "$DAEMON_PID" 2>/dev/null || true
  fi
  exit "$status"
}
trap cleanup EXIT

fail() {
  echo "shard-smoke: $1" >&2
  [ -f "$DAEMON_LOG" ] && { echo "--- daemon log ---" >&2; cat "$DAEMON_LOG" >&2; }
  exit 1
}

spill_leftovers() {
  find "$DIR/spill" -mindepth 1 2>/dev/null | head -n 5
}

# -- 1: canonical equality across shard counts and incremental modes ---------

"$BIN" campaign --tiny --jobs 2 --log-level quiet \
  --canonical "$DIR/unsharded.canonical" >"$DIR/unsharded.out" 2>&1 \
  || fail "unsharded campaign failed: $(cat "$DIR/unsharded.out")"

"$BIN" campaign --tiny --jobs 2 --log-level quiet \
  --shards 1 --spill-dir "$DIR/spill" \
  --canonical "$DIR/shard1.canonical" >"$DIR/shard1.out" 2>&1 \
  || fail "--shards 1 campaign failed: $(cat "$DIR/shard1.out")"

"$BIN" campaign --tiny --jobs 2 --log-level quiet \
  --shards 4 --mem-budget 64M --spill-dir "$DIR/spill" \
  --canonical "$DIR/shard4.canonical" >"$DIR/shard4.out" 2>&1 \
  || fail "--shards 4 campaign failed: $(cat "$DIR/shard4.out")"

cmp -s "$DIR/unsharded.canonical" "$DIR/shard1.canonical" \
  || fail "--shards 1 canonical differs from the unsharded pipeline"
cmp -s "$DIR/unsharded.canonical" "$DIR/shard4.canonical" \
  || fail "--shards 4 --mem-budget 64M canonical differs from the unsharded pipeline"

matrix=0
for mode in "--no-incremental" "--incremental-debug" "--shards 3 --incremental-debug" \
  "--shards 8 --mem-budget 4K --incremental-debug"; do
  matrix=$((matrix + 1))
  # shellcheck disable=SC2086 # each mode is a list of flags
  "$BIN" campaign --tiny --jobs 2 --log-level quiet $mode --spill-dir "$DIR/spill" \
    --canonical "$DIR/matrix$matrix.canonical" >"$DIR/matrix$matrix.out" 2>&1 \
    || fail "$mode campaign failed: $(cat "$DIR/matrix$matrix.out")"
  cmp -s "$DIR/unsharded.canonical" "$DIR/matrix$matrix.canonical" \
    || fail "$mode canonical differs from the unsharded pipeline"
done

# -- 2: forced spilling, identical bytes, no scratch left behind --------------

"$BIN" campaign --tiny --jobs 2 --log-level quiet \
  --shards 4 --mem-budget 1K --spill-dir "$DIR/spill" \
  --canonical "$DIR/spilled.canonical" >"$DIR/spilled.out" 2>&1 \
  || fail "budgeted campaign failed: $(cat "$DIR/spilled.out")"
cmp -s "$DIR/unsharded.canonical" "$DIR/spilled.canonical" \
  || fail "spilled canonical differs from the unsharded pipeline"
left=$(spill_leftovers)
[ -z "$left" ] || fail "campaign left spill scratch behind: $left"

# -- 3: sharded daemon — stats block, identical verdicts, clean drain ---------

"$BIN" serve --port 0 --workers 2 --handlers 2 \
  --shards 4 --mem-budget 1K --spill-dir "$DIR/spill" \
  >"$DAEMON_LOG" 2>&1 &
DAEMON_PID=$!
PORT=
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/^mechaserve listening on [^:]*:\([0-9][0-9]*\)$/\1/p' \
    "$DAEMON_LOG" | head -n 1)
  [ -n "$PORT" ] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died before listening"
  sleep 0.1
done
[ -n "$PORT" ] || fail "daemon never reported a listening port"

"$BIN" submit --port "$PORT" --tiny --tenant shard-smoke \
  --canonical "$DIR/daemon.canonical" >"$DIR/daemon.out" 2>&1 \
  || fail "sharded daemon submission failed: $(cat "$DIR/daemon.out")"
cmp -s "$DIR/unsharded.canonical" "$DIR/daemon.canonical" \
  || fail "daemon-served canonical differs from the local unsharded run"

"$BIN" probe --port "$PORT" >"$DIR/stats.json"
grep -q '"sharding":{"enabled":true,"shards":4' "$DIR/stats.json" \
  || fail "/v1/stats lacks the sharding block: $(cat "$DIR/stats.json")"
spills=$(sed -n 's/.*"spills":\([0-9][0-9]*\).*/\1/p' "$DIR/stats.json" | head -n 1)
[ -n "$spills" ] && [ "$spills" -gt 0 ] \
  || fail "/v1/stats reports no spills under a 1 KiB budget (spills: ${spills:-none})"

kill -TERM "$DAEMON_PID"
deadline=$((DRAIN_DEADLINE_S * 10))
for _ in $(seq 1 "$deadline"); do
  kill -0 "$DAEMON_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$DAEMON_PID" 2>/dev/null \
  && fail "daemon did not drain within ${DRAIN_DEADLINE_S}s"
wait "$DAEMON_PID" || fail "daemon exited nonzero after SIGTERM"
DAEMON_PID=

left=$(spill_leftovers)
[ -z "$left" ] || fail "daemon drain left spill scratch behind: $left"

# -- 4: a rendered counterexample, identical under sharding -------------------

"$BIN" export --dir "$DIR/export" >/dev/null || fail "export failed"
run_cex() {
  # exit 1 is the verdict (a real violation), not a failure
  status=0
  "$BIN" run --context "$DIR/export/protocol_receiver.aut" \
    --legacy "$DIR/export/protocol_sender_fire_and_forget.aut" --property true \
    "$@" >"$out" 2>"$out.err" || status=$?
  [ "$status" -eq 1 ] || fail "run $* exited $status, expected 1: $(cat "$out.err")"
}
out="$DIR/cex.out" run_cex
out="$DIR/cex-sharded.out" run_cex --shards 4 --mem-budget 1K --spill-dir "$DIR/spill"
grep -q '^Counterexample:' "$DIR/cex.out" || fail "run printed no counterexample"
cmp -s "$DIR/cex.out" "$DIR/cex-sharded.out" \
  || fail "sharded run's output differs: $(diff "$DIR/cex.out" "$DIR/cex-sharded.out")"
left=$(spill_leftovers)
[ -z "$left" ] || fail "sharded run left spill scratch behind: $left"

echo "shard-smoke: OK (canonicals and a rendered counterexample identical across shard counts, spills engaged and cleaned up)"
