#!/bin/sh
# Resume smoke test: exercise the snapshot/resume layer end to end through
# the coordctl surface, the way an operator would drive it.
#
#   leg A  truncate an exploration with --max-states, flushing a snapshot,
#          resume it to completion, and require output identical to an
#          uninterrupted oracle run (modulo the throughput line);
#   leg B  SIGTERM a live exploration mid-flight and require a graceful
#          exit with a resumable snapshot on disk (timing-tolerant: the
#          run may legitimately finish before the signal lands);
#   leg C  the exit-code contract: `check` exits 0 clean, 3 truncated,
#          4 rejected snapshot; a usage mistake (a flag combination or
#          an id or process the command cannot take) exits 124 with its
#          message on stderr, before any work starts;
#   leg D  SIGKILL (kill -9) mid-write: whatever the snapshot file looks
#          like after an uncatchable kill, a --salvage resume must accept
#          it and complete (timing-tolerant like leg B).
#
# Usage: scripts/resume_smoke.sh [path-to-coordctl]
set -eu

COORD=${1:-_build/default/bin/coordctl.exe}
if [ ! -x "$COORD" ]; then
  echo "resume_smoke: $COORD not found (run dune build first)" >&2
  exit 2
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/resume_smoke.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

fail() {
  echo "resume_smoke: FAIL: $*" >&2
  exit 1
}

# strip the only nondeterministic line (wall-clock throughput)
scrub() {
  grep -v '^throughput' "$1"
}

# Wait until a background exploration has flushed its first checkpoint
# (or already exited), instead of sleeping a fixed wall-clock amount and
# hoping the run is mid-flight: on a loaded machine a fixed sleep can
# land before the first write (no snapshot to kill over) or after the
# run finished (nothing to signal).
wait_for_snapshot() {
  # $1 = snapshot path, $2 = pid
  while [ ! -s "$1" ] && kill -0 "$2" 2>/dev/null; do
    sleep 0.02
  done
}

# --- leg A: truncate, resume, compare against the oracle ----------------

"$COORD" explore mutex -m 4 >"$tmp/oracle.txt" 2>&1 \
  || fail "oracle run exited $?"

"$COORD" explore mutex -m 4 --max-states 3000 \
  --snapshot "$tmp/cut.snap" >"$tmp/cut.txt" 2>&1 \
  || fail "truncated run exited $?"
grep -qi 'truncated' "$tmp/cut.txt" || fail "budget run was not truncated"
[ -f "$tmp/cut.snap" ] || fail "no snapshot flushed on truncation"

"$COORD" explore mutex -m 4 --resume "$tmp/cut.snap" >"$tmp/resumed.txt" 2>&1 \
  || fail "resumed run exited $?"

scrub "$tmp/oracle.txt" >"$tmp/oracle.flat"
scrub "$tmp/resumed.txt" >"$tmp/resumed.flat"
diff -u "$tmp/oracle.flat" "$tmp/resumed.flat" >&2 \
  || fail "resumed run differs from the uninterrupted oracle"

# --- leg B: SIGTERM mid-exploration, graceful snapshot ------------------

"$COORD" explore mutex -n 3 -m 5 --max-states 200000 \
  --snapshot "$tmp/sig.snap" --snapshot-every 1 >"$tmp/sig.txt" 2>&1 &
pid=$!
wait_for_snapshot "$tmp/sig.snap" "$pid"
kill -TERM "$pid" 2>/dev/null || true   # may already have finished
rc=0
wait "$pid" || rc=$?
[ "$rc" -eq 0 ] || fail "SIGTERM'd exploration exited $rc (want graceful 0)"
[ -f "$tmp/sig.snap" ] || fail "no snapshot flushed on SIGTERM"
"$COORD" explore mutex -n 3 -m 5 --max-states 200000 \
  --resume "$tmp/sig.snap" >"$tmp/sig_resumed.txt" 2>&1 \
  || fail "resume after SIGTERM exited $?"

# --- leg D: SIGKILL mid-write, salvage resume ---------------------------
# A tight checkpoint cadence keeps the snapshot file mid-append most of
# the run, so kill -9 lands on a torn or half-flushed tail with fair
# probability; the salvage layer must cope with every outcome.

"$COORD" explore mutex -n 3 -m 5 --max-states 200000 \
  --snapshot "$tmp/k9.snap" --snapshot-every 1 >"$tmp/k9.txt" 2>&1 &
pid=$!
wait_for_snapshot "$tmp/k9.snap" "$pid"
kill -9 "$pid" 2>/dev/null || true      # may already have finished
wait "$pid" 2>/dev/null || true
if [ -f "$tmp/k9.snap" ]; then
  "$COORD" explore mutex -n 3 -m 5 --max-states 200000 \
    --resume "$tmp/k9.snap" --salvage >"$tmp/k9_resumed.txt" 2>&1 \
    || fail "salvage resume after SIGKILL exited $?"
fi

# --- leg C: the exit-code contract --------------------------------------

"$COORD" check mutex -m 3 >/dev/null 2>&1
rc=$? && [ "$rc" -eq 0 ] || fail "clean check exited $rc (want 0)"

"$COORD" check mutex -m 3 --max-states 500 >/dev/null 2>&1 && rc=0 || rc=$?
[ "$rc" -eq 3 ] || fail "truncated check exited $rc (want 3)"

printf 'not a snapshot' >"$tmp/garbage.snap"
"$COORD" check mutex -m 3 --resume "$tmp/garbage.snap" >/dev/null 2>&1 \
  && rc=0 || rc=$?
[ "$rc" -eq 4 ] || fail "garbage resume exited $rc (want 4)"

# usage mistakes: exit 124 with the message on stderr (not 125, an
# internal error); $1 = the message, the rest = the command's arguments
usage_error() {
  want=$1
  shift
  "$COORD" "$@" >/dev/null 2>"$tmp/usage.err" && rc=0 || rc=$?
  [ "$rc" -eq 124 ] || fail "coordctl $* exited $rc (want 124)"
  grep -qF "$want" "$tmp/usage.err" \
    || fail "coordctl $* did not report: $want"
}
usage_error "drop --par" explore mutex -n 2 -m 3 --disk-visited "$tmp/dv" --par
[ ! -e "$tmp/dv" ] || fail "refused --disk-visited --par still made its directory"
usage_error 'unknown experiment "E99"' tables -e E99
usage_error "crash spec names p5 but n=2" chaos consensus -n 2 --crash 5@1

echo "resume_smoke: OK"
