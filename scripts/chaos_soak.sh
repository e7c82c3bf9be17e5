#!/bin/sh
# Chaos soak: sweep the (explorer x fault plan) matrix through the
# coordctl surface and require, for every cell, either
# bit-identity with the fault-free oracle or an honestly reported
# degradation — never a hang, a corrupt manifest, or a silently wrong
# state count.
#
#   leg 1  fault-free oracles (seq, par) pin down the invariant
#          statistics lines;
#   leg 2  the parallel explorer under two seeded fault plans (worker
#          kills and stalls absorbed by re-mapping chunks, the rest by
#          recovery) must converge to the par oracle's invariant lines;
#   leg 3  disk-visited cells under plans widened with storage faults
#          (--disk-faults: short writes, EIO, ENOSPC, fsync failures)
#          must converge to the sequential oracle's invariant lines;
#   leg 4  honest degradation: a byte quota stops the external-memory
#          run with stop reason disk_full and an intact checkpoint; the
#          quota-free resume completes bit-identically, which also
#          re-validates every run file the manifest references.
#
# Every cell runs under a hard timeout: "never hangs" is part of the
# contract. The whole soak replays from its printed seed:
#   CHAOS_SEED=N scripts/chaos_soak.sh        (default 29)
set -eu

COORD=${1:-_build/default/bin/coordctl.exe}
SEED=${CHAOS_SEED:-29}
if [ ! -x "$COORD" ]; then
  echo "chaos_soak: $COORD not found (run dune build first)" >&2
  exit 2
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/chaos_soak.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

fail() {
  echo "chaos_soak: FAIL: $*" >&2
  exit 1
}

# The invariant lines of `explore` output: drop wall-clock throughput,
# the echoed fault plan, and the infrastructure-weather lines
# (worker restarts, recovery retries, spill counts) that faults
# legitimately perturb. States,
# completeness, transitions, depth and dedup accounting must survive
# any absorbed fault bit for bit.
flat() {
  grep -v \
    -e '^fault plan:' -e '^throughput' -e '^supervision:' \
    -e '^recovery:' -e '^disk visited:' "$1"
}

echo "chaos_soak: fault plan seed $SEED (replay with CHAOS_SEED=$SEED)"

# --- leg 1: fault-free oracles ------------------------------------------

"$COORD" explore mutex -m 3 >"$tmp/oracle_seq.txt" 2>&1 \
  || fail "seq oracle exited $?"
"$COORD" explore mutex -m 3 --par --domains 3 \
  >"$tmp/oracle_par.txt" 2>&1 || fail "par oracle exited $?"
flat "$tmp/oracle_par.txt" >"$tmp/oracle_par.flat"

# --- leg 2: the parallel explorer under seeded fault plans --------------

for plan in "$SEED" $((SEED + 1)); do
  cell="par/plan$plan"
  timeout 45 "$COORD" explore mutex -m 3 --par --domains 3 \
    --inject-faults "$plan" \
    --snapshot "$tmp/cell.snap" >"$tmp/cell.txt" 2>"$tmp/cell.err" \
    || fail "$cell exited $? (stderr: $(cat "$tmp/cell.err"))"
  grep -q '^fault plan:' "$tmp/cell.txt" \
    || fail "$cell did not print its fault plan"
  flat "$tmp/cell.txt" | diff -u "$tmp/oracle_par.flat" - >&2 \
    || fail "$cell diverged from the fault-free oracle"
  rm -f "$tmp/cell.snap"
done

# --- leg 3: disk-visited under storage-widened fault plans --------------

flat "$tmp/oracle_seq.txt" >"$tmp/oracle_seq.flat"
for plan in "$SEED" $((SEED + 1)); do
  cell="disk/plan$plan"
  rm -rf "$tmp/dv"
  timeout 45 "$COORD" explore mutex -m 3 --disk-visited "$tmp/dv" \
    --disk-hot-cap 8 --inject-faults "$plan" --disk-faults \
    --snapshot "$tmp/cell.snap" >"$tmp/cell.txt" 2>"$tmp/cell.err" \
    || fail "$cell exited $? (stderr: $(cat "$tmp/cell.err"))"
  flat "$tmp/cell.txt" | diff -u "$tmp/oracle_seq.flat" - >&2 \
    || fail "$cell diverged from the fault-free oracle"
  rm -f "$tmp/cell.snap"
done

# --- leg 4: honest degradation on a byte quota --------------------------

rm -rf "$tmp/dv"
timeout 45 "$COORD" explore mutex -m 3 --disk-visited "$tmp/dv" \
  --disk-hot-cap 8 --disk-quota 16 --snapshot "$tmp/quota.snap" \
  >"$tmp/quota.txt" 2>&1 || fail "quota cell exited $?"
grep -q 'TRUNCATED: disk_full' "$tmp/quota.txt" \
  || fail "quota breach was not reported as disk_full"
[ -s "$tmp/quota.snap" ] || fail "no checkpoint flushed on disk_full stop"
# the resume restores the manifest strictly: any corrupt run file would
# be refused here, so completing to the oracle proves integrity end to end
timeout 45 "$COORD" explore mutex -m 3 --disk-visited "$tmp/dv" \
  --disk-hot-cap 8 --resume "$tmp/quota.snap" >"$tmp/resumed.txt" 2>&1 \
  || fail "quota-free resume exited $?"
flat "$tmp/resumed.txt" | diff -u "$tmp/oracle_seq.flat" - >&2 \
  || fail "quota-free resume diverged from the fault-free oracle"

echo "chaos_soak: OK (seed $SEED)"
