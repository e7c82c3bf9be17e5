#!/bin/sh
# Temp-dir gate, part of `make check` via `make test-tmp`: a filtered run
# of the suite (`main.exe test NAME`) exits from inside Alcotest, yet it
# must still remove its private temp dir. Runs one suite with TMPDIR
# pointed at a fresh empty directory and fails if anything is left there.
set -eu

exe=${1:?usage: test_tmp.sh path/to/test/main.exe}
dir=$(mktemp -d "${TMPDIR:-/tmp}/anonring-tmp-gate-XXXXXX")
trap 'rm -rf "$dir"' EXIT

TMPDIR=$dir "$exe" test codec >/dev/null
left=$(ls -A "$dir")
if [ -n "$left" ]; then
  echo "test_tmp: \`main.exe test codec\` left in TMPDIR:" >&2
  ls -lA "$dir" >&2
  exit 1
fi
echo "test_tmp: OK (a filtered run left nothing in TMPDIR)"
