#!/bin/sh
# One-command smoke check: build, run the full test suite, regenerate a
# paper table, and emit one machine-readable report (validating that the
# telemetry path works end to end).
set -eu
cd "$(dirname "$0")/.."

elag() { dune exec bin/elag.exe -- "$@"; }

echo "== dune build =="
dune build @all

echo "== dune runtest =="
dune runtest

echo "== paper: table2 =="
elag paper table2

echo "== report: PGP Encode / baseline =="
elag time "PGP Encode" baseline --report json

echo "== engine: parallel emulation of every workload (-j 2) =="
elag run -j 2

echo "== verify: lint + fault-injection smoke =="
elag verify smoke

echo "== fuzz: bounded differential campaign (-j 2) =="
elag fuzz --seed 42 --iters 100 -j 2

# A planted reference mutation must be caught: exit 1 (a failed check),
# never 0 (missed) or 2 (the campaign could not run).
for m in alu-flip load-size-flip branch-cond-flip; do
  echo "== fuzz: planted mutation $m must be caught =="
  status=0
  elag fuzz --seed 7 --iters 12 -j 2 --mutation "$m" > /dev/null || status=$?
  if [ "$status" -ne 1 ]; then
    echo "smoke: mutation $m exited $status, expected 1" >&2
    exit 1
  fi
done

echo "smoke: OK"
