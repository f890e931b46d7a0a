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
elag fuzz --seed 42 --iters 25 -j 2

echo "smoke: OK"
