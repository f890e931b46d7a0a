#!/usr/bin/env python3
"""Host-cost benchmark of the elag simulator.

Run from the repository root:

    python3 perfbench/run.py --workload grid-slice --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Builds perfbench/bench.exe from source with dune, measures set-up time,
runs the workload and prints, as the last line of stdout, one JSON object
with the keys correct, attempted, failed and metrics.  --trace 1 makes a
traced run that reports the per-layer metrics instead; --workload all runs
every workload untraced and prints one row of end-to-end metrics per
workload.  Exits non-zero when any output or simulated statistic differs
from its reference.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ["grid-slice", "profile-suite", "fuzz-campaign"]
SETUP_REPS = 21
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        die("no dune-project at %s: the benchmark builds the simulator from this checkout" % ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        die("build failed")


def quiet(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return r.stdout if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def provenance(width, seed):
    config = quiet(["ocamlfind", "ocamlopt", "-config"]) or quiet(["ocamlopt", "-config"]) or ""
    flambda = next((l.split(":", 1)[1].strip() == "true"
                    for l in config.splitlines() if l.startswith("flambda:")), None)
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = (quiet(["git", "rev-parse", "HEAD"]) or "").strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "pool_width": width, "flambda": flambda,
            "git_commit": commit or "unavailable (not a git checkout)", "seed": seed}


def setup_seconds(args):
    """Median over several processes of process start to first timed job."""
    values = []
    for _ in range(SETUP_REPS):
        t0 = time.time()
        r = subprocess.run([EXE, *args, "--setup-only"], cwd=ROOT, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S)
        if r.returncode != 0:
            sys.stderr.write(r.stdout + r.stderr)
            die("set-up failed")
        values.append(json.loads(r.stdout.strip().splitlines()[-1])["ready"] - t0)
    return statistics.median(values)


def run_workload(workload, seed, seconds, trace, width, echo=True):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--jobs", str(width)]
    setup = None if trace else setup_seconds(args)
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    spans = os.path.join(OUT_DIR, "spans-%s-seed%d.json" % (workload, seed))
    try:
        r = subprocess.run([EXE, *args, "--trace", str(trace), "--spans", spans], cwd=ROOT,
                           capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = r.stdout.strip().splitlines()
    try:
        prov = json.loads(lines[-2])["provenance"]
        result = json.loads(lines[-1])
    except (IndexError, ValueError, KeyError):
        sys.stderr.write(r.stdout + r.stderr)
        die("%s produced no result" % workload)
    if echo:
        print("\n".join(lines[:-2]))
    prov.update(provenance(width, seed))
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
    ok = r.returncode == 0 and result["correct"]
    return prov, result, ok


def table(rows):
    names = list(rows[0][2]["metrics"])
    units = [rows[0][2]["metrics"][n]["unit"] for n in names]
    head = ["workload"] + ["%s (%s)" % nu for nu in zip(names, units)] + ["error_rate", "tail"]
    body = []
    for workload, prov, result in rows:
        m = result["metrics"]
        body.append([workload] + ["%.6g" % m[n]["value"] for n in names]
                    + ["%.4g (%d/%d)" % (result["failed"] / result["attempted"], result["failed"], result["attempted"]),
                       "p%.1f of %d" % (prov["tail_percentile"], prov["tail_samples"])])
    widths = [max(len(r[i]) for r in [head] + body) for i in range(len(head))]
    for r in [head] + body:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    if a.seconds < 1:
        die("--seconds must be at least 1")
    build()
    width = len(os.sched_getaffinity(0))
    if a.workload == "all":
        rows, ok = [], True
        for w in WORKLOADS:
            prov, result, good = run_workload(w, a.seed, a.seconds, a.trace, width, echo=False)
            print(json.dumps({"provenance": prov}))
            rows.append((w, prov, result))
            ok = ok and good
        table(rows)
        sys.exit(0 if ok else 1)
    prov, result, ok = run_workload(a.workload, a.seed, a.seconds, a.trace, width)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
