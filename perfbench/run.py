#!/usr/bin/env python3
"""Campaign benchmark: build bench.exe and run one workload.

    python3 perfbench/run.py --workload scan-drop --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of the source tree.  The benchmark program,
perfbench/bench.ml, is built with dune from the tree's own sources; its
last stdout line is one JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones listed in BENCHMARK.json,
with --trace 1 the per-layer ones; this script checks that every listed
metric is reported with its unit before passing the result on.

--self-test runs a tiny cell and checks that both metric sets are
complete, that the result line parses, and that the correctness gate
rejects a tampered detected set.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
TIMEOUT_S = 170


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        die("run from the root of the hft source tree (no dune-project here)")
    r = subprocess.run(
        [dune, "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
    )
    if r.returncode != 0:
        die("build failed")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    return {0: b["end_to_end"], 1: b["per_layer"]}


def drive(args):
    """Run bench.exe; return (stdout lines, parsed result)."""
    try:
        r = subprocess.run(
            [EXE] + args, cwd=ROOT, capture_output=True, text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        die(f"bench.exe exceeded {TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        die(f"bench.exe exited with code {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        die(f"result line does not parse: {e}")
    return lines, result


def missing_metrics(result, wanted):
    """Names of listed metrics absent from the result or with the wrong unit."""
    got = result.get("metrics", {})
    bad = [m["name"] for m in wanted
           if got.get(m["name"], {}).get("unit") != m["unit"]]
    extra = sorted(set(got) - {m["name"] for m in wanted})
    return bad + extra


def self_test():
    wanted = spec()
    base = ["--workload", "selftest", "--seed", "1", "--seconds", "1"]
    ok = True

    def check(label, cond):
        nonlocal ok
        print(f"{'PASS' if cond else 'FAIL'} {label}")
        ok = ok and cond

    for trace in (0, 1):
        _, res = drive(base + ["--trace", str(trace)])
        check(f"trace {trace}: result has exactly the four keys",
              set(res) == {"correct", "attempted", "failed", "metrics"})
        check(f"trace {trace}: gate passes", res["correct"] and res["failed"] == 0)
        bad = missing_metrics(res, wanted[trace])
        check(f"trace {trace}: every metric present with its unit {bad or ''}",
              not bad)
    lines, res = drive(base + ["--trace", "0", "--tamper"])
    check("tampered detected set trips the gate",
          res["correct"] is False and res["failed"] >= 1
          and any(l.startswith("FAIL ") for l in lines))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    build()
    if a.self_test:
        return self_test()
    if not a.workload:
        die("--workload is required")
    lines, res = drive(["--workload", a.workload, "--seed", str(a.seed),
                        "--seconds", str(a.seconds), "--trace", str(a.trace)])
    bad = missing_metrics(res, spec()[a.trace])
    if bad:
        die(f"metrics missing or mislabelled: {bad}")
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
