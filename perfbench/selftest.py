#!/usr/bin/env python3
"""Self-tests for the end-to-end serving benchmark.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py [--seconds 2] [--seed 1]

1. Runs every workload of BENCHMARK.json untraced and traced with a short
   run length and asserts that each run passes its output checks and emits
   exactly the named end_to_end (resp. per_layer) metrics, each with its
   unit.
2. Asserts that the output checks fail (nonzero exit, "correct": false) when
   a served route is perturbed, a response goes missing, or a mini_live
   drain invariant is broken.
3. Asserts that the route digest is kept per prepared stream: a run of the
   same seed at another --seconds passes, and a run with a perturbed route
   leaves no digest that fails the next honest run of its stream.

Exits nonzero when any assertion fails.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload, seed, seconds, trace, inject=""):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seconds", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for wl in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(wl, args.seed, args.seconds, trace)
            what = "%s trace=%d" % (wl, trace)
            expect(code == 0 and result is not None and result["correct"],
                   what + ": exits 0 with correct=true")
            if result is None:
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m.get("unit") for n, m in result["metrics"].items()}
            expect(got == want, what + ": emits every %s metric with its "
                   "unit (missing %s, extra %s)" % (
                       key, sorted(set(want) - set(got)),
                       sorted(set(got) - set(want))))
            expect(all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()),
                   what + ": every value is a number")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   what + ": attempted >= 1 and nothing failed")

    for wl, inject in (("mini_hot", "perturb_route"),
                       ("mini_hot", "drop_response"),
                       ("mini_live", "break_invariant")):
        code, result = run(wl, args.seed, args.seconds, 0, inject)
        expect(code != 0 and result is not None and not result["correct"],
               "%s --inject %s: checks fail and the run exits nonzero" % (
                   wl, inject))

    code, result = run("mini_hot", args.seed, args.seconds + 1, 0)
    expect(code == 0 and result is not None and result["correct"],
           "mini_hot at another --seconds: passes against its own digest")
    fresh = args.seed + 1000
    run("mini_hot", fresh, args.seconds, 0, "perturb_route")
    code, result = run("mini_hot", fresh, args.seconds, 0)
    expect(code == 0 and result is not None and result["correct"],
           "mini_hot after a perturbed first run of its stream: passes")

    print("%d self-test failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
