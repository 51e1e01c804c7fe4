#!/usr/bin/env python3
"""Two traced runs at the same seed must report identical per-layer counts.

    python3 perfbench/test_trace_counts.py [--seed N] [--seconds S]

For every workload it makes two traced runs (run.py --trace 1) and
compares the first pass's raw counts (the detail line: pairs visited,
obligations, events, executions, clauses, candidates, allocated words)
and every per-layer metric whose unit is a count or a word count.  Times
are not compared.  Exits 0 when all agree, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COUNT_UNITS = {"count", "words", "Mwords"}


def traced_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True).stdout.splitlines()
    detail = next(l for l in out if l.startswith("detail "))
    result = json.loads(out[-1])
    if not result["correct"]:
        raise SystemExit("%s: the traced run reported wrong outputs" % workload)
    counts = json.loads(detail[len("detail "):])
    for name, m in result["metrics"].items():
        if m["unit"] in COUNT_UNITS:
            counts[name] = m["value"]
    counts.pop("passes")
    return counts


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=int, default=2)
    a = p.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    ok = True
    for w in workloads:
        first = traced_run(w, a.seed, a.seconds)
        second = traced_run(w, a.seed, a.seconds)
        diff = sorted(k for k in first if first[k] != second.get(k))
        nonzero = sum(1 for k, v in first.items() if v)
        if diff:
            ok = False
            for k in diff:
                print("FAIL %s %s: %r then %r" % (w, k, first[k], second.get(k)))
        else:
            print("ok   %s: %d counts identical (%d non-zero)"
                  % (w, len(first), nonzero))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
