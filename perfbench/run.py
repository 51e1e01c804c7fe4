#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload spec|load|faults --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  It builds perfbench/main.exe with dune
into $CARGO_TARGET_DIR (default .bench_build), runs one workload in one
process, checks the result line against BENCHMARK.json and prints it as
the last line of standard output.  Anything else the program prints (the
machine descriptor, the run's detail line) comes before it.  It exits
non-zero, printing no result, when the build, the run or the check
fails.  A traced run (--trace 1) leaves a Chrome trace and a per-layer
self-time table in perfbench/out/.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, env=None, capture=False):
    """Run cmd from ROOT and wait for it; kill and reap it on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "./perfbench/main.exe"]
    try:
        code, _ = run(cmd, BUILD_TIMEOUT_S, env=env)
    except FileNotFoundError:
        die("dune is not installed")
    if code != 0:
        die("build failed (exit %d)" % code)
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    return exe if os.path.isabs(exe) else os.path.join(ROOT, exe)


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except ValueError:
        die("the last line is not JSON: %r" % line[:200])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("unexpected result keys %s" % sorted(result))
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(result["metrics"]) != sorted(names):
        die("metrics %s differ from BENCHMARK.json %s"
            % (sorted(result["metrics"]), sorted(names)))
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got.get("unit") != m["unit"]:
            die("%s: unit %r, BENCHMARK.json says %r"
                % (m["name"], got.get("unit"), m["unit"]))
    if result["attempted"] < 1:
        die("no call was attempted")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = p.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % a.workload)
    exe = build()
    code, out = run(
        [exe, "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace),
         "--root", ".", "--out", os.path.join("perfbench", "out")],
        RUN_TIMEOUT_S, capture=True)
    lines = out.splitlines()
    if code != 0 or not lines:
        die("%s exited %d" % (exe, code))
    check_result(lines[-1], spec, a.trace)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
