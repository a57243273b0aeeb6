#!/usr/bin/env python3
"""Build and run the perfbench host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload list-8t --seed 1 --seconds 30 --trace 0

It builds perfbench/ (a Go module of its own that points at the
repository's module) into .bench_build/, with the Go build cache there
too. It then runs the workload and prints the benchmark's lines, the
last of which is one JSON object with correct, attempted, failed and
metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 175  # a run must end within 180 s once built


def run(cmd, timeout, **kw):
    """subprocess.run that also stops the child when this process is
    terminated, and waits for it to end."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, **kw) as p:
        def stop(signum, _frame):
            p.kill()
            p.wait()
            sys.exit(128 + signum)
        old = signal.signal(signal.SIGTERM, stop)
        try:
            out, err = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            raise
        finally:
            signal.signal(signal.SIGTERM, old)
        return subprocess.CompletedProcess(cmd, p.returncode, out, err)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def go_env(root):
    """Keep every file the Go toolchain writes inside the checkout."""
    build = os.path.join(root, BUILD_DIR)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
    })
    env.pop("GOMAXPROCS", None)  # the benchmark sets it per workload
    for d in ("gocache", "tmp", "gopath", "config", "cache"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    return env


def build(root, env):
    binary = os.path.join(root, BUILD_DIR, "perfbench")
    try:
        p = run(["go", "build", "-o", binary, "."], BUILD_TIMEOUT_S,
                cwd=os.path.join(root, "perfbench"), env=env)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0:
        fail("build failed:\n" + p.stderr)
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("list-8t", "hashset-1t", "stamp-sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    for need in ("go.mod", "internal", os.path.join("perfbench", "go.mod")):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the repository root: %s is missing" % need)

    env = go_env(root)
    binary = build(root, env)
    start = time.perf_counter()
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-out", os.path.join(root, BUILD_DIR, "trace")]
    try:
        p = run(cmd, RUN_BUDGET_S - (time.perf_counter() - start), env=env)
    except subprocess.TimeoutExpired:
        fail("run exceeded its time budget")
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("run failed with exit code %d" % p.returncode)
    res = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(res, sort_keys=True))


if __name__ == "__main__":
    main()
