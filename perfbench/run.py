#!/usr/bin/env python3
"""Build the eBid programs and the benchmark from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Everything the build and the run write stays under .bench_build/ in the
current directory (Go build cache, binaries, WAL files, program logs).
The last line of standard output is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    bindir = os.path.join(build, "bin")
    for d in ("gocache", "gotmp", "gopath", "config", "bin", "run"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "gotmp"),
        GOPATH=os.path.join(build, "gopath"),
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        CGO_ENABLED="0",
    )
    steps = [
        (root, ["go", "build", "-o", bindir + "/", "./cmd/ebid-server", "./cmd/ebid-proxy"]),
        (os.path.join(root, "perfbench"), ["go", "build", "-o", os.path.join(bindir, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        res = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if res.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    cmd = [
        os.path.join(bindir, "perfbench"),
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-bin", bindir,
        "-work", os.path.join(build, "run"),
    ]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
