#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

  python3 perfbench/run.py --workload stream --seed 1 --seconds 36 --trace 0
  python3 perfbench/run.py --workload all --seed 1     # stream, replay, serve
  python3 perfbench/run.py --report saved-run-1.txt saved-run-2.txt ...

Everything the build and the runs write goes under $CARGO_TARGET_DIR
(default .bench_build), including the Go build cache, so a checkout is
self-contained. The exit status is perfbench's: non-zero when the build
fails or an output check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("stream", "replay", "serve")  # --workload all runs each in turn


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", nargs="+", metavar="FILE")
    args = ap.parse_args()
    if args.report is None and not args.workload:
        ap.error("--workload is required")

    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
    )
    perfbench = os.path.join(out, "perfbench")
    uninet = os.path.join(out, "uninet")
    for target, pkg in ((perfbench, "."), (uninet, "universalnet/cmd/uninet")):
        built = subprocess.run(["go", "build", "-o", target, pkg], cwd=HERE, env=env)
        if built.returncode != 0:
            print("perfbench: build of %s failed" % pkg, file=sys.stderr)
            return 1

    if args.report is not None:
        return subprocess.run([perfbench, "-report"] + args.report, env=env).returncode
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [perfbench,
               "-workload", workload,
               "-seed", str(args.seed),
               "-seconds", str(args.seconds),
               "-trace", str(args.trace),
               "-out", out,
               "-uninet", uninet]
        status = subprocess.run(cmd, env=env).returncode or status
    return status


if __name__ == "__main__":
    sys.exit(main())
