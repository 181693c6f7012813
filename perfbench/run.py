#!/usr/bin/env python3
"""Build the serving benchmark from source and run one workload.

    python3 perfbench/run.py --workload warm-mix --seed 1 --seconds 20 --trace 0

Run from the repository root. The Go build and everything it caches go to
the build directory ($CARGO_TARGET_DIR, default .bench_build, relative to
the repository root); so do the shard rendezvous files and, with
--trace 1, the span dump (trace/<workload>-seed<seed>.json). The last line
on standard output is the result JSON; build output goes to standard
error. The exit code is the benchmark's, or the build's if it fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["warm-mix", "cold-churn"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    for sub in ("gocache", "gopath", "config", "tmp", "trace"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        TMPDIR=os.path.join(build, "tmp"),
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr,
    )
    if built.returncode != 0:
        sys.exit(built.returncode or 1)

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    if args.trace:
        cmd += ["-trace-file", os.path.join(build, "trace", "%s-seed%d.json" % (args.workload, args.seed))]
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
