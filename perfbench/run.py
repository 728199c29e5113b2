#!/usr/bin/env python3
"""Build and run the UniStore benchmark (perfbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tcp-lookup --seed 1 --seconds 10 --trace 0

It compiles the Go benchmark in this directory against the UniStore
sources one directory up, keeping every build artefact under
.bench_build/ in the checkout, then runs it. The benchmark's last line
of standard output is its JSON record. Exits non-zero, without a record,
when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build = os.path.join(ROOT, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep the toolchain's caches, temporary files and settings inside
    # the checkout, and never let it reach for the network.
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    ran = subprocess.run([binary,
                          "--workload", args.workload,
                          "--seed", str(args.seed),
                          "--seconds", str(args.seconds),
                          "--trace", str(args.trace),
                          "--work", os.path.join(build, "work")],
                         cwd=ROOT, env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
