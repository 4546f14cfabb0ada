#!/usr/bin/env python3
"""Build and run the es2 benchmark (perfbench) from a checkout's root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The Go program is built from source into the build directory
($CARGO_TARGET_DIR, default .bench_build), with the Go build cache,
temporary files and module cache kept there too, so a run reads and
writes only inside the checkout. Arguments pass through unchanged; the
last line of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    # The benchmark measures the simulator in the enclosing checkout;
    # without its sources there is nothing to build or measure.
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isfile(
        os.path.join(ROOT, "es2.go")
    ):
        print("perfbench: no es2 sources in " + ROOT, file=sys.stderr)
        return 2

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "go-cache"),
        GOTMPDIR=os.path.join(build, "go-tmp"),
        GOMODCACHE=os.path.join(build, "go-mod"),
        GOPATH=os.path.join(build, "go-path"),
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
        GOAMD64="v1",
    )
    for d in ("go-cache", "go-tmp"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-trimpath", "-o", binary, "."],
        cwd=HERE,
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode

    args = sys.argv[1:] + ["--spans-dir", os.path.join(build, "spans")]
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
