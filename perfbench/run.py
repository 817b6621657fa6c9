#!/usr/bin/env python3
"""Build and run the CloudyBench repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload oltp-crowd --seed 1 --seconds 30 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that imports the
simulator's packages from the enclosing module. This script builds it from
source into .bench_build/ at the repository root, keeping the Go build cache
and temporary files there too, then runs it with the given arguments. The
benchmark's standard output passes through unchanged; its last line is the
JSON result. Build output goes to standard error. The exit code is the
benchmark's, or 2 when the build fails.
"""

import os
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isabs(out_dir):
        out_dir = os.path.join(root, out_dir)
    for sub in ("gocache", "gopath", "tmp"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out_dir, "gocache"),
        "GOPATH": os.path.join(out_dir, "gopath"),
        "GOMODCACHE": os.path.join(out_dir, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(out_dir, "tmp"),
        "TMPDIR": os.path.join(out_dir, "tmp"),
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out_dir, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
