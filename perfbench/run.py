#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload shuffle-ecn --seed 1 --seconds 15 --trace 0

Every file the build and the run write goes under the build directory
($CARGO_TARGET_DIR, default .bench_build): the Go build cache, temporary
files, the binary, and the CPU profiles and layer tables of traced runs.
The last line of standard output is the result JSON; the exit code is the
benchmark's (non-zero if the build fails or an output check fails).
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    dirs = {name: os.path.join(build, name) for name in ("gocache", "gopath", "tmp", "config", "perfbench")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=dirs["gocache"],
        GOPATH=dirs["gopath"],
        GOMODCACHE=os.path.join(dirs["gopath"], "pkg", "mod"),
        GOTMPDIR=dirs["tmp"],
        TMPDIR=dirs["tmp"],
        XDG_CONFIG_HOME=dirs["config"],
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = os.path.join(dirs["perfbench"], "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    args = ["-out", os.path.join(dirs["perfbench"], "trace")] + sys.argv[1:]
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
