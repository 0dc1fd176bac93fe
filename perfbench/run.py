#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

Cargo builds into $CARGO_TARGET_DIR (default `.bench_build`). All arguments
are passed to the benchmark binary, whose last line of standard output is
the JSON result. The exit code is the build's when the build fails, the
benchmark's otherwise.
"""

import os
import subprocess
import sys


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join("perfbench", "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    bench = subprocess.run([binary, *sys.argv[1:]], env=env)
    # A benchmark killed by a signal reports a negative code.
    return bench.returncode if bench.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
