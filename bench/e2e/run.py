#!/usr/bin/env python3
"""Build fpbench from source and run one workload.

Run from the repository root:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is fpbench's one-line JSON summary.
Build output goes to standard error.  Result files land in .bench_out/.
"""

import argparse
import os
import subprocess
import sys

TARGET = "bench/e2e/fpbench.exe"
EXE = os.path.join("_build", "default", TARGET)
OUT = ".bench_out"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Run cmd to completion; a timed-out child is killed and reaped."""
    with subprocess.Popen(cmd, **kw) as p:
        try:
            return p.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            sys.exit(f"run.py: {cmd[0]} timed out after {timeout} s")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: run from the repository root (no dune-project or lib/ here)")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "--display", "quiet", "./" + TARGET]
    code = run(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        sys.exit(f"run.py: build failed ({code})")

    os.makedirs(OUT, exist_ok=True)
    tag = f"{a.workload}-s{a.seed}" + ("-trace" if a.trace else "")
    cmd = [EXE, "run", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--json", os.path.join(OUT, tag + ".json")]
    if a.trace:
        cmd += ["--trace", os.path.join(OUT, "trace")]
    sys.stdout.flush()
    sys.exit(run(cmd, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
