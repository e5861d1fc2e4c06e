#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/fbench.exe with
dune (shared cache off, so nothing is written outside the checkout), runs
one workload and passes its output through: the last line of stdout is the
JSON result, and the full report (host fingerprint, probe counts and, with
--trace 1, the recorded spans) goes to perfbench/out/. The exit code is the
benchmark's: non-zero when the build fails or any correctness check does.
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: run from the root of a full checkout "
                 "(dune-project and lib/ not found)")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/fbench.exe"],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.exit("run.py: build failed")

    exe = os.path.join("_build", "default", "perfbench", "fbench.exe")
    sys.stdout.flush()
    run = subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", os.path.join("perfbench", "out")],
        timeout=RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
