"""Build the benchmark from source, then run it.

Run from the repository root, for example:

    python3 bench/perf/run.py --workload read-hot --seed 1 --seconds 10 --trace 0
    python3 bench/perf/run.py            # every workload, per-layer tables

Arguments go to perf.exe unchanged (see perf.ml).  Build outputs and
temporary files stay under .bench_build/ at the root, and the shared dune
cache is off, so nothing is written outside the checkout.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"


def main():
    env = dict(os.environ)
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env.update(
        TMPDIR=tmp,
        DUNE_CACHE="disabled",
        XDG_CACHE_HOME=tmp,
        XDG_STATE_HOME=tmp,
    )
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "-j", "2",
         "--display", "quiet", "./bench/perf/perf.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.exit("bench/perf: build failed")
    exe = os.path.join(BUILD_DIR, "default", "bench", "perf", "perf.exe")
    argv = [exe] + sys.argv[1:]
    # Randomised address-space layout moves CPU throughput by up to ~6%
    # from one process to the next; pin the layout where the host allows.
    if shutil.which("setarch") and subprocess.run(
            ["setarch", "-R", "true"], stderr=subprocess.DEVNULL).returncode == 0:
        argv = ["setarch", "-R"] + argv
    os.execvpe(argv[0], argv, env)


if __name__ == "__main__":
    main()
