#!/usr/bin/env python3
"""Build the rekey benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. The build goes to _build/ with
dune's shared cache off, so nothing is written outside the checkout.
Without the repository's sources the build fails and so does this
command, before printing any result. See perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "gkmbench.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        sys.exit("run.py: no dune-project at %s: not a checkout of the repository" % ROOT)
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/gkmbench.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
