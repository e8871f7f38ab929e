"""Regenerate bench/certs.json, the frozen certificates the workloads load.

    python3 bench/freeze.py

The walk certificates of the sigma construction cost seconds each to build
(they are the construct workload's hot spot), so verify-accept and
verify-reject load them from the file instead of paying for them in set-up.
Every certificate is re-checked here with the independent checks in
checks.py before the file is written.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

from checks import (has_repetitive_stroll, has_square, is_walk_nonrep_cycle,
                    path_adj)
from workloads import RHO_PATH_N, SIGMA_NS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "certs.json")


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from nonrepcolor import construct

    sigma = {}
    for n in SIGMA_NS:
        trace, coloring = construct.sigma_cycle_coloring(n)
        word, base = coloring.colors, trace.base_coloring.colors
        if not is_walk_nonrep_cycle(word) or has_square(base, circular=True):
            raise SystemExit(f"sigma certificate for C{n} fails its check")
        sigma[str(n)] = {"walk": "".join(map(str, word)),
                         "base": "".join(map(str, base))}
    value, coloring = construct.rho_path_coloring(RHO_PATH_N)
    if value != 4 or has_repetitive_stroll(path_adj(RHO_PATH_N), coloring.colors):
        raise SystemExit("rho path certificate fails its check")
    data = {
        "provenance": {
            "command": "python3 bench/freeze.py",
            "commit": _commit(),
            "python": platform.python_version(),
            "sigma": "construct.sigma_cycle_coloring(n): 'walk' is the "
                     "walk-nonrepetitive 4-colouring of C_n, 'base' the "
                     "circular square-free 3-colouring of its base cycle",
            "rho_path": f"construct.rho_path_coloring({RHO_PATH_N}): "
                        "stroll-nonrepetitive 4-colouring of the path",
            "checked_by": "bench/checks.py",
        },
        "sigma": sigma,
        "rho_path": "".join(map(str, coloring.colors)),
    }
    with open(OUT, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
