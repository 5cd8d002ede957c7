"""Run paper-figure reproductions from the command line.

    python -m repro.experiments                 # all, quick mode
    python -m repro.experiments fig10 fig13     # a subset
    python -m repro.experiments --full          # paper-scale replication
"""

from __future__ import annotations

import argparse
import sys
import time

from . import ALL_EXPERIMENTS
from .report import render_result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "experiments", nargs="*",
        help=f"which experiments to run (default: all of {', '.join(ALL_EXPERIMENTS)})",
    )
    parser.add_argument("--full", action="store_true",
                        help="paper-scale replication counts (slow)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    names = args.experiments or list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; choose from {list(ALL_EXPERIMENTS)}")

    for name in names:
        start = time.time()
        result = ALL_EXPERIMENTS[name].run(quick=not args.full, seed=args.seed)
        print(render_result(result))
        print(f"  [{name} took {time.time() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
