"""Record the answers the benchmark's correctness check compares against.

    python3 perfbench/record_reference.py --seeds 40

Runs every workload's pipeline once for each seed 0..N-1 at the measured
sizes and writes ``reference.json``: per workload, the theta grid size
(which must be the same for every seed) and the utilities per seed.  The
library is meant to give the same answers however it is sped up, so only
re-record for a change that is meant to alter them, and say so in
CHANGES.md.
"""

import argparse
import json
import sys

import run


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, required=True,
                   help="record seeds 0 .. SEEDS-1")
    args = p.parse_args(argv)

    reference = {}
    for name, wl in run.WORKLOADS.items():
        utilities, grid_points = {}, set()
        for seed in range(args.seeds):
            out = wl.run(wl.setup(seed, wl.full), wl.full)
            utilities[str(seed)] = out.utilities
            grid_points.add(out.grid_points)
            print(f"{name} seed {seed}: {out.grid_points} grid points, "
                  f"utilities {out.utilities}", flush=True)
        if len(grid_points) != 1:
            sys.exit(f"error: {name}: grid size depends on the seed "
                     f"({sorted(grid_points)}); the grid_points check needs "
                     "one value")
        reference[name] = {"grid_points": grid_points.pop(),
                           "utilities": utilities}

    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
