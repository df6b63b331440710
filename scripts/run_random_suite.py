#!/usr/bin/env python3
"""Randomized bulk-interface correspondence sweep.

Draws admissible random interface scenarios, auto-scales grid and sweep
per scenario, and compares the tracked spectral flow with the closed-form
half-space prediction. Prints one line per scenario, with its fiber
solves, the solves that the eigensolver's warm start served (`warm`),
those of them served across a change of the window's count
(`warm_recounted`), the solves handed a guess that the cold seed served
instead (`fallbacks`: every solve after a sweep's first gets a guess, so
solves - 1 - warm) and the bisections (by reason: motion / stranded),
and a final tally with the suite totals, the warm solves by
Rayleigh-quotient steps taken (`warm_steps`), the seconds spent in the
sweeps and the cluster rotations.
`--n 50 --seed 11` draws the acceptance suite's scenarios.

Usage: python scripts/run_random_suite.py [--n N] [--seed S]
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from diracflow.branches import autoscale, sweep_branches
from diracflow.bulk import predicted_sf
from diracflow.flow import spectral_flow

from conftest import draw_interface_scenario, walls

import numpy as np


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ns = ap.parse_args()

    rng = np.random.default_rng(ns.seed)
    bad = solves = warm = recounted = motion = stranded = rotations = 0
    warm_steps: Counter = Counter()
    sweep_s = 0.0
    for i in range(ns.n):
        minus, plus, alpha, _ = draw_interface_scenario(rng)
        grid, cfg, f = autoscale(minus, plus, (alpha - 1.5, alpha + 1.5))
        t0 = time.perf_counter()
        stats: dict = {}
        branches = sweep_branches(grid, walls(minus, plus), cfg, f, stats=stats)
        sweep_s += time.perf_counter() - t0
        bis = stats["bisections"]
        solves += stats["solves"]
        warm += stats["warm"]
        recounted += stats["warm_recounted"]
        warm_steps.update(stats["warm_steps"])
        motion += bis["motion"]
        stranded += bis["stranded"]
        rotations += stats["cluster_rotations"]
        report = spectral_flow(branches, alpha, prediction=predicted_sf(minus, plus, alpha))
        ok = report.sf_numeric == report.sf_predicted
        bad += not ok
        print(
            f"[{i + 1:3d}/{ns.n}] B=({minus.B:+.2f},{plus.B:+.2f}) "
            f"m=({minus.m:+.2f},{plus.m:+.2f}) V=({minus.V:+.2f},{plus.V:+.2f}) "
            f"alpha={alpha:+.2f}  sf={report.sf_numeric} pred={report.sf_predicted} "
            f"N={grid.N} solves={stats['solves']} warm={stats['warm']} warm_recounted={stats['warm_recounted']} fallbacks={stats['solves'] - 1 - stats['warm']} bisections={bis['motion']}/{bis['stranded']} "
            f"{'ok' if ok else 'MISMATCH'} ({time.perf_counter() - t0:.1f}s)"
        )
    print(
        f"{ns.n - bad}/{ns.n} matched; solves={solves} warm={warm} warm_recounted={recounted} fallbacks={solves - ns.n - warm} warm_steps={dict(sorted(warm_steps.items()))} "
        f"bisections={motion}/{stranded} (motion/stranded) "
        f"cluster_rotations={rotations} sweep_seconds={sweep_s:.2f}"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
