#!/usr/bin/env python3
"""2D trace-oracle stress table under y-dependent perturbations.

Runs `trace_conductivity` on 54 cases at each preset's `grid2d`
(dimension 3072): the presets bulk_uniform, mass_wall and dual_wall_v01,
times the perturbations decay_y, mult_xy and decay_xy at amplitude 1,
times the couplings 0.5, 1.5 and 2.5, times the density windows (-1, 1)
and (-0.5, 0.5).  Prints one row per case: the eigenvalues in the window
(n), 2*pi*sigma, the states cut, the seconds of the assembly and the
seconds of the trace, then both totals.  One untimed warm-up assembly and
trace run first, so that one-time start-up costs do not land on the first
case.

Usage: python scripts/run_oracle_stress.py
"""

import argparse
import itertools
import sys
import time

from diracflow.config import config_from_dict
from diracflow.oracle2d import PerturbationSpec, assemble_2d, default_projection, trace_conductivity
from diracflow.presets import preset_config
from diracflow.profiles import DensityProfile

PRESETS = ("bulk_uniform", "mass_wall", "dual_wall_v01")
KINDS = ("decay_y", "mult_xy", "decay_xy")
COUPLINGS = (0.5, 1.5, 2.5)
WINDOWS = ((-1.0, 1.0), (-0.5, 0.5))


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    print(f"{'case':<38} {'n':>4} {'2pi*sigma':>22} {'cut':>4} {'assemble s':>10} {'trace s':>8}")
    warm, totals = True, [0.0, 0.0]
    for name, kind, coupling, window in itertools.product(PRESETS, KINDS, COUPLINGS, WINDOWS):
        cfg = config_from_dict(preset_config(name))
        g = cfg.grid2d
        w = PerturbationSpec(kind=kind, amplitude=1.0)
        trace_args = (g, default_projection(g), DensityProfile.from_window(*window))
        if warm:
            trace_conductivity(assemble_2d(g, cfg.profiles, w, coupling=coupling), *trace_args)
            warm = False
        t0 = time.perf_counter()
        H = assemble_2d(g, cfg.profiles, w, coupling=coupling)
        t1 = time.perf_counter()
        res = trace_conductivity(H, *trace_args, full_result=True)
        dt = (t1 - t0, time.perf_counter() - t1)
        totals = [t + d for t, d in zip(totals, dt)]
        case = f"{name}+{kind}@{coupling:g} ({window[0]:g}, {window[1]:g})"
        print(f"{case:<38} {res.n_window:4d} {res.two_pi_sigma!r:>22} {res.n_states_cut:4d} {dt[0]:10.4f} {dt[1]:8.3f}")
    print(f"{'total':<38} {'':>4} {'':>22} {'':>4} {totals[0]:10.4f} {totals[1]:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
