#!/usr/bin/env python3
"""2D trace-oracle convergence table.

Computes 2*pi*sigma on a doubling sequence of (Ny, Ly) boxes at fixed
x-geometry for the standard dual-wall scenario, showing convergence of
the trace toward the quantized value 1.  Each row's ms covers assembly
and trace.  One untimed warm-up trace at the first level runs first, so
that one-time start-up costs do not land on the first row (the trace is
y-invariant and loads no scipy.sparse, so those are first-call costs
only).  A level past the oracle's dimension budget stops the table with
`error: ...` and the error's exit code, as the CLI does.

Usage: python scripts/run_oracle_convergence.py [--levels K]
"""

import argparse
import sys
import time

from diracflow.errors import DiracflowError
from diracflow.fiber import Grid1D
from diracflow.oracle2d import Grid2D, assemble_2d, default_projection, trace_conductivity
from diracflow.presets import preset_profiles
from diracflow.profiles import DensityProfile


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=2, help="doubling steps (dim grows fast)")
    ns = ap.parse_args()

    ps = preset_profiles("dual_wall_v01")
    dens = DensityProfile.from_window(-1.0, 1.0)
    print(f"{'Ny':>4} {'Ly':>6} {'dim':>6} {'2pi*sigma':>12} {'|dev|':>10} {'ms':>8}")
    Ny, Ly = 16, 12.0
    for level in range(ns.levels):
        g = Grid2D(grid_x=Grid1D(L=12.0, N=48), Ly=Ly, Ny=Ny)
        try:
            if level == 0:
                trace_conductivity(assemble_2d(g, ps), g, default_projection(g), dens)
            t0 = time.perf_counter()
            val = trace_conductivity(assemble_2d(g, ps), g, default_projection(g), dens)
        except DiracflowError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code
        print(
            f"{Ny:4d} {Ly:6.1f} {g.dim:6d} {val:12.6f} {abs(val - 1.0):10.2e} "
            f"{1e3 * (time.perf_counter() - t0):8.1f}"
        )
        Ny, Ly = 2 * Ny, 2 * Ly
    return 0


if __name__ == "__main__":
    sys.exit(main())
