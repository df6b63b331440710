"""The fiber API that the benchmark's tracer reads.

`bench/tracing.py` annotates each traced `eig_window` call with its pair
count and largest residual, and each `filter_spurious` call with the
states it took in and kept; it reads them through `len()` and per-pair
iteration of the returned blocks.  These tests apply its annotators to
a real solve.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from diracflow.fiber import Grid1D, SpuriousFilter, assemble_fiber, boundary_mass, eig_window, filter_spurious
from diracflow.presets import preset_profiles


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_annotators_report_pairs_residual_and_kept_count():
    """Uniform bulk at zeta = 4: the window holds 12 states, and the filter drops
    the boundary states among them."""
    grid = Grid1D(L=20.0, N=800)
    f = SpuriousFilter(margin=5.0, threshold=0.3)
    A, window = assemble_fiber(grid, preset_profiles("bulk_uniform"), 4.0), (-4.0, 4.0)
    pairs = eig_window(A, window)
    kept = filter_spurious(pairs, grid, f)
    masses = np.array([boundary_mass(p.psi, grid, f.margin) for p in pairs])
    n_kept = int(np.count_nonzero(masses <= f.threshold))
    assert 0 < n_kept < pairs.mu.size

    assert tracing._eig_pairs((A, window), {}, pairs) == {
        "pairs": pairs.mu.size,
        "max_residual": float(np.max(pairs.residual)),
    }
    assert tracing._filter_counts((pairs, grid, f), {}, kept) == {"in": pairs.mu.size, "kept": n_kept}
