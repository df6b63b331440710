"""Acceptance gate: the nine end-to-end criteria, one test per criterion,
plus one check that criterion 4's phi windows lie in bulk gaps.

Each test prints a `[criterion N] ...: PASS/FAIL` line (echoed in the
terminal summary) and then asserts, so a red run still reports every
criterion it reached.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from diracflow.branches import SweepConfig, autoscale, sweep_branches
from diracflow.bulk import HalfSpaceParams, check_density_window, landau_levels, predicted_sf
from diracflow.fiber import (
    Grid1D,
    SpuriousFilter,
    assemble_fiber,
    eig_window,
    filter_spurious,
    zone_edge_fraction,
)
from diracflow.flow import conductivity, spectral_flow
from diracflow.oracle2d import (
    Grid2D,
    PerturbationSpec,
    assemble_2d,
    default_projection,
    stability_experiment,
    trace_conductivity,
)
from diracflow.presets import preset_profiles
from diracflow.profiles import (
    DensityProfile,
    ProfileSet,
    SwitchProfile,
    evaluate,
)

from conftest import dense_fiber, draw_interface_scenario, record_criterion, spinors, sup_A2_prime, walls

FIG2_MINUS = HalfSpaceParams(B=-2.0, m=-2.0, V=-0.1)
FIG2_PLUS = HalfSpaceParams(B=2.0, m=2.0, V=0.1)


@pytest.fixture(scope="module")
def fig2_pipeline():
    """The quoted-claim scenario at its pinned geometry, with wall time."""
    ps = preset_profiles("dual_wall_v01")
    grid = Grid1D(L=20.0, N=800)
    cfg = SweepConfig(-8.0, 8.0, 81, (-4.0, 4.0), refine_tol=0.05)
    f = SpuriousFilter(margin=2.5, threshold=0.3)
    t0 = time.perf_counter()
    branches = sweep_branches(grid, ps, cfg, f)
    elapsed = time.perf_counter() - t0
    return branches, elapsed


@pytest.fixture(scope="module")
def random_suite():
    """50 admissible random interface scenarios, swept on auto-scaled grids."""
    rng = np.random.default_rng(11)
    out = []
    for _ in range(50):
        minus, plus, alpha, comp = draw_interface_scenario(rng)
        grid, cfg, f = autoscale(minus, plus, (alpha - 1.5, alpha + 1.5))
        branches = sweep_branches(grid, walls(minus, plus), cfg, f)
        pred = predicted_sf(minus, plus, alpha)
        report = spectral_flow(branches, alpha, prediction=pred)
        out.append(
            dict(minus=minus, plus=plus, alpha=alpha, comp=comp,
                 branches=branches, pred=pred, report=report)
        )
    return out


def _admissible_phi_windows(branches, comp, alpha, rng, n=10, max_tries=400):
    """Random density windows inside the gap component near alpha whose
    edges keep clear of every branch endpoint (the conductivity precondition)."""
    lo = max(comp[0] + 0.12, alpha - 1.0)
    hi = min(comp[1] - 0.12, alpha + 1.0)
    ends = [b.mus[0] for b in branches] + [b.mus[-1] for b in branches]
    wins = []
    for _ in range(max_tries):
        if len(wins) >= n:
            break
        a, b = sorted(rng.uniform(lo, hi, 2))
        if b - a < 0.1:
            continue
        if any(a - 0.03 < e < b + 0.03 for e in ends):
            continue
        wins.append((float(a), float(b)))
    return wins


def test_criterion_1_quoted_flow(fig2_pipeline):
    branches, elapsed = fig2_pipeline
    sf0 = spectral_flow(branches, 0.0, prediction=predicted_sf(FIG2_MINUS, FIG2_PLUS, 0.0))
    sf25 = spectral_flow(branches, 2.5, prediction=predicted_sf(FIG2_MINUS, FIG2_PLUS, 2.5))
    ok = sf0.sf_numeric == 1 and sf25.sf_numeric == -1 and elapsed <= 120.0
    record_criterion(
        1, "quoted quantized flow",
        ok, f"sf(0)={sf0.sf_numeric}, sf(2.5)={sf25.sf_numeric}, sweep {elapsed:.1f}s",
    )
    assert sf0.sf_numeric == 1
    assert sf25.sf_numeric == -1
    assert elapsed <= 120.0


def test_criterion_2_bulk_interface_correspondence(random_suite):
    bad = [
        (s["minus"], s["plus"], s["alpha"], s["report"].sf_numeric, s["pred"].sf)
        for s in random_suite
        if s["report"].sf_numeric != s["pred"].sf
    ]
    record_criterion(
        2, "bulk-interface correspondence (50 random scenarios)",
        not bad, f"{len(random_suite) - len(bad)}/{len(random_suite)} matched",
    )
    assert not bad, f"mismatches: {bad}"


def test_criterion_3_landau_convergence():
    rng = np.random.default_rng(23)
    worst_rel, worst_ratio = 0.0, 0.0
    for _ in range(10):
        while True:
            B = float(rng.uniform(0.5, 4.0) * rng.choice([-1, 1]))
            m = float(rng.uniform(-3.0, 3.0))
            V = float(rng.uniform(-2.0, 2.0))
            hp = HalfSpaceParams(B, m, V)
            levels = sorted(landau_levels(hp, 8).levels, key=abs)[:5]
            mags = sorted(abs(v) for v in levels)
            if min(mags) >= 0.3 and np.min(np.diff(sorted(levels))) >= 0.15:
                break
        ps = ProfileSet(B=SwitchProfile(B, B), m=SwitchProfile(m, m), V=SwitchProfile(V, V))
        window = (min(levels) - 0.3, max(levels) + 0.3)
        errs, rel = {}, 0.0
        for N in (800, 1600):
            grid = Grid1D(L=20.0, N=N)
            pairs = eig_window(assemble_fiber(grid, ps, 0.0), window)
            kept = filter_spurious(pairs, grid, SpuriousFilter(margin=5.0, threshold=0.3))
            kept = [p for p in kept if zone_edge_fraction(spinors(p)) < 0.5]
            mus = np.array([p.mu for p in kept])
            errs[N] = max(float(np.min(np.abs(mus - lev))) for lev in levels)
            if N == 800:
                rel = max(float(np.min(np.abs(mus - lev))) / abs(lev) for lev in levels)
        ratio = errs[1600] / max(errs[800], 1e-12)
        worst_rel = max(worst_rel, rel)
        worst_ratio = max(worst_ratio, ratio)
    ok = worst_rel <= 1e-2 and worst_ratio <= 0.65
    record_criterion(
        3, "Landau levels and stencil convergence",
        ok, f"worst rel err {worst_rel:.2e}, worst halving ratio {worst_ratio:.2f}",
    )
    assert worst_rel <= 1e-2
    assert worst_ratio <= 0.65


def test_criterion_4_conductivity_identity(fig2_pipeline, random_suite):
    rng = np.random.default_rng(4)
    branches, _ = fig2_pipeline
    checked, worst = 0, 0.0
    cases = [
        (branches, (-3.35, 1.9), 0.0, 1),
        (branches, (2.1, 3.35), 2.5, -1),
    ] + [(s["branches"], s["comp"], s["alpha"], s["report"].sf_numeric) for s in random_suite]
    for brs, comp, alpha, sf in cases:
        for e1, e2 in _admissible_phi_windows(brs, comp, alpha, rng):
            sigma = conductivity(brs, DensityProfile.from_window(e1, e2))
            worst = max(worst, abs(sigma - sf))
            checked += 1
    ok = worst <= 1e-6 and checked >= 10 * len(cases) * 0.8
    record_criterion(
        4, "conductivity identity 2*pi*sigma = SF",
        ok, f"{checked} phi windows, worst deviation {worst:.2e}",
    )
    assert worst <= 1e-6
    assert checked >= 10 * len(cases) * 0.8  # a few draws may be rejected


def test_criterion_4_windows_lie_in_bulk_gaps(fig2_pipeline, random_suite):
    """Every phi window that criterion 4 draws (same cases, same rng) holds no
    Landau level of either half-space: the gap check passes them all."""
    rng = np.random.default_rng(4)
    branches, _ = fig2_pipeline
    cases = [
        (branches, (-3.35, 1.9), 0.0, FIG2_MINUS, FIG2_PLUS),
        (branches, (2.1, 3.35), 2.5, FIG2_MINUS, FIG2_PLUS),
    ] + [(s["branches"], s["comp"], s["alpha"], s["minus"], s["plus"]) for s in random_suite]
    checked = 0
    for brs, comp, alpha, minus, plus in cases:
        for window in _admissible_phi_windows(brs, comp, alpha, rng):
            check_density_window(minus, plus, window)
            checked += 1
    assert checked >= 10 * len(cases) * 0.8


def test_criterion_5_weyl_lipschitz():
    rng = np.random.default_rng(5)
    grid = Grid1D(L=10.0, N=300)
    worst = -np.inf
    for _ in range(20):
        B = rng.uniform(0.5, 3.0, 1)[0] * rng.choice([-1, 1])
        b_prof = SwitchProfile(float(B), float(-B))
        m1, m2 = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
        v1, v2 = rng.uniform(-1.5, 1.5, 2), rng.uniform(-1.5, 1.5, 2)
        ps1 = ProfileSet(B=b_prof, m=SwitchProfile(*map(float, m1)), V=SwitchProfile(*map(float, v1)))
        ps2 = ProfileSet(B=b_prof, m=SwitchProfile(*map(float, m2)), V=SwitchProfile(*map(float, v2)))
        x = grid.x
        bound = float(
            np.max(np.abs(evaluate(ps1.m, x) - evaluate(ps2.m, x)))
            + np.max(np.abs(evaluate(ps1.V, x) - evaluate(ps2.V, x)))
        )
        for zeta in rng.uniform(-4, 4, 3):
            A1, A2 = assemble_fiber(grid, ps1, float(zeta)), assemble_fiber(grid, ps2, float(zeta))
            a, b = eigvalsh_tridiagonal(A1.d, A1.e), eigvalsh_tridiagonal(A2.d, A2.e)
            worst = max(worst, float(np.max(np.abs(a - b))) - bound)
    ok = worst <= 1e-10
    record_criterion(
        5, "Weyl/Lipschitz bound on sorted spectra",
        ok, f"worst excess over bound {worst:.2e}",
    )
    assert worst <= 1e-10


def test_criterion_6_gap_lemma():
    ps = ProfileSet(
        B=SwitchProfile(-2.0, 2.0), m=SwitchProfile(3.0, 3.0), V=SwitchProfile(0.0, 0.0)
    )
    grid = Grid1D(L=20.0, N=800)
    sup = sup_A2_prime(ps, grid.L)
    delta = math.sqrt(9.0 - sup)
    window = (-delta + 0.05, delta - 0.05)
    f = SpuriousFilter(margin=2.5, threshold=0.3)
    intruders = []
    for zeta in np.linspace(-8.0, 8.0, 33):
        kept = filter_spurious(eig_window(assemble_fiber(grid, ps, float(zeta)), window), grid, f)
        intruders += [(float(zeta), float(mu)) for mu in kept.mu]
    ok = not intruders
    record_criterion(
        6, "gap lemma (no eigenvalues inside the certified gap)",
        ok, f"Delta={delta:.3f}, intruders={len(intruders)}",
    )
    assert not intruders, f"eigenvalues inside the gap: {intruders}"


def test_criterion_7_2d_trace_oracle():
    ps = preset_profiles("dual_wall_v01")
    dens = DensityProfile.from_window(-1.0, 1.0)
    t0 = time.perf_counter()
    vals = {}
    for Ny, Ly in ((16, 12.0), (32, 24.0)):
        g = Grid2D(grid_x=Grid1D(L=12.0, N=48), Ly=Ly, Ny=Ny)
        vals[Ny] = trace_conductivity(assemble_2d(g, ps), g, default_projection(g), dens)
    elapsed = time.perf_counter() - t0
    dev_coarse, dev_fine = abs(vals[16] - 1.0), abs(vals[32] - 1.0)
    ok = 0.85 <= vals[32] <= 1.15 and dev_fine < dev_coarse and elapsed <= 600.0
    record_criterion(
        7, "2D windowed-trace oracle",
        ok,
        f"2pi*sigma: {vals[16]:.5f} -> {vals[32]:.5f} under doubling, {elapsed:.0f}s",
    )
    assert 0.85 <= vals[32] <= 1.15
    assert dev_fine < dev_coarse
    assert elapsed <= 600.0


def test_criterion_8_stability_theorems():
    ps = preset_profiles("dual_wall_v01")
    g = Grid2D(grid_x=Grid1D(L=10.0, N=42), Ly=18.0, Ny=24)
    P = default_projection(g)
    dens = DensityProfile.from_window(-1.0, 1.0)
    experiments = [
        ("compact-in-x multiplicative", PerturbationSpec("mult_x", 0.5, support=2.0), [0.0, 0.5, 1.0]),
        ("decaying in both variables", PerturbationSpec("decay_xy", 0.3, delta=0.5), [0.0, 1.0]),
        ("y-decay, small coupling", PerturbationSpec("decay_y", 1.0, delta=0.5), [0.0, 0.05]),
    ]
    results = []
    for name, w, couplings in experiments:
        st = stability_experiment(ps, w, couplings, g, P, dens)
        results.append((name, st))
    ok = all(st.verdict == "stable" and st.baseline == 1 for _, st in results)
    detail = "; ".join(
        f"{name}: {st.verdict} {[round(s, 3) for _, s in st.rows]}" for name, st in results
    )
    record_criterion(8, "stability of quantization under perturbations", ok, detail)
    for name, st in results:
        assert st.verdict == "stable", f"{name}: {st.rows}"
        assert st.baseline == 1


def test_criterion_9_property_suites(fig2_pipeline):
    rng = np.random.default_rng(9)
    failures = []

    # Hermiticity, bit-exact
    for _ in range(5):
        ps = walls(
            HalfSpaceParams(float(rng.uniform(0.5, 3)), float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1))),
            HalfSpaceParams(float(rng.uniform(-3, -0.5)), float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1))),
        )
        g = Grid1D(L=5.0, N=64)
        H = dense_fiber(assemble_fiber(g, ps, float(rng.uniform(-3, 3))))
        if np.max(np.abs(H - H.conj().T)) != 0.0:
            failures.append("hermiticity")

    # Chiral symmetry at m = V = 0
    ps0 = ProfileSet(B=SwitchProfile(-2.0, 2.0), m=SwitchProfile(0.0, 0.0), V=SwitchProfile(0.0, 0.0))
    g = Grid1D(L=6.0, N=120)
    vals = np.linalg.eigvalsh(dense_fiber(assemble_fiber(g, ps0, 1.3)))
    if np.max(np.abs(np.sort(vals) + np.sort(-vals)[::-1])) > 1e-10:
        failures.append("chiral symmetry")

    # V-shift covariance
    b1 = walls(HalfSpaceParams(-2.0, -1.0, -0.3), HalfSpaceParams(2.0, 1.0, 0.4))
    b2 = walls(HalfSpaceParams(-2.0, -1.0, 0.2), HalfSpaceParams(2.0, 1.0, 0.9))
    a = np.linalg.eigvalsh(dense_fiber(assemble_fiber(g, b1, 0.7)))
    b = np.linalg.eigvalsh(dense_fiber(assemble_fiber(g, b2, 0.7)))
    if np.max(np.abs(b - (a + 0.5))) > 1e-12:
        failures.append("V-shift covariance")

    # phi-independence and alpha-independence on the pinned branches
    branches, _ = fig2_pipeline
    sigmas = set()
    for _ in range(10):
        c = float(rng.uniform(-1.0, 1.0))
        w = float(rng.uniform(0.15, 0.6))
        sigmas.add(round(conductivity(branches, DensityProfile.from_window(c - w, c + w)), 9))
    if sigmas != {1.0}:
        failures.append(f"phi-independence ({sigmas})")
    flows = {spectral_flow(branches, float(a)).sf_numeric for a in np.linspace(-1.2, 1.2, 20)}
    if flows != {1}:
        failures.append(f"alpha-independence ({flows})")

    # Mirror antisymmetry of the prediction
    from diracflow.errors import BulkLevelError

    for _ in range(1000):
        Bv = rng.uniform(0.5, 4, 2) * rng.choice([-1, 1], 2)
        mv = rng.uniform(-3, 3, 2)
        Vv = rng.uniform(-2, 2, 2)
        alpha = float(rng.uniform(-5, 5))
        minus = HalfSpaceParams(float(Bv[0]), float(mv[0]), float(Vv[0]))
        plus = HalfSpaceParams(float(Bv[1]), float(mv[1]), float(Vv[1]))
        try:
            if predicted_sf(minus, plus, alpha).sf != -predicted_sf(plus, minus, alpha).sf:
                failures.append("mirror antisymmetry")
                break
        except BulkLevelError:
            continue

    ok = not failures
    record_criterion(9, "property suites", ok, "all green" if ok else "; ".join(failures))
    assert not failures, failures
