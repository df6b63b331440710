"""Branch tracking, window validation, autoscale."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diracflow import fiber
from diracflow.branches import (
    _OVERLAP_THRESHOLD,
    _align_clusters,
    Branch,
    SweepConfig,
    autoscale,
    branch_points,
    sweep_branches,
)
from diracflow.bulk import HalfSpaceParams, landau_levels, predicted_sf
from diracflow.config import config_from_dict
from diracflow.fiber import FiberMatrix, Grid1D, SpuriousFilter, boundary_mass, eig_window, slopes_of
from diracflow.flow import spectral_flow, validate_window
from diracflow.presets import preset_config, preset_profiles

from conftest import walls


def small_sweep(ps, zr=(-5.0, 5.0), window=(-3.5, 3.5), N=400, L=14.0, margin=4.0, samples=21):
    grid = Grid1D(L=L, N=N)
    cfg = SweepConfig(zr[0], zr[1], samples, window, refine_tol=0.15)
    f = SpuriousFilter(margin=margin, threshold=0.3)
    return grid, cfg, f, sweep_branches(grid, ps, cfg, f)


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(1.0, 1.0, 10, (-1.0, 1.0))
        with pytest.raises(ValueError):
            SweepConfig(-1.0, 1.0, 1, (-1.0, 1.0))
        with pytest.raises(ValueError):
            SweepConfig(-1.0, 1.0, 10, (1.0, -1.0))


class TestSweep:
    def test_constant_bulk_flat_branches(self):
        ps = preset_profiles("bulk_uniform")
        _, _, _, branches = small_sweep(ps, margin=5.0)
        assert branches
        for b in branches:
            if b.clipped:
                continue
            assert max(b.mus) - min(b.mus) <= 2e-2

    def test_mass_wall_single_zero_crossing(self):
        ps = preset_profiles("mass_wall")
        _, _, _, branches = small_sweep(ps, margin=5.0)
        crossing = [b for b in branches if min(b.mus) < 0.0 < max(b.mus)]
        assert len(crossing) == 1
        b = crossing[0]
        z = np.asarray(b.zetas)
        mu = np.asarray(b.mus)
        core = (mu > -1.0) & (mu < 1.0)
        assert np.all(np.diff(mu[core]) < 0) or np.all(np.diff(mu[core]) > 0)

    def test_massive_field_wall_gap_stays_empty(self):
        ps = preset_profiles("field_wall_massive")
        grid = Grid1D(L=14.0, N=400)
        cfg = SweepConfig(-5.0, 5.0, 21, (-0.5, 0.5))
        f = SpuriousFilter(margin=2.5, threshold=0.3)
        branches = sweep_branches(grid, ps, cfg, f)
        assert branches == []

    def test_sweep_that_starts_empty_still_tracks(self):
        """No state is in the window at zeta_min; the mass wall's crossing branch
        enters mid-sweep and carries the predicted flow."""
        ps = preset_profiles("mass_wall")
        grid, cfg, f, branches = small_sweep(ps, window=(-1.5, 1.5))
        from diracflow.branches import _solve_retained
        from diracflow.fiber import FiberFamily

        assert len(_solve_retained(FiberFamily.of(grid, ps), cfg.zeta_min, cfg.window, f).kept) == 0
        assert branches and all(b.clipped and b.zetas[0] > cfg.zeta_min for b in branches)
        minus, plus = HalfSpaceParams(2.0, -2.0, 0.0), HalfSpaceParams(2.0, 2.0, 0.0)
        assert spectral_flow(branches, 0.0).sf_numeric == predicted_sf(minus, plus, 0.0).sf != 0

    def test_lipschitz_in_zeta(self):
        ps = preset_profiles("dual_wall_v01")
        _, _, _, branches = small_sweep(ps)
        for b in branches:
            dz = np.abs(np.diff(b.zetas))
            dmu = np.abs(np.diff(b.mus))
            assert np.all(dmu <= dz + 5e-2)

    def test_discrete_simplicity(self):
        ps = preset_profiles("dual_wall_v01")
        _, _, _, branches = small_sweep(ps)
        seen = {}
        for i, b in enumerate(branches):
            for z, mu in zip(b.zetas, b.mus):
                for j, mu2 in seen.get(z, []):
                    if j != i:
                        assert abs(mu - mu2) > 1e-9
                seen.setdefault(z, []).append((i, mu))

    def test_branch_count_stable_under_halved_step(self):
        ps = preset_profiles("dual_wall_v01")
        window = (-1.5, 1.5)
        _, _, _, coarse = small_sweep(ps, window=window, samples=21)
        _, _, _, fine = small_sweep(ps, window=window, samples=41)

        def entering(branches):
            return sum(1 for b in branches if any(-1.0 < mu < 1.0 for mu in b.mus))

        assert entering(coarse) == entering(fine)

    def test_slope_aware_refinement_keeps_the_branches(self):
        """Endpoints frozen from the motion-only tracker, which took 56 solves here."""
        ps = preset_profiles("dual_wall_v01")
        grid = Grid1D(L=14.0, N=400)
        cfg = SweepConfig(-5.0, 5.0, 21, (-3.5, 3.5), refine_tol=0.15)
        stats = {}
        branches = sweep_branches(grid, ps, cfg, SpuriousFilter(margin=4.0, threshold=0.3), stats=stats)
        reference = [
            (-3.0, -3.453368415680221, 5.0, 1.8999850543703887),
            (-2.0, 3.4404474081187386, 5.0, 2.0999833348329973),
            (-0.75, -3.4398393545531567, 5.0, -2.7267405917957297),
            (-0.625, 3.485968755962417, 5.0, 2.7264182039867557),
            (0.375, 3.480733047396485, 5.0, 2.9263820903311424),
            (0.5, -3.481776718336117, 5.0, -2.926735044439448),
            (1.5, 3.4812600790189743, 3.5, 3.1410853051949874),
            (1.875, -3.4827537747608934, 5.0, -3.3591906488878807),
            (2.75, 3.485844586625023, 3.5, 3.420934673555672),
            (4.0, 3.285776806851525, 4.0, 3.285776806851525),
            (4.0, 3.4764602683993977, 4.0, 3.4764602683993977),
            (4.5, 3.3447414736499383, 5.0, 3.3561406559825744),
        ]
        assert len(branches) == len(reference)
        for b, ref in zip(branches, reference):
            assert b.clipped
            ends = (b.zetas[0], b.mus[0], b.zetas[-1], b.mus[-1])
            assert np.allclose(ends, ref, rtol=0.0, atol=1e-9)
            assert len(b.slopes) == len(b.mus)
        bis = stats["bisections"]
        assert stats["solves"] == cfg.samples + bis["motion"] + bis["stranded"]
        assert stats["solves"] < 56
        assert stats["min_overlap"] == min(b.min_overlap for b in branches)
        assert stats["min_overlap_zeta"] in {z for b in branches for z in b.zetas}


class TestMatching:
    def test_threshold_makes_matches_unique(self):
        # orthonormal samples give every row and column of |O| a sum of
        # squares <= 1, so above 1/sqrt(2) an overlap is alone in both
        assert _OVERLAP_THRESHOLD > 2 ** -0.5

    @pytest.mark.parametrize("name", ["field_wall_massless", "dual_wall_v0"])
    def test_cluster_rotation_makes_matching_basis_independent(self, monkeypatch, name):
        """Inside clusters degenerate to rounding the bisection tolerance changes the
        solver's basis; rotated onto the incoming tracks, the sweep takes the same
        solves and reaches the same smallest overlap at every tolerance."""
        cfg = config_from_dict(preset_config(name))
        seen = set()
        for tol in (0.0, 1e-8, 1e-7, fiber._BISECT_TOL):
            monkeypatch.setattr(fiber, "_BISECT_TOL", tol)
            stats = {}
            sweep_branches(cfg.grid, cfg.profiles, cfg.sweep, cfg.filter, stats=stats)
            assert stats["cluster_rotations"] > 0
            seen.add((stats["solves"], round(stats["min_overlap"], 6)))
        assert len(seen) == 1

    @pytest.mark.parametrize("turn", [0.0, 0.7], ids=["solver_basis", "turned_basis"])
    def test_fewer_tracks_than_cluster_members(self, turn):
        """Exactly degenerate twin blocks give clusters of two; one incoming track
        inside a cluster's span (plus a little of another state) takes one rotated
        member, aligned with its projection, and the other member is left
        orthogonal to it.  Turning the cluster's basis first changes nothing.  The
        rotation goes into a copy: the input block is a cached sample that a
        bisected step aligns again, and it stays bit for bit as it was."""
        grid, f, kept, track = _twin_cluster(turn)
        names = ("mu", "t", "residual", "slope", "mass")
        before = [getattr(kept, name).copy() for name in names]
        out, rotated = _align_clusters(track[None, :], kept, grid, f)
        assert rotated == 1
        for name, was in zip(names, before):
            assert np.array_equal(getattr(kept, name), was)
            assert np.array_equal(getattr(out, name)[2:], was[2:])
        a, b = out[0], out[1]
        reach = np.hypot(track @ kept.t[0], track @ kept.t[1])
        assert abs(a.t @ track - reach) <= 1e-12 and abs(b.t @ track) <= 1e-12
        assert abs(a.t @ b.t) <= 1e-12 and abs(a.t @ a.t - 1.0) <= 1e-12
        for p in out[:2]:
            assert abs(p.mu - kept.mu[0]) <= 1e-10
            assert p.slope == slopes_of(p.t) and p.mass == boundary_mass(p.t, grid, f.margin)
        expected = (0.6 * kept.t[0] + 0.7 * kept.t[1]) / np.hypot(0.6, 0.7)
        assert np.max(np.abs(a.t - expected)) <= 1e-12

    def test_cli_import_leaves_out_scipy_optimize(self):
        """Importing the CLI loads neither `scipy.optimize` nor `multiprocessing`."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = "import sys, diracflow.cli; print([m for m in ('scipy.optimize', 'multiprocessing') if m in sys.modules])"
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def _twin_cluster(turn):
    """Two exactly degenerate Jacobi blocks, filtered, with the first cluster's basis
    turned by `turn`; and a track mostly inside that cluster's span."""
    rng = np.random.default_rng(7)
    d, e = rng.uniform(-0.5, 0.5, 16), rng.uniform(0.8, 1.2, 15)
    grid = Grid1D(L=1.0, N=16)
    f = SpuriousFilter(margin=0.25, threshold=0.3)
    pairs = eig_window(FiberMatrix(grid=grid, d=np.concatenate([d, d]), e=np.concatenate([e, [0.0], e])), (-6.0, 6.0))
    assert abs(pairs.mu[1] - pairs.mu[0]) <= 1e-10 < pairs.mu[2] - pairs.mu[1]
    c, s = np.cos(turn), np.sin(turn)
    t = pairs.t.copy()
    t[:2] = [c * t[0] - s * t[1], s * t[0] + c * t[1]]
    kept = dataclasses.replace(pairs, t=t, mass=boundary_mass(t, grid, f.margin))
    track = 0.6 * t[0] + 0.7 * t[1] + 0.2 * t[6]
    return grid, f, kept, track / np.linalg.norm(track)


class TestClassify:
    def test_field_wall_massless_endpoints(self):
        """Opposite-sign fields: branches reach bulk levels at zeta -> +inf and
        exit through the window edge (|mu| increasing) toward zeta -> -inf."""
        minus = HalfSpaceParams(-2.0, 0.0, 0.0)
        plus = HalfSpaceParams(2.0, 0.0, 0.0)
        ps = walls(minus, plus)
        _, cfg, _, branches = small_sweep(ps, zr=(-8.0, 8.0), N=600, L=18.0, samples=33)
        bulk = sorted(set(landau_levels(minus, 6).levels) | set(landau_levels(plus, 6).levels))
        at_hi = [b for b in branches if b.zetas[-1] == cfg.zeta_max]
        assert at_hi
        for b in at_hi:
            assert min(abs(b.mus[-1] - v) for v in bulk) < 5e-2
        lo, hi = cfg.window
        for b in branches:
            if b.zetas[0] > cfg.zeta_min:  # entered mid-sweep through the edge
                assert min(b.mus[0] - lo, hi - b.mus[0]) < 0.6


class TestValidateWindow:
    def test_empty_is_valid(self):
        assert validate_window([], 0.0, 0.1)

    def test_endpoint_near_alpha_invalid(self):
        b = Branch(zetas=[-5.0, 5.0], mus=[0.05, 2.0], overlaps=[1.0] * 2,
                   boundary_masses=[0.0] * 2)
        assert not validate_window([b], 0.0, 0.1)
        assert validate_window([b], 1.0, 0.1)

    def test_pipeline_window_valid_at_zero(self):
        ps = preset_profiles("dual_wall_v01")
        _, _, _, branches = small_sweep(ps)
        assert validate_window(branches, 0.0, 0.1)


class TestAutoscale:
    def test_returns_consistent_geometry(self):
        minus = HalfSpaceParams(-2.0, -2.0, -0.1)
        plus = HalfSpaceParams(2.0, 2.0, 0.1)
        grid, cfg, f = autoscale(minus, plus, (-1.5, 1.5))
        assert cfg.zeta_min < -abs(cfg.window[0]) and cfg.zeta_max > abs(cfg.window[1])
        assert grid.L > 1.0 + f.margin
        assert 64 <= grid.N <= 4000

    def test_scaled_sweep_reproduces_prediction(self, rng):
        from conftest import draw_interface_scenario

        minus, plus, alpha, _ = draw_interface_scenario(rng)
        grid, cfg, f = autoscale(minus, plus, (alpha - 1.5, alpha + 1.5))
        branches = sweep_branches(grid, walls(minus, plus), cfg, f)
        report = spectral_flow(branches, alpha, prediction=predicted_sf(minus, plus, alpha))
        assert report.sf_numeric == report.sf_predicted


class TestBranchPoints:
    def test_flat_rows(self):
        b = Branch(zetas=[0.0, 1.0], mus=[0.5, 0.6], slopes=[0.1, -0.2], overlaps=[1.0, 0.9],
                   boundary_masses=[0.0, 0.01])
        rows = branch_points([b])
        assert rows == [(0, 0.0, 0.5, 0.1, 1.0, 0.0), (0, 1.0, 0.6, -0.2, 0.9, 0.01)]
