"""Branch tracking, window validation, autoscale."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diracflow import fiber
from diracflow.branches import (
    _OVERLAP_THRESHOLD,
    _OVERLAP_TIE,
    _align_clusters,
    Branch,
    SweepConfig,
    autoscale,
    branch_points,
    sweep_branches,
)
from diracflow.bulk import HalfSpaceParams, landau_levels, predicted_sf
from diracflow.config import config_from_dict
from diracflow.fiber import (
    FiberFamily,
    FiberMatrix,
    Grid1D,
    SpuriousFilter,
    boundary_mass,
    eig_window,
    filter_spurious,
    slopes_of,
)
from diracflow.flow import spectral_flow, validate_window
from diracflow.presets import preset_config, preset_profiles

from conftest import draw_interface_scenario, walls


def small_sweep(ps, zr=(-5.0, 5.0), window=(-3.5, 3.5), N=400, L=14.0, margin=4.0, samples=21):
    grid = Grid1D(L=L, N=N)
    cfg = SweepConfig(zr[0], zr[1], samples, window, refine_tol=0.15)
    f = SpuriousFilter(margin=margin, threshold=0.3)
    return grid, cfg, f, sweep_branches(grid, ps, cfg, f)


def clipped(b: Branch, cfg: SweepConfig) -> bool:
    """Whether the branch enters after the sweep starts or ends before it does."""
    return b.zetas[0] != cfg.zeta_min or b.zetas[-1] != cfg.zeta_max


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
        _, cfg, _, branches = small_sweep(ps, margin=5.0)
        assert branches
        for b in branches:
            if clipped(b, cfg):
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
        assert len(filter_spurious(eig_window(FiberFamily.of(grid, ps).at(cfg.zeta_min), cfg.window), grid, f)) == 0
        assert branches and all(clipped(b, cfg) and b.zetas[0] > cfg.zeta_min for b in branches)
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
            assert clipped(b, cfg)
            ends = (b.zetas[0], b.mus[0], b.zetas[-1], b.mus[-1])
            assert np.allclose(ends, ref, rtol=0.0, atol=1e-9)
            assert len(b.slopes) == len(b.mus)
        bis = stats["bisections"]
        assert stats["solves"] == cfg.samples + bis["motion"] + bis["stranded"]
        assert stats["solves"] < 56
        assert stats["min_overlap"] == min(b.min_overlap for b in branches)
        assert stats["min_overlap_zeta"] in {z for b in branches for z in b.zetas}

    def test_min_overlap_zeta_is_the_first_near_tie(self):
        """bulk_uniform's overlaps tie to about 1e-9 at many samples, so the exact argmin
        of the smallest overlap is rounding noise; the sweep reports the smallest zeta
        whose matched overlap lies within _OVERLAP_TIE of min_overlap, which stays the
        exact minimum."""
        cfg = config_from_dict(preset_config("bulk_uniform"))
        stats = {}
        branches = sweep_branches(cfg.grid, cfg.profiles, cfg.sweep, cfg.filter, stats=stats)
        low = stats["min_overlap"]
        assert low == min(b.min_overlap for b in branches) < 1.0
        # overlaps[0] is the 1.0 a branch starts with, not a match
        near = sorted(z for b in branches for z, ov in zip(b.zetas[1:], b.overlaps[1:]) if ov <= low + _OVERLAP_TIE)
        assert len(near) > 1 and stats["min_overlap_zeta"] == near[0] == pytest.approx(-7.8, abs=1e-12)

    def test_each_solve_is_seeded_by_the_committed_block(self, monkeypatch):
        """mass_wall's sweep bisects: the first solve runs cold (guess None), and every
        later one, a bisection midpoint too, gets the very block returned for the
        committed sample z_prev, the largest solved zeta below its own, with step
        z - z_prev.  Committed samples come in increasing zeta, so no solved zeta
        below z is still waiting when z is solved."""
        run = config_from_dict(preset_config("mass_wall"))
        real_at, zetas, calls = FiberFamily.at, [], []

        def at(self, zeta):
            zetas.append(zeta)
            return real_at(self, zeta)

        def recorded(A, window, guess=None, step=0.0):
            pairs = eig_window(A, window, guess, step)
            calls.append((zetas[-1], guess, step, pairs))
            return pairs

        monkeypatch.setattr(FiberFamily, "at", at)
        monkeypatch.setattr("diracflow.branches.eig_window", recorded)
        stats = {}
        sweep_branches(run.grid, run.profiles, run.sweep, run.filter, stats=stats)
        assert sum(stats["bisections"].values()) > 0 and len(calls) == stats["solves"]
        (z0, guess0, _, _), *later = calls
        assert z0 == run.sweep.zeta_min and guess0 is None
        for i, (z, guess, step, _) in enumerate(later, 1):
            z_prev, _, _, block = max((c for c in calls[:i] if c[0] < z), key=lambda c: c[0])
            assert guess is block
            assert step == z - z_prev

    @pytest.mark.parametrize("geometry", ["fig2", "autoscaled", "mass_wall", "bulk_uniform"])
    def test_warm_start_leaves_the_sweep_as_it_is(self, monkeypatch, geometry):
        """fig2's sweep (criterion 1), criterion 2's first autoscaled sweep, whose full
        0.5-wide steps are where warm blocks take three steps, and two presets whose
        Landau clusters hold a kept state degenerate with one in the boundary strip,
        with and without the warm start: each solve after the first gets the block at
        z_prev (some of them across a change of the window's count), and dropping it
        leaves the branch count, every zeta sample, the solves and the bisections as
        they are, with mu within 1e-12.  Clusters are aligned before the filter, so
        the solver's basis does not reach the boundary masses or the overlaps either."""
        if geometry == "fig2":
            grid, ps, n_branches = Grid1D(L=20.0, N=800), preset_profiles("dual_wall_v01"), 13
            cfg = SweepConfig(-8.0, 8.0, 81, (-4.0, 4.0), refine_tol=0.05)
            f = SpuriousFilter(margin=2.5, threshold=0.3)
        elif geometry == "autoscaled":
            minus, plus, alpha, _ = draw_interface_scenario(np.random.default_rng(11))
            grid, cfg, f = autoscale(minus, plus, (alpha - 1.5, alpha + 1.5))
            ps, n_branches = walls(minus, plus), 4
        else:
            run = config_from_dict(preset_config(geometry))
            grid, ps, cfg, f = run.grid, run.profiles, run.sweep, run.filter
            n_branches = {"mass_wall": 9, "bulk_uniform": 7}[geometry]
        warm_stats, cold_stats = {}, {}
        warm = sweep_branches(grid, ps, cfg, f, stats=warm_stats)
        monkeypatch.setattr("diracflow.branches.eig_window", lambda A, window, guess, step: eig_window(A, window))
        cold = sweep_branches(grid, ps, cfg, f, stats=cold_stats)
        assert 0 < warm_stats["warm"] < warm_stats["solves"] and cold_stats["warm"] == 0
        assert 0 < warm_stats["warm_recounted"] < warm_stats["warm"] and cold_stats["warm_recounted"] == 0
        assert sum(warm_stats["warm_steps"].values()) == warm_stats["warm"] and cold_stats["warm_steps"] == {}
        assert len(warm) == len(cold) == n_branches
        for key in ("solves", "bisections"):
            assert warm_stats[key] == cold_stats[key]
        for b, c in zip(warm, cold):
            assert b.zetas == c.zetas
            assert np.max(np.abs(np.array(b.mus) - np.array(c.mus))) <= 1e-12
            assert np.max(np.abs(np.array(b.boundary_masses) - np.array(c.boundary_masses))) <= 1e-9
            assert np.max(np.abs(np.array(b.overlaps) - np.array(c.overlaps))) <= 1e-7


class TestMatching:
    def test_threshold_makes_matches_unique(self):
        # orthonormal samples give every row and column of |O| a sum of
        # squares <= 1, so above 1/sqrt(2) an overlap is alone in both
        assert _OVERLAP_THRESHOLD > 2 ** -0.5

    @pytest.mark.parametrize("name", ["field_wall_massless", "dual_wall_v0", "bulk_uniform", "mass_wall"])
    def test_cluster_rotation_makes_matching_basis_independent(self, monkeypatch, name):
        """Inside clusters degenerate to rounding the bisection tolerance changes the
        solver's basis; rotated onto the incoming tracks, the sweep takes the same
        solves and reaches the same smallest overlap at every tolerance.  The
        clusters of bulk_uniform and mass_wall pair a kept state with one the filter
        drops, so they are rotated only because the whole block is aligned."""
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
        rotation goes into a copy: the input block is a cached solve that a
        bisected step aligns again, and it stays bit for bit as it was.  The filter
        then judges each rotated member by its own boundary mass."""
        grid, f, block, track = _twin_cluster(turn)
        names = ("mu", "t", "residual", "slope")
        before = [getattr(block, name).copy() for name in names]
        out, rotated = _align_clusters(track[None, :], block)
        assert rotated == 1
        for name, was in zip(names, before):
            assert np.array_equal(getattr(block, name), was)
            assert np.array_equal(getattr(out, name)[2:], was[2:])
        a, b = out[0], out[1]
        reach = np.hypot(track @ block.t[0], track @ block.t[1])
        assert abs(a.t @ track - reach) <= 1e-12 and abs(b.t @ track) <= 1e-12
        assert abs(a.t @ b.t) <= 1e-12 and abs(a.t @ a.t - 1.0) <= 1e-12
        for p in out[:2]:
            assert abs(p.mu - block.mu[0]) <= 1e-10 and p.slope == slopes_of(p.t)
        expected = (0.6 * block.t[0] + 0.7 * block.t[1]) / np.hypot(0.6, 0.7)
        assert np.max(np.abs(a.t - expected)) <= 1e-12
        kept = filter_spurious(out, grid, f)
        for p in out[:2]:
            mass = boundary_mass(p.t, grid, f.margin)
            rows = np.flatnonzero((kept.t == p.t).all(axis=1))
            assert rows.size == (mass <= f.threshold) and np.all(kept.mass[rows] == mass)

    def test_cli_import_leaves_out_scipy_optimize(self):
        """Importing the CLI loads neither `scipy.optimize`, `multiprocessing` nor the sparse stack."""
        assert _fresh_python(f"import diracflow.cli; print({_UNUSED_BY_FIBER_RUNS})") == ["[]"]

    def test_flow_run_leaves_out_the_sparse_stack_until_the_oracle_runs(self, tmp_path):
        """A whole `flow` run loads none of those modules either, and neither does a
        y-invariant trace (criterion 7's), which works on the fibers; a y-dependent
        trace, the only one that builds H's CSR matrix and runs SuperLU and eigsh,
        loads scipy.sparse and scipy.sparse.linalg."""
        raw = preset_config("dual_wall_v01")
        raw.update(grid={"L": 20.0, "N": 200}, sweep={"samples": 17})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code = f"""
import contextlib, io
from diracflow import cli
from diracflow.fiber import Grid1D
from diracflow.oracle2d import Grid2D, PerturbationSpec, assemble_2d, default_projection, trace_conductivity
from diracflow.profiles import DensityProfile
from diracflow.presets import preset_profiles
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["flow", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "o")!r}]) == 0
print({_UNUSED_BY_FIBER_RUNS})
g, dens = Grid2D(Grid1D(12.0, 48), 12.0, 16), DensityProfile.from_window(-1.0, 1.0)
ps = preset_profiles("dual_wall_v01")
val = trace_conductivity(assemble_2d(g, ps), g, default_projection(g), dens)
print(round(val), {_SPARSE})
val = trace_conductivity(assemble_2d(g, ps, PerturbationSpec("mult_xy", 0.5), 0.5), g, default_projection(g), dens)
print(round(val), {_SPARSE})
"""
        assert _fresh_python(code) == ["[]", "1 []", "1 ['scipy.sparse', 'scipy.sparse.linalg']"]


# modules a fiber run never calls, and scipy's sparse stack, as code that lists those loaded
_UNUSED_BY_FIBER_RUNS = "[m for m in ('scipy.optimize', 'multiprocessing', 'scipy.sparse', 'scipy.sparse.linalg') if m in sys.modules]"
_SPARSE = "[m for m in ('scipy.sparse', 'scipy.sparse.linalg') if m in sys.modules]"


def _fresh_python(code):
    """stdout lines of `code` run after `import sys` in a new interpreter that imports diracflow from src/."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _twin_cluster(turn):
    """Two exactly degenerate Jacobi blocks in one solve, with the first cluster's basis
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
    track = 0.6 * t[0] + 0.7 * t[1] + 0.2 * t[6]
    return grid, f, dataclasses.replace(pairs, t=t), track / np.linalg.norm(track)


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
