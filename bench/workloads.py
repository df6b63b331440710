"""The three benchmark workloads: inputs from a seed, one timed pass, and its checks.

Library calls go through module attributes (`branches.sweep_branches`,
not a name imported from it), so the traced run's wrappers see them.
Each pass returns one Result per checked outcome; a DiracflowError (or any
other exception) inside an outcome is caught, counted by class and the
pass goes on with the next outcome.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass

import numpy as np

from diracflow import branches, bulk, flow, oracle2d
from diracflow.bulk import HalfSpaceParams
from diracflow.fiber import Grid1D, SpuriousFilter
from diracflow.presets import preset_profiles
from diracflow.profiles import DensityProfile, ProfileSet, SwitchProfile

# |2 pi sigma - sf| allowed for the branch-endpoint conductivity (flow.reconcile)
SIGMA_TOL = 1e-6


@dataclass
class Result:
    """One checked outcome of a pass; `key` is what tracing must not change."""

    problem: str
    ok: bool
    detail: str
    key: tuple = ()
    error: str | None = None
    sigma_dev: float | None = None


def _failed(problem: str, exc: Exception) -> Result:
    traceback.print_exception(exc, file=sys.stderr)
    return Result(problem, False, f"{type(exc).__name__}: {exc}", error=type(exc).__name__)


def _sides(ps: ProfileSet) -> tuple[HalfSpaceParams, HalfSpaceParams]:
    """The two bulk half-spaces joined by a set of walls."""
    return (
        HalfSpaceParams(ps.B.lower, ps.m.lower, ps.V.lower),
        HalfSpaceParams(ps.B.upper, ps.m.upper, ps.V.upper),
    )


# ---- fig2_pinned ------------------------------------------------------------


def fig2_setup(seed: int) -> dict:
    """Criterion 1's pinned geometry; the seed is not used (nothing is drawn)."""
    ps = preset_profiles("dual_wall_v01")
    return dict(
        ps=ps,
        sides=_sides(ps),
        grid=Grid1D(L=20.0, N=800),
        cfg=branches.SweepConfig(-8.0, 8.0, 81, (-4.0, 4.0), refine_tol=0.05),
        filt=SpuriousFilter(margin=2.5, threshold=0.3),
        dens=DensityProfile.from_window(-0.5, 0.5),
        quoted={0.0: 1, 2.5: -1},
        n_branches=13,
    )


def fig2_pass(inp: dict, mark) -> list[Result]:
    mark("fig2")
    problems = ["fig2.branches"] + [f"fig2.sf@{a}" for a in inp["quoted"]] + ["fig2.sigma"]
    try:
        brs = branches.sweep_branches(inp["grid"], inp["ps"], inp["cfg"], inp["filt"])
    except Exception as exc:  # every outcome of the pass depends on the sweep
        return [_failed(p, exc) for p in problems]
    out = [
        Result(
            problems[0],
            len(brs) == inp["n_branches"],
            f"{len(brs)} branches (quoted {inp['n_branches']})",
            key=(len(brs),),
        )
    ]
    for alpha, quoted in inp["quoted"].items():
        problem = f"fig2.sf@{alpha}"
        try:
            pred = bulk.predicted_sf(*inp["sides"], alpha)
            rep = flow.spectral_flow(brs, alpha, prediction=pred)
        except Exception as exc:
            out.append(_failed(problem, exc))
            continue
        out.append(
            Result(
                problem,
                rep.sf_numeric == pred.sf == quoted,
                f"sf={rep.sf_numeric} predicted={pred.sf} quoted={quoted}",
                key=(rep.sf_numeric,),
            )
        )
    try:
        # the density window (-0.5, 0.5) lies in the gap containing alpha = 0
        sigma = flow.conductivity(brs, inp["dens"])
        dev = abs(sigma - bulk.predicted_sf(*inp["sides"], 0.0).sf)
        out.append(
            Result("fig2.sigma", dev <= SIGMA_TOL, f"2pi*sigma={sigma!r}", key=(sigma,), sigma_dev=dev)
        )
    except Exception as exc:
        out.append(_failed("fig2.sigma", exc))
    return out


# ---- random_autoscaled ------------------------------------------------------

# The first ten draws of criterion 2's sampler (tests/conftest.py,
# draw_interface_scenario at seed 11): the (B, m, V) of both half-spaces and
# the joint gap component the level alpha was drawn from.  They are frozen
# here so that the benchmark's inputs do not move when the tests change.
# The benchmark seed redraws alpha in each component by the sampler's own
# rule; redrawing the half-spaces too would let the seed change the grid
# sizes (N from 237 to 919 over seeds 0-6) and the pass time by 2.5x.
RANDOM_POOL = [
    ((0.9499957096921987, -2.8278659497683325, 1.712844091841478), (2.2474725185404023, -2.1124434925352644, -1.7183176953832127), (1.2745676258804322, 1.949421060760168)),
    ((-2.67659257478734, 0.9770577151007958, -1.4481277085321786), (-1.7914759330542684, -1.3481471054332241, 1.1521583780159674), (1.0634110485274584, 1.9666946994104872)),
    ((2.2933380971910617, 2.8854818357838328, 0.21492145146091124), (3.358577525893803, -1.7729432320197307, -0.06550121230644912), (3.100403287244744, 3.8083434443557844)),
    ((-1.323554310836532, -2.227441972632894, -0.8914204298651827), (3.307709393224692, -0.197560759570373, -1.6675320090590304), (1.3360215427677113, 1.8669498069086594)),
    ((2.0048204221674237, -1.786703833271771, -1.1314069703258873), (1.0169195498673291, 2.4085864721290617, -1.8677012504902852), (-4.479778556111691, -3.8150521466043923)),
    ((-2.1411785719786964, -0.9640760355453284, -1.360705223580076), (3.6714701861344623, -2.898736709415013, 1.985743502158682), (0.922231426060073, 1.7205537545370801)),
    ((-2.9186397071156573, 2.075340638670345, -0.7651610271817519), (-0.691338214906433, 0.527291644001163, -0.7304934468746502), (-2.0191799516718083, -1.2577850908758132)),
    ((3.485219980590847, -1.45115488887247, 1.7640239786057395), (-1.260239562325216, 2.869806823885302, -0.6372552965739637), (-2.241813066739698, -1.2486642682396196)),
    ((1.6001187004634851, -2.5953664014478433, -1.019623795543744), (-3.112781210568937, -0.5757744751895624, 1.3808999268049074), (-3.614990196991587, -2.978939922282836)),
    ((2.815164300097252, 2.5650155826940964, 0.504520630981526), (2.9229768733972334, -2.101588957273602, -1.4255142275465795), (1.778019741701884, 2.588035776990959)),
]


def _walls(minus: HalfSpaceParams, plus: HalfSpaceParams) -> ProfileSet:
    """Smooth walls on the default (-1, 1) transition (as tests/conftest.py builds them)."""
    return ProfileSet(
        B=SwitchProfile(minus.B, plus.B),
        m=SwitchProfile(minus.m, plus.m),
        V=SwitchProfile(minus.V, plus.V),
    )


def random_setup(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    scenarios = []
    for minus, plus, (lo, hi) in RANDOM_POOL:
        minus, plus = HalfSpaceParams(*minus), HalfSpaceParams(*plus)
        alpha = float(rng.uniform(lo + 0.2, hi - 0.2))
        scenarios.append((minus, plus, _walls(minus, plus), alpha))
    return dict(scenarios=scenarios)


def random_pass(inp: dict, mark) -> list[Result]:
    out = []
    for i, (minus, plus, ps, alpha) in enumerate(inp["scenarios"]):
        problem = f"scenario{i}"
        mark(problem)
        try:
            grid, cfg, filt = branches.autoscale(minus, plus, (alpha - 1.5, alpha + 1.5))
            brs = branches.sweep_branches(grid, ps, cfg, filt)
            pred = bulk.predicted_sf(minus, plus, alpha)
            rep = flow.spectral_flow(brs, alpha, prediction=pred)
        except Exception as exc:
            out.append(_failed(problem, exc))
            continue
        out.append(
            Result(
                problem,
                rep.sf_numeric == pred.sf,
                f"alpha={alpha:.4f} N={grid.N} sf={rep.sf_numeric} predicted={pred.sf}",
                key=(len(brs), rep.sf_numeric),
            )
        )
    return out


# ---- oracle_doubling --------------------------------------------------------


def oracle_setup(seed: int) -> dict:
    """Criterion 7's doubling grids; the seed is not used (nothing is drawn)."""
    ps = preset_profiles("dual_wall_v01")
    grids = [
        oracle2d.Grid2D(grid_x=Grid1D(L=12.0, N=48), Ly=Ly, Ny=Ny) for Ny, Ly in ((16, 12.0), (32, 24.0))
    ]
    return dict(ps=ps, sides=_sides(ps), grids=grids, dens=DensityProfile.from_window(-1.0, 1.0))


def oracle_pass(inp: dict, mark) -> list[Result]:
    out, sigmas = [], {}
    for g in inp["grids"]:
        problem = f"dim{g.dim}"
        mark(problem)
        try:
            # the density window (-1, 1) lies in the gap containing alpha = 0
            sf = bulk.predicted_sf(*inp["sides"], 0.0).sf
            res = oracle2d.trace_conductivity(
                oracle2d.assemble_2d(g, inp["ps"]),
                g,
                oracle2d.default_projection(g),
                inp["dens"],
                full_result=True,
            )
        except Exception as exc:
            out.append(_failed(problem, exc))
            continue
        sigma = float(res.two_pi_sigma)
        sigmas[g.dim] = sigma
        out.append(
            Result(
                problem,
                round(sigma) == sf,
                f"2pi*sigma={sigma!r} predicted={sf} cut={res.n_states_cut}",
                key=(sigma, res.n_states_cut),
                sigma_dev=abs(sigma - sf),
            )
        )
    # criterion 7's gates on the fine grid: within 15% of 1, closer than the coarse grid
    coarse, fine = (g.dim for g in inp["grids"])
    if fine in sigmas:
        r = next(r for r in out if r.problem == f"dim{fine}")
        gate = (
            coarse in sigmas
            and 0.85 <= sigmas[fine] <= 1.15
            and abs(sigmas[fine] - 1.0) < abs(sigmas[coarse] - 1.0)
        )
        r.ok = r.ok and gate
        r.detail += "" if gate else " (criterion 7 gate missed)"
    return out


WORKLOADS = {
    "fig2_pinned": (fig2_setup, fig2_pass),
    "random_autoscaled": (random_setup, random_pass),
    "oracle_doubling": (oracle_setup, oracle_pass),
}
