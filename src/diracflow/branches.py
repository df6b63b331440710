"""Sweep zeta and track eigenvalue branches by eigenvector continuity.

Tracking matches retained eigenpairs at consecutive zeta samples by
maximizing total absolute eigenvector overlap with an optimal assignment
(greedy matching fails at the near-avoided crossings that appear at
large zeta).  Steps are bisected until every matched overlap clears the
threshold and the per-step eigenvalue motion stays below refine_tol;
the matrix depends on zeta only through zeta * sigma_2, so branches are
1-Lipschitz in zeta and bisection always terminates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .bulk import HalfSpaceParams, landau_levels
from .errors import TrackingError
from .fiber import (
    EigenPair,
    Grid1D,
    SpuriousFilter,
    assemble_fiber,
    boundary_mass,
    eig_window,
    filter_spurious,
)
from .profiles import ProfileSet

__all__ = [
    "SweepConfig",
    "Branch",
    "AsymptoteLabel",
    "sweep_branches",
    "classify_asymptotics",
    "validate_window",
    "autoscale",
]


@dataclass(frozen=True)
class SweepConfig:
    """Sweep range, initial sampling density, and tracking tolerances."""

    zeta_min: float
    zeta_max: float
    samples: int
    window: tuple[float, float]
    refine_tol: float = 0.05
    overlap_threshold: float = 0.8
    bisect_floor: float = 1e-4

    def __post_init__(self):
        if not self.zeta_min < self.zeta_max:
            raise ValueError("zeta_min must be < zeta_max")
        if self.samples < 2:
            raise ValueError("samples must be >= 2")
        if not self.window[0] < self.window[1]:
            raise ValueError("window lo must be < hi")


@dataclass(frozen=True)
class AsymptoteLabel:
    """Endpoint classification: converged to a bulk level, or diverging."""

    kind: str  # "bulk_level" | "diverging"
    value: float | None = None
    side: str | None = None  # "plus" | "minus"


@dataclass
class Branch:
    """One tracked eigenvalue curve with per-sample diagnostics."""

    zetas: list[float] = field(default_factory=list)
    mus: list[float] = field(default_factory=list)
    overlaps: list[float] = field(default_factory=list)
    boundary_masses: list[float] = field(default_factory=list)
    clipped: bool = False
    asymptote_lo: AsymptoteLabel | None = None
    asymptote_hi: AsymptoteLabel | None = None

    @property
    def min_overlap(self) -> float:
        return min(self.overlaps) if self.overlaps else 1.0


class _Track:
    """Mutable tracking state: the Branch under construction plus its last vector."""

    __slots__ = ("branch", "psi")

    def __init__(self, branch: Branch, psi: np.ndarray):
        self.branch = branch
        self.psi = psi


def _solve_retained(
    grid: Grid1D, ps: ProfileSet, zeta: float, window: tuple[float, float], f: SpuriousFilter
) -> list[EigenPair]:
    pairs = eig_window(assemble_fiber(grid, ps, zeta), window)
    return filter_spurious(pairs, grid, f)


def sweep_branches(
    grid: Grid1D,
    ps: ProfileSet,
    cfg: SweepConfig,
    f: SpuriousFilter,
    prefetch: dict[float, list[EigenPair]] | None = None,
) -> list[Branch]:
    """Track all branches of the filtered window spectrum over the zeta sweep.

    `prefetch` seeds the solve cache (used by the CLI to fan the initial
    samples out to a worker pool); the result is identical either way
    because matching is a sequential reduction in zeta order.
    """
    lo, hi = cfg.window
    targets = list(np.linspace(cfg.zeta_min, cfg.zeta_max, cfg.samples))
    cache: dict[float, list[EigenPair]] = dict(prefetch) if prefetch else {}

    def solve(z: float) -> list[EigenPair]:
        if z not in cache:
            cache[z] = _solve_retained(grid, ps, z, cfg.window, f)
        return cache[z]

    def exits(b: Branch, step: float) -> bool:
        # legitimate ways for a track to go unmatched: through the energy
        # window edge (the Lipschitz bound limits travel to one step) or
        # into the boundary filter strip
        edge = min(b.mus[-1] - lo, hi - b.mus[-1]) <= step + 10 * cfg.bisect_floor
        return edge or b.boundary_masses[-1] >= 0.5 * f.threshold

    done: list[Branch] = []
    z_prev = targets[0]
    active = []
    for p in solve(z_prev):
        br = Branch()
        br.zetas.append(z_prev)
        br.mus.append(p.mu)
        br.overlaps.append(1.0)
        br.boundary_masses.append(boundary_mass(p.psi, grid, f.margin))
        active.append(_Track(br, p.psi))

    queue = targets[1:]
    while queue:
        z = queue[0]
        pairs = solve(z)
        step = z - z_prev

        # optimal assignment between active tracks and new eigenpairs
        if active and pairs:
            O = np.abs(
                np.array([[np.vdot(t.psi, p.psi) for p in pairs] for t in active])
            )
            rows, cols = linear_sum_assignment(-O)
        else:
            O = np.zeros((len(active), len(pairs)))
            rows, cols = np.array([], dtype=int), np.array([], dtype=int)

        matched = [(i, j, O[i, j]) for i, j in zip(rows, cols) if O[i, j] >= cfg.overlap_threshold]
        matched_old = {i for i, _, _ in matched}
        unmatched = [i for i in range(len(active)) if i not in matched_old]
        jumped = any(abs(pairs[j].mu - active[i].branch.mus[-1]) > cfg.refine_tol for i, j, _ in matched)
        stranded = [i for i in unmatched if not exits(active[i].branch, step)]
        if (jumped or stranded) and step > cfg.bisect_floor:
            queue.insert(0, 0.5 * (z_prev + z))
            continue
        if stranded:
            # bisection bottomed out
            assigned = dict(zip(rows, cols))
            best = max(O[i, assigned[i]] if i in assigned else 0.0 for i in unmatched)
            raise TrackingError(
                f"tracking ambiguity at zeta = {z:.6g}: best overlap "
                f"{best:.3f} < {cfg.overlap_threshold} with step at bisection floor",
                zeta=z,
            )

        # commit the step
        queue.pop(0)
        cache.pop(z_prev, None)
        new_active: list[_Track] = []
        used_new = set()
        for i, j, ov in matched:
            t = active[i]
            p = pairs[j]
            t.branch.zetas.append(z)
            t.branch.mus.append(p.mu)
            t.branch.overlaps.append(float(ov))
            t.branch.boundary_masses.append(boundary_mass(p.psi, grid, f.margin))
            t.psi = p.psi
            new_active.append(t)
            used_new.add(j)
        for i in unmatched:
            active[i].branch.clipped = True
            done.append(active[i].branch)
        for j, p in enumerate(pairs):
            if j not in used_new:
                # a branch entering mid-sweep through the window edge
                br = Branch(clipped=True)
                br.zetas.append(z)
                br.mus.append(p.mu)
                br.overlaps.append(1.0)
                br.boundary_masses.append(boundary_mass(p.psi, grid, f.margin))
                new_active.append(_Track(br, p.psi))
        active = new_active
        z_prev = z

    done.extend(t.branch for t in active)
    done.sort(key=lambda b: (b.zetas[0], b.mus[0]))
    return done


def classify_asymptotics(
    branch: Branch,
    minus: HalfSpaceParams,
    plus: HalfSpaceParams,
    match_tol: float = 5e-2,
    window: tuple[float, float] | None = None,
) -> Branch:
    """Label both endpoints of a full branch against the bulk spectra.

    The eligible bulk side at each sweep end follows the sign pattern of
    the fields: the guiding center zeta / B must point into that half.
    """
    if branch.clipped:
        raise ValueError("cannot classify a clipped branch (it does not reach the endpoints)")

    def eligible(sides_end: str) -> list[tuple[HalfSpaceParams, str]]:
        out = []
        if sides_end == "hi":
            if plus.B > 0:
                out.append((plus, "plus"))
            if minus.B < 0:
                out.append((minus, "minus"))
        else:
            if plus.B < 0:
                out.append((plus, "plus"))
            if minus.B > 0:
                out.append((minus, "minus"))
        return out

    def label(end: str) -> AsymptoteLabel:
        mu_end = branch.mus[-1] if end == "hi" else branch.mus[0]
        best = None
        for hp, side in eligible(end):
            k_need = max(1, math.ceil((abs(mu_end - hp.V) + 1.0) ** 2 / (2 * abs(hp.B))) + 1)
            for lev in landau_levels(hp, k_need).levels:
                d = abs(lev - mu_end)
                if d <= match_tol and (best is None or d < best[0]):
                    best = (d, lev, side)
        if best is not None:
            return AsymptoteLabel(kind="bulk_level", value=best[1], side=best[2])
        # divergence heuristic: near the window edge with consistent motion
        mus = branch.mus if end == "hi" else branch.mus[::-1]
        if window is not None and len(mus) >= 6:
            lo, hi = window
            near_edge = min(mus[-1] - lo, hi - mus[-1]) <= 0.1 * (hi - lo)
            tail = np.diff(mus[-6:])
            if near_edge and np.all(tail > 0) or near_edge and np.all(tail < 0):
                return AsymptoteLabel(kind="diverging")
        raise ValueError(f"unclassifiable endpoint ({end}) at mu = {mu_end:.6g}")

    branch.asymptote_lo = label("lo")
    branch.asymptote_hi = label("hi")
    return branch


def validate_window(branches: list[Branch], alpha: float, margin: float) -> bool:
    """True iff no branch value sits within margin of alpha at a sweep endpoint."""
    if not branches:
        return True
    z_lo = min(b.zetas[0] for b in branches)
    z_hi = max(b.zetas[-1] for b in branches)
    for b in branches:
        if b.zetas[0] == z_lo and abs(b.mus[0] - alpha) < margin:
            return False
        if b.zetas[-1] == z_hi and abs(b.mus[-1] - alpha) < margin:
            return False
    return True


def autoscale(
    minus: HalfSpaceParams,
    plus: HalfSpaceParams,
    window: tuple[float, float],
    transition: tuple[float, float] = (-1.0, 1.0),
    points_budget: int = 4000,
) -> tuple[Grid1D, SweepConfig, SpuriousFilter]:
    """Choose grid and sweep geometry for an interface scenario.

    Three constraints drive the choice:
      * branches must converge to their bulk limits before the sweep ends,
        so each end extends past |B| * (guiding-center distance) for the
        half-space it probes;
      * the domain must contain those guiding centers plus the magnetic
        localization length, with room for the boundary filter strip;
      * the staggered stencil's zone-edge resonance at zeta - A2 ~ 2/h
        must stay out of the retained region, which bounds h from above.
    """
    t_edge = max(abs(transition[0]), abs(transition[1]))
    margin = 3.0

    def reach(hp: HalfSpaceParams) -> float:
        # guiding-center distance where bulk convergence is exponentially
        # settled; the highest Landau state reaching the window sets the
        # oscillator width sqrt(2k+1)/sqrt(B) that must clear the wall
        r = max(abs(window[0] - hp.V), abs(window[1] - hp.V))
        k_rel = max(1, math.ceil(max(r * r - hp.m * hp.m, 0.0) / (2.0 * abs(hp.B))))
        width = math.sqrt(2.0 * k_rel + 3.0) / math.sqrt(abs(hp.B))
        return t_edge + 2.0 * width + 1.0

    d_minus, d_plus = reach(minus), reach(plus)
    L = max(d_minus, d_plus) + margin + 1.0

    win_span = max(abs(window[0]), abs(window[1])) + 2.0
    z_hi = win_span
    z_lo = win_span
    # the + half-space is probed where zeta/B+ > 0, the - half where zeta/B- < 0
    if plus.B > 0:
        z_hi = max(z_hi, abs(plus.B) * d_plus + 1.0)
    else:
        z_lo = max(z_lo, abs(plus.B) * d_plus + 1.0)
    if minus.B > 0:
        z_lo = max(z_lo, abs(minus.B) * d_minus + 1.0)
    else:
        z_hi = max(z_hi, abs(minus.B) * d_minus + 1.0)

    # zone-edge safety: w = zeta - A2 must stay below 2/h with a buffer;
    # -A2 is only large on a side where x*B(x) < 0 (same-sign geometries)
    max_neg_a2 = max(
        minus.B * L if minus.B > 0 else 0.0,
        -plus.B * L if plus.B < 0 else 0.0,
    ) + max(abs(minus.B), abs(plus.B)) * t_edge
    w_max = max(z_hi, z_lo) + max_neg_a2
    h_max = 2.0 / (w_max + 5.0)
    # resolve the magnetic length by >= 10 points as well
    h_max = min(h_max, 0.1 / math.sqrt(max(abs(minus.B), abs(plus.B))))
    N = int(math.ceil(2.0 * L / h_max)) + 1
    N = min(max(N, 64), points_budget)

    grid = Grid1D(L=L, N=N)
    samples = max(24, int(math.ceil((z_hi + z_lo) / 0.5)) + 1)
    cfg = SweepConfig(
        zeta_min=-z_lo, zeta_max=z_hi, samples=samples, window=window, refine_tol=0.15
    )
    return grid, cfg, SpuriousFilter(margin=margin)


def branch_points(branches: list[Branch]):
    """Flatten branches to (branch_id, zeta, mu, overlap, boundary_mass) rows."""
    rows = []
    for bid, b in enumerate(branches):
        for z, mu, ov, bm in zip(b.zetas, b.mus, b.overlaps, b.boundary_masses):
            rows.append((bid, z, mu, ov, bm))
    return rows
