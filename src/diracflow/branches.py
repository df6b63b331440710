"""Sweep zeta and track eigenvalue branches by eigenvector continuity.

Tracking matches a track to a retained eigenpair at the next zeta sample
when their eigenvectors overlap by at least 0.8 in absolute value.  The
track vectors come from one solve and the new ones from another, so each
set is orthonormal and every row and column of the overlap matrix has a
sum of squares of at most 1: an entry above 1/sqrt(2) is the only such
entry in its row and in its column, so the entries that clear the
threshold already form a one-to-one matching (the threshold must stay
above 1/sqrt(2) for this to hold).  The matrix depends on zeta only
through zeta * sigma_2, so every eigenpair carries its exact slope
d mu/d zeta = <psi, sigma_2 psi> (Hellmann-Feynman) and branches are
1-Lipschitz in zeta.  A step is bisected until every matched overlap
clears 0.8 and the step is smooth: when every track and every new pair
is matched, each new value must lie within refine_tol of the linear
prediction mu + slope * step from the previous sample; a step on which a
track ends or starts instead bounds the motion |delta mu| itself by
refine_tol.  The Lipschitz bound keeps the prediction error below
2 * step, so bisection always terminates; a step still unmatched at the
1e-4 floor is a TrackingError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bulk import HalfSpaceParams
from .errors import TrackingError
from .fiber import (
    EigenPair,
    FiberFamily,
    Grid1D,
    SpuriousFilter,
    assemble_fiber,  # not called here: bench/tracing.py wraps this name
    boundary_mass,  # likewise
    eig_window,
    filter_spurious,
)
from .profiles import ProfileSet, SwitchProfile

__all__ = [
    "SweepConfig",
    "Branch",
    "sweep_branches",
    "validate_window",
    "autoscale",
]

_POINTS_BUDGET = 4000  # largest grid autoscale picks
_OVERLAP_THRESHOLD = 0.8  # smallest |<psi_prev, psi_new>| that matches two samples
_BISECT_FLOOR = 1e-4  # smallest zeta step bisection takes


@dataclass(frozen=True)
class SweepConfig:
    """Sweep range, initial sampling density, and the step tolerance refine_tol."""

    zeta_min: float
    zeta_max: float
    samples: int
    window: tuple[float, float]
    refine_tol: float = 0.05

    def __post_init__(self):
        if not self.zeta_min < self.zeta_max:
            raise ValueError("zeta_min must be < zeta_max")
        if self.samples < 2:
            raise ValueError("samples must be >= 2")
        if not self.window[0] < self.window[1]:
            raise ValueError("window lo must be < hi")
        # refine_tol <= 0 would bisect every step to the floor
        if not self.refine_tol > 0:
            raise ValueError("refine_tol must be positive")


@dataclass
class Branch:
    """One tracked eigenvalue curve with per-sample diagnostics."""

    zetas: list[float] = field(default_factory=list)
    mus: list[float] = field(default_factory=list)
    slopes: list[float] = field(default_factory=list)  # d mu/d zeta per sample
    overlaps: list[float] = field(default_factory=list)
    boundary_masses: list[float] = field(default_factory=list)
    clipped: bool = False

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
    fiber: FiberFamily, zeta: float, window: tuple[float, float], f: SpuriousFilter
) -> list[tuple[EigenPair, float]]:
    return filter_spurious(eig_window(fiber.at(zeta), window), fiber.grid, f)


def sweep_branches(
    grid: Grid1D,
    ps: ProfileSet,
    cfg: SweepConfig,
    f: SpuriousFilter,
    prefetch: dict[float, list[tuple[EigenPair, float]]] | None = None,
    stats: dict | None = None,
) -> list[Branch]:
    """Track all branches of the filtered window spectrum over the zeta sweep.

    `prefetch` seeds the solve cache with `_solve_retained` results (the
    CLI fans the initial samples out to a worker pool); the result is
    identical either way because matching is a sequential reduction in
    zeta order.  `stats`, when given, is filled with the sweep telemetry:
    `solves` (fiber solves, prefetched ones included), `bisections` by
    reason (`motion`: a matched value left refine_tol; `stranded`: a track
    went unmatched without exiting, which takes precedence), and the
    smallest matched overlap `min_overlap` with the zeta where it occurred
    (`min_overlap_zeta`, None when nothing was matched).
    """
    lo, hi = cfg.window
    targets = list(np.linspace(cfg.zeta_min, cfg.zeta_max, cfg.samples))
    fiber = FiberFamily.of(grid, ps)
    cache: dict[float, list[tuple[EigenPair, float]]] = dict(prefetch) if prefetch else {}
    if stats is None:
        stats = {}
    stats.update(
        solves=len(cache),
        bisections={"motion": 0, "stranded": 0},
        min_overlap=1.0,
        min_overlap_zeta=None,
    )

    def solve(z: float) -> list[tuple[EigenPair, float]]:
        if z not in cache:
            cache[z] = _solve_retained(fiber, z, cfg.window, f)
            stats["solves"] += 1
        return cache[z]

    def exits(b: Branch, step: float) -> bool:
        # legitimate ways for a track to go unmatched: through the energy
        # window edge (the Lipschitz bound limits travel to one step) or
        # into the boundary filter strip
        edge = min(b.mus[-1] - lo, hi - b.mus[-1]) <= step + 10 * _BISECT_FLOOR
        return edge or b.boundary_masses[-1] >= 0.5 * f.threshold

    def append(t: _Track, z: float, kept: tuple[EigenPair, float], overlap: float) -> None:
        (p, mass), b = kept, t.branch
        b.zetas.append(z)
        b.mus.append(p.mu)
        b.slopes.append(p.slope)
        b.overlaps.append(overlap)
        b.boundary_masses.append(mass)
        t.psi = p.psi

    def start(z: float, kept: tuple[EigenPair, float], clipped: bool) -> _Track:
        t = _Track(Branch(clipped=clipped), kept[0].psi)
        append(t, z, kept, 1.0)
        return t

    done: list[Branch] = []
    z_prev = targets[0]
    active = [start(z_prev, k, False) for k in solve(z_prev)]

    queue = targets[1:]
    while queue:
        z = queue[0]
        kept = solve(z)
        pairs = [p for p, _ in kept]
        step = z - z_prev

        # overlaps above the threshold are unique in their row and column
        O = np.abs([[np.vdot(t.psi, p.psi) for p in pairs] for t in active])
        O = O.reshape(len(active), len(pairs))  # 2-D when either side is empty
        matched = [(i, j, O[i, j]) for i, j in zip(*np.nonzero(O >= _OVERLAP_THRESHOLD))]
        matched_old = {i for i, _, _ in matched}
        unmatched = [i for i in range(len(active)) if i not in matched_old]
        # predict from the slope only where no track ends or starts; there
        # the plain motion test keeps exits and entries on fine steps
        lead = step if len(matched) == len(active) == len(pairs) else 0.0
        jumped = any(
            abs(pairs[j].mu - active[i].branch.mus[-1] - active[i].branch.slopes[-1] * lead) > cfg.refine_tol
            for i, j, _ in matched
        )
        stranded = [i for i in unmatched if not exits(active[i].branch, step)]
        if (jumped or stranded) and step > _BISECT_FLOOR:
            stats["bisections"]["stranded" if stranded else "motion"] += 1
            queue.insert(0, 0.5 * (z_prev + z))
            continue
        if stranded:
            # bisection bottomed out
            best = max(O[i].max(initial=0.0) for i in unmatched)
            raise TrackingError(
                f"tracking ambiguity at zeta = {z:.6g}: best overlap "
                f"{best:.3f} < {_OVERLAP_THRESHOLD} with step at bisection floor",
                zeta=z,
            )

        # commit the step
        queue.pop(0)
        cache.pop(z_prev, None)
        new_active: list[_Track] = []
        for i, j, ov in matched:
            append(active[i], z, kept[j], float(ov))
            new_active.append(active[i])
            if ov < stats["min_overlap"]:
                stats["min_overlap"], stats["min_overlap_zeta"] = float(ov), float(z)
        for i in unmatched:
            active[i].branch.clipped = True
            done.append(active[i].branch)
        used_new = {j for _, j, _ in matched}
        # a branch entering mid-sweep through the window edge
        new_active += [start(z, k, True) for j, k in enumerate(kept) if j not in used_new]
        active = new_active
        z_prev = z

    done.extend(t.branch for t in active)
    done.sort(key=lambda b: (b.zetas[0], b.mus[0]))
    return done


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
) -> tuple[Grid1D, SweepConfig, SpuriousFilter]:
    """Choose grid and sweep geometry for an interface scenario whose walls
    switch across the default transition of `SwitchProfile`.

    Three constraints drive the choice:
      * branches must converge to their bulk limits before the sweep ends,
        so each end extends past |B| * (guiding-center distance) for the
        half-space it probes;
      * the domain must contain those guiding centers plus the magnetic
        localization length, with room for the boundary filter strip;
      * the staggered stencil's zone-edge resonance at zeta - A2 ~ 2/h
        must stay out of the retained region, which bounds h from above.
    """
    t_edge = max(abs(SwitchProfile.t_lo), abs(SwitchProfile.t_hi))
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
    N = min(max(N, 64), _POINTS_BUDGET)

    grid = Grid1D(L=L, N=N)
    samples = max(24, int(math.ceil((z_hi + z_lo) / 0.5)) + 1)
    cfg = SweepConfig(
        zeta_min=-z_lo, zeta_max=z_hi, samples=samples, window=window, refine_tol=0.15
    )
    return grid, cfg, SpuriousFilter(margin=margin)


def branch_points(branches: list[Branch]):
    """Flatten branches to (branch_id, zeta, mu, slope, overlap, boundary_mass) rows."""
    rows = []
    for bid, b in enumerate(branches):
        for z, mu, sl, ov, bm in zip(b.zetas, b.mus, b.slopes, b.overlaps, b.boundary_masses, strict=True):
            rows.append((bid, z, mu, sl, ov, bm))
    return rows
