"""Sweep zeta and track eigenvalue branches by eigenvector continuity.

Each fiber solve is one `Eigenpairs` block from `eig_window`, cached as
the warm start of later solves; a step aligns its degenerate clusters
with the tracks, `filter_spurious` keeps the rows outside the boundary
strip, and the tracks match those.  The active tracks are Branch objects
with T_prev, the matrix of their last Jacobi vectors.  A track matches a retained pair at the next zeta sample
when their vectors overlap by at least 0.8 in absolute value; the
overlaps are one product |T_prev T_new^T|, which equals |<psi, psi'>|.
The track vectors come from one solve and the new ones from another, so
each set is orthonormal and every row and column of the overlap matrix
has a sum of squares of at most 1: an entry above 1/sqrt(2) is the only
such entry in its row and in its column, so the entries that clear the
threshold already form a one-to-one matching (the threshold must stay
above 1/sqrt(2) for this to hold).

Inside a cluster of pairs degenerate to rounding (mu within 1e-10
(1 + |mu|) of a neighbour) every orthonormal basis is a valid answer, and
the solver's choice would set the overlaps and the boundary masses.  So
each cluster of the whole block is rotated onto its incoming tracks, the
tracks whose projection onto it reaches the threshold (at most one per
member), before the spurious filter judges the rows and the tracks match:
with C = V S U^T the SVD of the members-by-tracks overlap block, the
rotation V diag(U^T, I) is the polar factor of that block (orthogonal
Procrustes).  The rotated overlaps U S U^T are symmetric and the other
members are orthogonal to those tracks; a change of basis G maps V to
G V, so the result, and with it the matching, does not depend on the
basis.  Each rotated vector gets its slope and Rayleigh quotient anew,
and the filter its boundary mass; a kept state degenerate with a filtered
one is rotated with it.

The matrix depends on zeta only through zeta * sigma_2, so every
eigenpair carries its exact slope d mu/d zeta = <psi, sigma_2 psi>
(Hellmann-Feynman) and branches are 1-Lipschitz in zeta.  A step is
bisected until every matched overlap clears 0.8 and the step is smooth:
when every track and every new pair is matched, each new value must lie
within refine_tol of the linear prediction mu + slope * step from the
previous sample; a step on which a track ends or starts instead bounds
the motion |delta mu| itself by refine_tol.  The Lipschitz bound keeps
the prediction error below 2 * step, so bisection always terminates; a
step still unmatched at the 1e-4 floor is a TrackingError.

The first sample is one more step, from no tracks: every retained state
enters as a new track, and the step commits at z = z_prev.  Every solve
after the first is handed a warm start (`eig_window`'s
`guess`): the block of the committed sample z_prev as the solver gave
it, with step = z - z_prev.  A bisection midpoint starts from z_prev as
well: it lies as near to z_prev as to the far sample, and
z_prev holds the states the tracks end on, while the far sample is the
one that failed to match them.  On the presets and the
benchmark sweeps the warm start changed no count, sample or match.  A
warm block stops at the first step that meets the cold pass's residual
contract, so slopes, overlaps and boundary masses move within what that
contract allows; inside a degenerate cluster the alignment, not the
solver's basis, sets them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bulk import HalfSpaceParams
from .errors import BudgetError, TrackingError
from .fiber import (
    Eigenpairs,
    FiberFamily,
    Grid1D,
    SpuriousFilter,
    assemble_fiber,  # not called here: bench/tracing.py wraps this name
    boundary_mass,  # not called here: bench/tracing.py wraps this name
    eig_window,
    filter_spurious,
    slopes_of,
)
from .profiles import ProfileSet, SwitchProfile

__all__ = [
    "SweepConfig",
    "Branch",
    "sweep_branches",
    "autoscale",
]

_POINTS_BUDGET = 4000  # largest fiber grid (autoscale's cap) and sweep sampling: sweep_branches refuses more
_OVERLAP_THRESHOLD = 0.8  # smallest |<psi_prev, psi_new>| that matches two samples
_BISECT_FLOOR = 1e-4  # smallest zeta step bisection takes
_CLUSTER_RTOL = 1e-10  # mu within this * (1 + |mu|) of a neighbour: degenerate to rounding
_OVERLAP_TIE = 1e-6  # overlaps this near min_overlap tie (in uniform bulk, rounding picks one)


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

    @property
    def min_overlap(self) -> float:
        return min(self.overlaps) if self.overlaps else 1.0


def _align_clusters(prev: np.ndarray, block: Eigenpairs) -> tuple[Eigenpairs, int]:
    """`block` with each degenerate cluster rotated onto its incoming tracks (rows of
    `prev`), as the module docstring sets out; and the number of clusters rotated.
    Rotated clusters go into copies: `block` is a cached solve, the warm start of
    later solves, and a bisected step aligns it again against other tracks.

    A rotated vector u_j = sum_i R_ij t_i has the Rayleigh quotient sum_i R_ij^2 mu_i
    and a residual at most sqrt(sum_i r_i^2) + the cluster's spread in mu.
    """
    mu = block.mu
    cuts = [i for i in range(1, len(mu)) if mu[i] - mu[i - 1] > _CLUSTER_RTOL * (1.0 + abs(mu[i]))]
    out, rotated = block, 0
    for a, b in zip([0, *cuts], [*cuts, len(mu)]):
        if b - a < 2:
            continue
        Tc = block.t[a:b]
        C = Tc @ prev.T
        reach = np.linalg.norm(C, axis=0)  # each track's projection onto the cluster
        incoming = np.argsort(-reach, kind="stable")[: b - a]
        incoming = incoming[reach[incoming] >= _OVERLAP_THRESHOLD]
        if not incoming.size:
            continue
        V, _, Ut = np.linalg.svd(C[:, incoming])
        R = V.copy()
        R[:, : incoming.size] = V[:, : incoming.size] @ Ut
        U = R.T @ Tc
        if out is block:
            out = replace(block, mu=mu.copy(), t=block.t.copy(), residual=block.residual.copy(),
                          slope=block.slope.copy())
        out.mu[a:b] = (R**2).T @ mu[a:b]
        out.t[a:b] = U
        out.residual[a:b] = math.hypot(*block.residual[a:b]) + mu[b - 1] - mu[a]
        out.slope[a:b] = slopes_of(U)
        rotated += 1
    return out, rotated


def sweep_branches(
    grid: Grid1D,
    ps: ProfileSet,
    cfg: SweepConfig,
    f: SpuriousFilter,
    stats: dict | None = None,
) -> list[Branch]:
    """Track all branches of the filtered window spectrum over the zeta sweep.

    Matching is a sequential reduction in zeta order.  `stats`, when
    given, is filled with the sweep telemetry: `solves` (fiber solves),
    `bisections` by reason (`motion`: a matched value left refine_tol;
    `stranded`: a track went unmatched without exiting, which takes
    precedence), the smallest matched overlap `min_overlap` and the first
    committed zeta whose matched overlap lies within _OVERLAP_TIE of it
    (`min_overlap_zeta`, None when nothing was matched), the solves'
    `max_residual`, the solves that the warm start served (`warm`), those
    of them across a change of the window's count (`warm_recounted`: a
    state entered or left the window) and how many of them took each
    number of Rayleigh-quotient steps (`warm_steps`; 0 is the empty
    window, served by its count); and, summed over the committed samples
    (every solved sample is committed once), their `cluster_rotations` and
    the states the filter `retained` and `filtered` out after them.
    BudgetError, before anything is allocated, when grid.N or cfg.samples exceeds _POINTS_BUDGET.
    """
    for what, n in (("fiber grid N", grid.N), ("sweep samples", cfg.samples)):
        if n > _POINTS_BUDGET:
            raise BudgetError(f"{what} = {n} exceeds the budget {_POINTS_BUDGET}")
    lo, hi = cfg.window
    queue = list(np.linspace(cfg.zeta_min, cfg.zeta_max, cfg.samples))
    fiber = FiberFamily.of(grid, ps)
    cache: dict[float, Eigenpairs] = {}
    if stats is None:
        stats = {}
    stats.update(
        solves=0,
        bisections={"motion": 0, "stranded": 0},
        min_overlap=1.0,
        min_overlap_zeta=None,
        retained=0,
        filtered=0,
        max_residual=0.0,
        warm=0,
        warm_recounted=0,
        warm_steps={},
        cluster_rotations=0,
    )

    def solve(z: float) -> Eigenpairs:
        if z not in cache:
            # the committed sample z_prev seeds every later solve, a bisection midpoint too
            guess = cache[z_prev] if cache else None
            cache[z] = pairs = eig_window(fiber.at(z), cfg.window, guess, z - z_prev)
            stats["solves"] += 1
            stats["max_residual"] = max(stats["max_residual"], float(np.max(pairs.residual, initial=0.0)))
            stats["warm"] += pairs.warm
            stats["warm_recounted"] += pairs.warm and len(pairs) != len(guess)
            if pairs.warm:
                stats["warm_steps"][pairs.steps] = stats["warm_steps"].get(pairs.steps, 0) + 1
        return cache[z]

    def exits(b: Branch, step: float) -> bool:
        # legitimate ways for a track to go unmatched: through the energy
        # window edge (the Lipschitz bound limits travel to one step) or
        # into the boundary filter strip
        edge = min(b.mus[-1] - lo, hi - b.mus[-1]) <= step + 10 * _BISECT_FLOOR
        return edge or b.boundary_masses[-1] >= 0.5 * f.threshold

    def append(b: Branch, z: float, kept: Eigenpairs, j: int, overlap: float) -> Branch:
        b.zetas.append(z)
        b.mus.append(float(kept.mu[j]))
        b.slopes.append(float(kept.slope[j]))
        b.overlaps.append(overlap)
        b.boundary_masses.append(float(kept.mass[j]))
        return b

    done: list[Branch] = []
    active: list[Branch] = []
    prev = np.zeros((0, 2 * grid.N))  # the first sample is a step from no tracks: every state enters
    lowest: list[tuple[float, float]] = []  # each committed zeta's smallest matched overlap
    z_prev = queue[0]
    while queue:
        z = queue[0]
        block, rotated = _align_clusters(prev, solve(z))
        kept = filter_spurious(block, grid, f)
        step = z - z_prev

        # overlaps above the threshold are unique in their row and column
        O = np.abs(prev @ kept.t.T)
        matched = [(i, j, O[i, j]) for i, j in zip(*np.nonzero(O >= _OVERLAP_THRESHOLD))]
        matched_old = {i for i, _, _ in matched}
        unmatched = [i for i in range(len(active)) if i not in matched_old]
        # predict from the slope only where no track ends or starts; there
        # the plain motion test keeps exits and entries on fine steps
        lead = step if len(matched) == len(active) == len(kept) else 0.0
        jumped = any(
            abs(kept.mu[j] - active[i].mus[-1] - active[i].slopes[-1] * lead) > cfg.refine_tol
            for i, j, _ in matched
        )
        stranded = [i for i in unmatched if not exits(active[i], step)]
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
        if z != z_prev:  # the first commit keeps its block: it seeds the next solve
            del cache[z_prev]
        stats["cluster_rotations"] += rotated
        stats["retained"] += len(kept)
        stats["filtered"] += len(block) - len(kept)
        for i, j, ov in matched:
            append(active[i], z, kept, j, float(ov))
        if matched:
            lowest.append((float(z), float(min(ov for _, _, ov in matched))))
            if lowest[-1][1] < stats["min_overlap"]:
                low = stats["min_overlap"] = lowest[-1][1]
                stats["min_overlap_zeta"] = next(zl for zl, ol in lowest if ol <= low + _OVERLAP_TIE)
        done += [active[i] for i in unmatched]
        active = [active[i] for i, _, _ in matched]
        rows = [j for _, j, _ in matched]
        # a branch entering through the window edge, or at the first sample
        entering = [j for j in range(len(kept)) if j not in rows]
        active += [append(Branch(), z, kept, j, 1.0) for j in entering]
        prev = kept.t[rows + entering]
        z_prev = z

    done.extend(active)
    done.sort(key=lambda b: (b.zetas[0], b.mus[0]))
    return done


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
