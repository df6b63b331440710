"""Discretized fiber operator and windowed Hermitian eigensolver.

The fiber operator at transverse momentum zeta is

    Hhat(zeta) = D_x sigma_1 + (zeta - A2(x)) sigma_2 + m(x) sigma_3 + V(x) sigma_0

on [-L, L].  D_x is discretized with a forward/backward adjoint stencil
pair (a 1D staggered scheme): the (1,2) spinor block applies the forward
difference, the (2,1) block its exact adjoint.  This keeps the matrix
Hermitian bit-exactly and leaves the kinetic symbol 2 sin(k h / 2) / h
without a second zero in the Brillouin zone, so no doubled branches
appear at small momentum transfer.

Every off-diagonal entry is imaginary and the hopping graph
down_0 - up_0 - down_1 - up_1 - ... is a path, so ordering each site as
(down_i, up_i) and multiplying the down components by -i turns the
matrix into a real symmetric tridiagonal (Jacobi) matrix:

    d = (V - m, V + m) per site,
    e = 1/h - (zeta - A2(x_i)) on site,  -1/h between sites.

zeta enters only the on-site entries of e, so H(zeta) = T0 - zeta S.
Since dHhat/dzeta = sigma_2, each eigenvalue's slope is the
Hellmann-Feynman expectation d mu/d zeta = <psi, sigma_2 psi> =
-2 sum_i t_2i t_2i+1 in Jacobi form; |d mu/d zeta| <= 1 because
||sigma_2|| = 1.
`FiberFamily` holds that pencil: e(zeta) = e0 - zeta s, with s the
on-site indicator, so dJ/dzeta is exact.
Every windowed solve is one seed and one certification loop: Rayleigh-quotient
iteration (one ?gtsv call on a stacked tridiagonal solves every shift of a
step), each step ending in one Rayleigh-Ritz step that also orthonormalizes
the block (a Cholesky QR) and one certificate, which returns what the block
missed, if anything.  The first block that misses nothing is returned; when
none does, the solve raises what the last one missed.  The cold seed is loose
LAPACK bisection (?stebz) and inverse iteration (?stein), whose rows are
checked as they are first (step 0).  A solve may instead start warm from the
block of a nearby zeta, at shifts predicted by its slopes; a warm attempt that
the loop cannot certify falls through to the cold seed.  When states crossed
a window edge, the block is first mapped onto the window by Sturm index: the
rows that left are dropped, and each state that entered is seeded by bisection
on the strip of width |step| inside the edge it crossed (Weyl's inequality,
with ||dJ/dzeta|| = 1).
A solve returns one Eigenpairs block whose rows hold the real Jacobi
vectors t; <psi, psi'> = t . t' exactly for the interleaved complex psi.
The x-cut at +-L is Dirichlet: the stencil stops at the last site.

Known lattice artifact (recorded in the decisions ledger): the combined
symbol of forward difference plus a constant transverse term w = zeta -
A2(x) develops a spurious zone-edge zero when w is near +2/h.  States
born from that resonance oscillate at the lattice momentum edge and are
detectable by `zone_edge_fraction`; sweep geometry is chosen so they are
either absent or land in the boundary strip of the spurious filter.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .errors import SolverError
from .profiles import ProfileSet, evaluate, magnetic_potential

__all__ = [
    "Grid1D",
    "FiberMatrix",
    "FiberFamily",
    "Eigenpairs",
    "SpuriousFilter",
    "assemble_fiber",
    "eig_window",
    "filter_spurious",
    "boundary_mass",
    "zone_edge_fraction",
    "check_residuals",
    "count_eigenvalues",
    "slopes_of",
]

# ?stebz tolerance.  Rayleigh-Ritz supplies every digit of mu, so the bisection
# only has to seed ?stein (the cold seed and the warm start's entering states).
# Of 1e-4 to 1e-3, 1e-3 was the fastest on the fig2 and random benchmark sweeps;
# the vectors' residuals grow with it (median 7e-15 at 1e-4, 2e-11 at 1e-3),
# still inside the contract.  On those sweeps' passes at seed 11, the cold seed
# serves 1 of 98 and 13 of 619 solves, each certified at step 0; a cold block
# that misses a check goes on through the certification loop.
_BISECT_TOL = 1e-3
# Most steps of the certification loop.  On the random benchmark pass (seed 11),
# of the 579 nonempty solves that get a guess, 187 are certified after one step,
# 265 after two and 124 after three; a cap of 2 sends those 124 to the cold seed
# as well, and a cap of 4 serves none more than 3 (the 3 left over fall back
# either way).
_WARM_STEPS = 3
# The entries of e that sit on a site, where zeta enters: s is 1 there and 0 between sites.
_ON_SITE = slice(0, None, 2)


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of N sites on [-L, L], both ends included."""

    L: float
    N: int

    def __post_init__(self):
        if self.N < 16:
            raise ValueError("N must be >= 16")
        if self.L <= 0:
            raise ValueError("L must be positive")
        if not self.h >= sys.float_info.min:  # the hop 1/h must be finite
            raise ValueError(f"L = {self.L!r} is too small for N = {self.N}: the spacing 2L/(N-1) underflows")

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.N - 1)

    @cached_property
    def x(self) -> np.ndarray:
        x = -self.L + self.h * np.arange(self.N)
        x.flags.writeable = False  # one array shared by every caller
        return x


@dataclass(eq=False)
class FiberMatrix:
    """Hermitian 2N x 2N discretization of Hhat(zeta), held as the real Jacobi pair
    (d, e) of the module docstring."""

    grid: Grid1D
    d: np.ndarray
    e: np.ndarray


@dataclass(frozen=True, eq=False)
class FiberFamily:
    """Hhat(zeta) on one grid as the pencil e(zeta) = e0 - zeta s: `of` evaluates the
    profiles once, `at(zeta)` builds e.  s is the on-site indicator (1 on site, 0
    between sites), so dJ/dzeta = tridiag(-s, 0, -s) exactly."""

    grid: Grid1D
    d: np.ndarray
    e0: np.ndarray
    s: np.ndarray

    @classmethod
    def of(cls, grid: Grid1D, ps: ProfileSet) -> "FiberFamily":
        m, V = evaluate(ps.m, grid.x), evaluate(ps.V, grid.x)
        d = np.column_stack([V - m, V + m]).ravel()  # (V - m, V + m) per site
        # forward difference plus transverse term -(zeta - A2) on site; its hop between sites
        e0 = np.full(2 * grid.N - 1, -1.0 / grid.h)
        e0[_ON_SITE] = 1.0 / grid.h + magnetic_potential(ps, grid.x)
        s = np.zeros_like(e0)
        s[_ON_SITE] = 1.0
        return cls(grid=grid, d=d, e0=e0, s=s)

    def at(self, zeta: float) -> FiberMatrix:
        return FiberMatrix(grid=self.grid, d=self.d, e=self.e0 - zeta * self.s)


def assemble_fiber(grid: Grid1D, ps: ProfileSet, zeta: float) -> FiberMatrix:
    """Assemble the fiber matrix in Jacobi form, O(N); Hermitian by construction."""
    return FiberFamily.of(grid, ps).at(zeta)


@dataclass(frozen=True, eq=False)
class Eigenpairs:
    """A block of k eigenpairs in rows, sorted by mu: eigenvalues mu (k,), real Jacobi
    vectors t (k, 2N), verified residuals ||H psi - mu psi|| (k,) and slopes d mu/d zeta (k,);
    `mass` holds each row's boundary-strip mass once `filter_spurious` has kept the row;
    `warm` is whether `eig_window`'s warm seed served the solve behind the block, and
    `steps` how many steps of its certification loop the block took (0 for a cold seed
    certified as it came, and for the empty window).  A block from `eig_window` holds
    as many rows as ?stebz counts in (lo, hi], each with mu in the closed [lo, hi].

    An int index gives one pair (the same fields, one row each); a mask or an
    index array gives a sub-block.  The interleaved spinor of a row t is
    psi_up,i = t_2i+1, psi_down,i = -i t_2i.
    """

    mu: np.ndarray
    t: np.ndarray = field(repr=False)
    residual: np.ndarray
    slope: np.ndarray
    mass: np.ndarray | None = None
    warm: bool = False
    steps: int = 0

    def __len__(self) -> int:
        return len(self.mu)

    def __getitem__(self, i) -> "Eigenpairs":  # iterating the block walks its rows
        mass = None if self.mass is None else self.mass[i]
        return replace(self, mu=self.mu[i], t=self.t[i], residual=self.residual[i], slope=self.slope[i], mass=mass)


@dataclass(frozen=True)
class SpuriousFilter:
    """Boundary-artifact filter: drop states with too much mass near |x| = L."""

    margin: float
    threshold: float = 0.3

    def __post_init__(self):
        if not self.margin > 0:
            raise ValueError("margin must be positive")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")

    @classmethod
    def default(cls, grid: Grid1D) -> "SpuriousFilter":
        return cls(margin=grid.L / 8.0)


class _RitzPairs(NamedTuple):  # Ritz pairs that missed the residual contract: no slopes
    mu: np.ndarray
    t: np.ndarray


def _residual_miss(lam: np.ndarray, res: np.ndarray) -> str | None:
    """What the first pair with ||H v - lambda v|| > 1e-8 (1 + |lambda|) misses, or None."""
    bad = np.flatnonzero(res > 1e-8 * (1.0 + np.abs(lam)))
    if not bad.size:
        return None
    i = bad[0]
    return f"residual {res[i]:.3e} exceeds contract at eigenvalue {lam[i]:.6g}"


def _slope_miss(lam: np.ndarray, slopes: np.ndarray) -> str | None:
    """What the first pair with |d mu/d zeta| > 1 + 1e-12 misses, or None.

    <psi, sigma_2 psi> is bounded by 1 for a normalized psi, so a breach
    means a badly normalized vector or broken slope arithmetic.
    """
    bad = np.flatnonzero(np.abs(slopes) > 1.0 + 1e-12)
    if not bad.size:
        return None
    i = bad[0]
    return f"slope {slopes[i]:.6g} exceeds the Lipschitz bound 1 at eigenvalue {lam[i]:.6g}"


def check_residuals(lam: np.ndarray, res: np.ndarray) -> None:
    """Raise SolverError unless every pair meets ||H v - lambda v|| <= 1e-8 (1 + |lambda|)."""
    if (missed := _residual_miss(lam, res)) is not None:
        raise SolverError(missed)


def _jacobi_times(d: np.ndarray, e: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The rows J v of the rows v of V, for the Jacobi matrix J = tridiag(e, d, e), in O(n) per row."""
    JV = d * V
    JV[:, :-1] += e * V[:, 1:]
    JV[:, 1:] += e * V[:, :-1]
    return JV


def slopes_of(V: np.ndarray) -> np.ndarray:
    """Hellmann-Feynman slopes <psi, sigma_2 psi> = -2 sum_i t_2i t_2i+1 of the Jacobi vectors t in V's rows."""
    return -2.0 * np.sum(V[..., 0::2] * V[..., 1::2], axis=-1)


def count_eigenvalues(d: np.ndarray, e: np.ndarray, lo: float, hi: float) -> int:
    """Exact Sturm count of tridiag(e, d, e)'s eigenvalues in (lo, hi]: ?stebz counts by
    LDL^T pivot signs, exact at any tolerance, so the loose 1e3 skips its bisection."""
    return int(lapack.dstebz(d, e, 1, lo, hi, 0, 0, 1e3, "B")[0])


def _certified_block(d: np.ndarray, e: np.ndarray, V: np.ndarray, lo: float, hi: float):
    """Rayleigh-Ritz on the rows of V: all its Ritz pairs, sorted by mu, and what
    the first check they fail misses, (block, missed); missed is None for a
    certified block.

    One ?sygvd call on the pencil (V J V^T, V V^T) is a Cholesky QR inside
    Rayleigh-Ritz: L L^T = V V^T, eigh(L^-1 V J V^T L^-T) = (mu, Y), Q = L^-T Y,
    and the Ritz vectors are the rows of Q^T V.  The checks, in order: ?sygvd
    succeeds (info > k means V V^T is not positive definite; the block is
    None), every pair meets the residual contract, the rows t meet
    max |t t^T - I| <= 1e-12, every pair meets the slope bound, and every mu
    lies in [lo, hi].  A block that misses the residual contract is the bare
    `_RitzPairs` (mu, t): neither the orthonormality product nor the slopes
    are computed for it.
    """
    JV = _jacobi_times(d, e, V)
    # the wrapper rejects an empty pencil
    mus, Q, info = lapack.dsygvd(JV @ V.T, V @ V.T, uplo="L") if len(V) else (np.empty(0), V[:, :0], 0)
    if info:
        return None, f"the Rayleigh-Ritz step failed: LAPACK info {info}"
    V, JV = Q.T @ V, Q.T @ JV
    JV -= mus[:, None] * V
    res = np.sqrt(np.einsum("ij,ij->i", JV, JV))
    if (missed := _residual_miss(mus, res)) is not None:
        return _RitzPairs(mus, V), missed
    off = np.max(np.abs(V @ V.T - np.eye(len(mus))), initial=0.0)
    block = Eigenpairs(mu=mus, t=V, residual=res, slope=slopes_of(V))
    if not off <= 1e-12:
        return block, f"the eigenvector block is {off:.3e} off orthonormal"
    if (missed := _slope_miss(mus, block.slope)) is not None:
        return block, missed
    outside = np.flatnonzero(~((lo <= mus) & (mus <= hi)))
    return block, f"a Ritz value of the block, {mus[outside[0]]:.6g}, lies outside the window" if outside.size else None


def _warm_start(A: FiberMatrix, lo: float, hi: float, guess: Eigenpairs, step: float, c: int):
    """The warm seed: the rows of `guess`, the window block at z_prev = zeta - step,
    and their shifts predicted by the slopes; when the window's count c at zeta
    differs from len(guess), mapped by Sturm index onto the window, with the states
    that entered seeded (see `eig_window`).  None when the guess is not the whole
    window block at z_prev or a seed fails."""
    V, shifts = guess.t, guess.mu + step * guess.slope  # Hellmann-Feynman prediction
    k = len(V)
    if c == k:
        return V, shifts
    e_prev = A.e.copy()
    e_prev[_ON_SITE] += step  # J(z_prev) = J(z) + step S
    if count_eigenvalues(A.d, e_prev, lo, hi) != k:
        return None
    # V holds eigenvalues a_old .. a_old + k - 1 of J(z_prev), the window a_new .. a_new + c - 1 of J(z)
    a_old, a_new = count_eigenvalues(A.d, e_prev, -np.inf, lo), count_eigenvalues(A.d, A.e, -np.inf, lo)
    r0 = min(max(a_new - a_old, 0), k)
    r1 = max(min(a_new + c - a_old, k), r0)
    n_lo = max(min(a_old, a_new + c) - a_new, 0)
    V, shifts = V[r0:r1], shifts[r0:r1]
    # by Weyl, an index that entered through lo lies in (lo, lo + |step|], one through hi in (hi - |step|, hi]
    reach = abs(step)
    seeds, blocks = [], []
    for need, a, b, sign in ((n_lo, lo, min(lo + reach, hi), 1.0), (c - n_lo - len(V), max(hi - reach, lo), hi, -1.0)):
        if need:
            m, w, iblock, isplit, info = lapack.dstebz(A.d, A.e, 1, a, b, 0, 0, _BISECT_TOL, "B")
            if info or m < need:
                return None
            pick = np.argsort(sign * w[:m], kind="stable")[:need]  # the lowest (highest) by value
            seeds.append(w[pick])
            blocks.append(iblock[pick])
    if not seeds:
        return V, shifts
    w, blocks = np.concatenate(seeds), np.concatenate(blocks)
    order = np.lexsort((w, blocks))  # grouped by split-off block, ascending in each, as ?stein needs
    iblock[: len(w)] = blocks[order]
    T, info = lapack.dstein(A.d, A.e, w[order], iblock, isplit)
    return None if info else (np.vstack([V, T.T]), np.concatenate([shifts, w[order]]))


def _rayleigh_quotient(A: FiberMatrix, lo: float, hi: float, V: np.ndarray, shifts: np.ndarray, first: int):
    """The certification loop of `eig_window` from the seed rows V at `shifts`, from
    step `first` (step 0 checks the rows V as they are)."""
    c, n = V.shape
    off_diag = np.zeros((c, n))
    off_diag[:, :-1] = A.e  # zero couplings between the c blocks
    off_diag = off_diag.ravel()[:-1]
    for steps in range(first, _WARM_STEPS + 1):
        if steps:
            # every (J - shift_i) x_i = v_i at once, as one block-diagonal tridiagonal; a
            # shift on an eigenvalue (a zero pivot, or an overflow to inf or NaN) is moved
            # by 1e-10 (1 + |shift|), far inside the residual contract, and tried once more
            for moved in (shifts, shifts + 1e-10 * (1.0 + np.abs(shifts))):
                *_, X, info = lapack.dgtsv(off_diag, (A.d - moved[:, None]).ravel(), off_diag, V.reshape(-1, 1))
                X = X.reshape(c, n)
                scale = np.max(np.abs(X), axis=1, keepdims=True)
                if not info and np.isfinite(scale).all():
                    break
            else:
                what = f"LAPACK info {info}" if info else "a non-finite row"
                raise SolverError(f"inverse iteration failed on [{lo:.6g}, {hi:.6g}]: {what}")
            V = X / scale
        pairs, missed = _certified_block(A.d, A.e, V, lo, hi)
        if missed is None:
            return replace(pairs, steps=steps)
        if pairs is not None:
            # all c Ritz pairs: one outside the window may come back in at the next step
            V, shifts = pairs.t, pairs.mu
        elif steps:
            break  # at step 0 the seed's own rows go on at its shifts
    raise SolverError(f"no block on [{lo:.6g}, {hi:.6g}] was certified: {missed}")


def eig_window(
    A: FiberMatrix, window: tuple[float, float], guess: Eigenpairs | None = None, step: float = 0.0
) -> Eigenpairs:
    """The block of all eigenpairs in the window, sorted by mu, residual-verified: as
    many as ?stebz counts in (lo, hi], each certified with mu in [lo, hi].

    One seed, then one certification loop on the real Jacobi matrix J:
    Rayleigh-quotient iteration (Parlett, The Symmetric Eigenvalue Problem,
    ch. 4) for at most _WARM_STEPS steps.  Each step solves
    (J - shift_i) x_i = v_i for every row v_i at once (one ?gtsv call:
    partial-pivoting elimination and solve of the stacked block-diagonal
    tridiagonal), rescales the rows and ends in one Rayleigh-Ritz step on
    the whole block that is also a Cholesky QR; a zero pivot or a non-finite
    entry (a shift on an eigenvalue) redoes the step once at shifts moved by
    1e-10 (1 + |shift|).  A seed holds exactly the window's count of rows.
    Each block is judged once, by `_certified_block`, which returns the
    first check it misses: a failed Cholesky factor, the residual contract,
    max |T T^T - I| <= 1e-12 (column norms alone would leave nearly parallel
    vectors), the slope bound, or a Ritz value outside [lo, hi].  The first
    block that misses none is returned with its `steps`; otherwise its Ritz
    pairs are the next step's shifts and rows.  A failed Cholesky factor
    after a step, a step that fails at the moved shifts too, or _WARM_STEPS
    steps end the loop with one SolverError that names the window and what
    the last block missed.

    The warm seed.  With a `guess`, the unfiltered block of the same family
    at a zeta `step` away, the window's exact Sturm count c at zeta decides:
    c = 0 returns the empty block after 0 steps.  When c differs from
    k = len(guess), the guess is mapped by global index, with
    J(zeta - step) = J(zeta) + step S: Sturm counts give a_old and a_new, the
    eigenvalues <= lo at zeta - step and at zeta, and a third one checks that
    the window at zeta - step holds k (else the guess is not that whole
    block, and the cold seed serves the solve).  Guess row r keeps its place
    when its index a_old + r lies in [a_new, a_new + c) and is dropped
    otherwise.  An index that entered through lo lies in (lo, lo + |step|]
    and one through hi in (hi - |step|, hi], since ||S|| = 1 bounds each
    sorted eigenvalue's move by |step| (Weyl); ?stebz seeds them on that
    strip at _BISECT_TOL, the lowest (highest) by value, and ?stein gives
    their rows.  A strip that holds fewer than needed, or a failed ?stein,
    sends the solve to the cold seed.  The c rows enter the loop at step 1,
    at the shifts mu + slope * step that the Hellmann-Feynman slopes predict
    (the seeds' at their bisection values), and the block is marked `warm`.
    A warm attempt that the loop cannot certify falls through to the cold
    seed.

    The cold seed: bisection (?stebz) only to _BISECT_TOL, whose exact Sturm
    count still proves the window complete, and inverse iteration (?stein)
    for the rows T.  They enter the loop at step 0, the Rayleigh-Ritz step
    and certificate of T alone, which gives mu to working precision even in
    clusters narrower than the bisection tolerance; a failed Cholesky factor
    there goes on to step 1 from T at the ?stebz values, and a failed ?stein
    enters at step 1 the same way.  A cold seed that the loop cannot certify
    is a SolverError.
    """
    lo, hi = window
    if not lo < hi:
        raise ValueError("window lo must be < hi")
    if guess is not None:
        c = count_eigenvalues(A.d, A.e, lo, hi)
        if not c:
            return replace(guess[:0], warm=True, steps=0)
        if (start := _warm_start(A, lo, hi, guess, step, c)) is not None:
            try:
                return replace(_rayleigh_quotient(A, lo, hi, *start, first=1), warm=True)
            except SolverError:
                pass  # the cold seed serves the solve
    # range 1: the eigenvalues in (lo, hi]; order "B": by split-off block, as ?stein needs
    m, w, iblock, isplit, info = lapack.dstebz(A.d, A.e, 1, lo, hi, 0, 0, _BISECT_TOL, "B")
    if info:
        raise SolverError(f"tridiagonal eigensolve failed on [{lo:.6g}, {hi:.6g}]: LAPACK info {info}")
    T, info = lapack.dstein(A.d, A.e, w[:m], iblock, isplit)
    return _rayleigh_quotient(A, lo, hi, T.T, w[:m], first=1 if info else 0)


def boundary_mass(v: np.ndarray, grid: Grid1D, margin: float):
    """Probability mass in the strip |x| > L - margin of one fiber state, or of each in a stack.

    The last axis of v holds the interleaved spinor psi or the Jacobi vector t:
    two components per site either way, in swapped order and phase.
    """
    # per site first, so psi and t give the same bits; `compress` keeps the rows
    # contiguous, so a stack's masses have the bits of one state's
    dens = np.abs(v[..., 0::2]) ** 2 + np.abs(v[..., 1::2]) ** 2
    strip = np.abs(grid.x) > grid.L - margin
    return dens.compress(strip, axis=-1).sum(axis=-1) / dens.sum(axis=-1)


def zone_edge_fraction(psi: np.ndarray, width: int = 2):
    """Fraction of spectral mass near the lattice momentum edge.

    psi is one state or a stack of states; its last axis lists the
    x-sites, `width` components each (2 for an interleaved fiber spinor).
    Smooth states score ~ 0; states born from the w ~ 2/h lattice
    resonance oscillate site-to-site and score ~ 1.  Used as a
    diagnostic for discretization artifacts that are not
    boundary-localized.
    """
    comps = psi.reshape(*psi.shape[:-1], psi.shape[-1] // width, width)
    smooth = np.sum(np.abs(comps[..., 1:, :] + comps[..., :-1, :]) ** 2, axis=(-2, -1)) / 4.0
    total = np.sum(np.abs(comps) ** 2, axis=(-2, -1))
    return 1.0 - smooth / total


def filter_spurious(pairs: Eigenpairs, grid: Grid1D, f: SpuriousFilter) -> Eigenpairs:
    """The rows of `pairs` whose boundary-strip mass is at most the threshold, with those masses."""
    mass = boundary_mass(pairs.t, grid, f.margin)
    return replace(pairs, mass=mass)[mass <= f.threshold]
