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
Windowed eigenpairs of that form come from loose LAPACK bisection
(?stebz), inverse iteration (?stein), and one Rayleigh-Ritz step that
also orthonormalizes the block (a Cholesky QR); a block that fails one of
its checks is redone with tight bisection.  A solve may instead start
warm from the block of a nearby zeta: Rayleigh-quotient iteration from
those vectors, first at shifts predicted by their slopes, replaces the
bisection (one ?gtsv call on a stacked tridiagonal solves every shift of a
step), and it stops at the first block that passes the same checks;
otherwise the cold path runs.  When states crossed a window edge, the
block is first mapped onto the window by Sturm index: the rows that left
are dropped, and each state that entered is seeded by bisection on the
strip of width |step| inside the edge it crossed (Weyl's inequality, with
||dJ/dzeta|| = 1).
A solve returns one Eigenpairs block whose rows hold the real Jacobi
vectors t; the interleaved complex psi is built from them on demand, and
<psi, psi'> = t . t' exactly.
The x-cut at +-L is Dirichlet: the stencil stops at the last site.

Known lattice artifact (recorded in the decisions ledger): the combined
symbol of forward difference plus a constant transverse term w = zeta -
A2(x) develops a spurious zone-edge zero when w is near +2/h.  States
born from that resonance oscillate at the lattice momentum edge and are
detectable by `zone_edge_fraction`; sweep geometry is chosen so they are
either absent or land in the boundary strip of the spurious filter.
"""

from __future__ import annotations

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
    "check_slopes",
    "count_eigenvalues",
    "slopes_of",
]

# ?stebz tolerances.  Rayleigh-Ritz supplies every digit of mu, so the
# bisection only has to seed ?stein (the cold passes' and the warm start's
# entering states).  Of 1e-4 to 1e-3, 1e-3 was the fastest on the fig2 and
# random benchmark sweeps; the vectors' residuals grow with it (median 7e-15
# at 1e-4, 2e-11 at 1e-3), still inside the contract.  On those sweeps' passes
# at seed 11, the cold passes run for 1 of 98 and 13 of 619 solves, and none
# retries.  The tight one is the retry when the loose block fails (?stein or
# the Cholesky factor fails, a pair misses the residual contract, or the
# block misses orthonormality).
_BISECT_TOL = 1e-3
_RETRY_TOL = 1e-8
# Most Rayleigh-quotient steps of a warm attempt.  On the random benchmark
# pass (seed 11), of the 579 nonempty solves that get a guess, 187 are
# certified after one step, 265 after two and 124 after three; a cap of 2
# sends those 124 to the cold passes as well, and a cap of 4 serves none more
# than 3 (the 3 left over fall back either way).
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
    """Hermitian 2N x 2N discretization of Hhat(zeta).

    Held as the real Jacobi pair (d, e) of the module docstring.
    `entries` is the dense Hermitian view in the physical interleaved
    ordering (site i occupies rows 2i = up, 2i + 1 = down), built from
    (d, e) on first access.  No code in the package calls it: it is the
    reference that the tests check the Jacobi form against.
    """

    grid: Grid1D
    d: np.ndarray
    e: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.grid.N

    @cached_property
    def entries(self) -> np.ndarray:
        n = self.dim
        # Jacobi index k -> interleaved row: down_i (k = 2i) -> 2i + 1, up_i -> 2i
        pos = np.arange(n) ^ 1
        # undo the -i phase on down components: <down|H|up> = -i e, <up|H|down> = i e
        upper = np.where(np.arange(n - 1) % 2 == 0, -1j, 1j) * self.e
        H = np.zeros((n, n), dtype=complex)
        H[pos, pos] = self.d
        H[pos[:-1], pos[1:]] = upper
        H[pos[1:], pos[:-1]] = np.conj(upper)
        return H


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
    `retried` is whether the solve behind the block took `eig_window`'s tight pass, and
    `warm` whether its warm start served it, after `steps` Rayleigh-quotient steps (0 for
    a cold block and for the empty window).  A warm attempt that fails is not a retry:
    its solve is `retried` only if the cold loose pass fails too.

    An int index gives one pair (the same fields, one row each); a mask or an
    index array gives a sub-block.  `psi` builds the interleaved spinors from t:
    psi_up,i = t_2i+1, psi_down,i = -i t_2i.
    """

    mu: np.ndarray
    t: np.ndarray = field(repr=False)
    residual: np.ndarray
    slope: np.ndarray
    mass: np.ndarray | None = None
    retried: bool = False
    warm: bool = False
    steps: int = 0

    def __len__(self) -> int:
        return len(self.mu)

    def __getitem__(self, i) -> "Eigenpairs":  # iterating the block walks its rows
        mass = None if self.mass is None else self.mass[i]
        return replace(self, mu=self.mu[i], t=self.t[i], residual=self.residual[i], slope=self.slope[i], mass=mass)

    @property
    def psi(self) -> np.ndarray:
        psi = np.empty(self.t.shape, dtype=complex)
        psi[..., 0::2] = self.t[..., 1::2]
        psi[..., 1::2] = -1j * self.t[..., 0::2]
        return psi


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
    residual: np.ndarray


def _misses_contract(lam: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Mask of the pairs with ||H v - lambda v|| > 1e-8 (1 + |lambda|)."""
    return res > 1e-8 * (1.0 + np.abs(lam))


def _misses_slope_bound(slopes: np.ndarray) -> np.ndarray:
    """Mask of the pairs with |d mu/d zeta| > 1 + 1e-12."""
    return np.abs(slopes) > 1.0 + 1e-12


def check_residuals(lam: np.ndarray, res: np.ndarray) -> None:
    """Raise SolverError unless every pair meets ||H v - lambda v|| <= 1e-8 (1 + |lambda|)."""
    bad = np.nonzero(_misses_contract(lam, res))[0]
    if bad.size:
        i = bad[0]
        raise SolverError(f"residual {res[i]:.3e} exceeds contract at eigenvalue {lam[i]:.6g}")


def check_slopes(lam: np.ndarray, slopes: np.ndarray) -> None:
    """Raise SolverError unless every pair meets |d mu/d zeta| <= 1 + 1e-12.

    <psi, sigma_2 psi> is bounded by 1 for a normalized psi, so a breach
    means a badly normalized vector or broken slope arithmetic.
    """
    bad = np.nonzero(_misses_slope_bound(slopes))[0]
    if bad.size:
        i = bad[0]
        raise SolverError(f"slope {slopes[i]:.6g} exceeds the Lipschitz bound 1 at eigenvalue {lam[i]:.6g}")


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
    """Rayleigh-Ritz on the rows of V: the Ritz pairs with mu in [lo, hi] and their
    certificate, (block, certified, off, info).

    One ?sygvd call on the pencil (V J V^T, V V^T) is a Cholesky QR inside
    Rayleigh-Ritz: L L^T = V V^T, eigh(L^-1 V J V^T L^-T) = (mu, Y), Q = L^-T Y,
    and the Ritz vectors are the rows of Q^T V.  When ?sygvd fails (info > k
    means V V^T is not positive definite) the block is None.  `certified` says
    that every pair meets the residual contract and the slope bound and that
    the block's rows t meet max |t t^T - I| = off <= 1e-12.  The residuals are
    checked first: when a pair misses the contract, the block is the bare
    `_RitzPairs` (mu, t, residual), off is inf, and neither the orthonormality
    product nor the slopes are computed.
    """
    JV = _jacobi_times(d, e, V)
    # the wrapper rejects an empty pencil
    mus, Q, info = lapack.dsygvd(JV @ V.T, V @ V.T, uplo="L") if len(V) else (np.empty(0), V[:, :0], 0)
    if info:
        return None, False, np.inf, info
    inside = (mus >= lo) & (mus <= hi)
    mus, Q = mus[inside], Q[:, inside]
    V, JV = Q.T @ V, Q.T @ JV
    JV -= mus[:, None] * V
    res = np.sqrt(np.einsum("ij,ij->i", JV, JV))
    if _misses_contract(mus, res).any():
        return _RitzPairs(mus, V, res), False, np.inf, 0
    off = np.max(np.abs(V @ V.T - np.eye(len(mus))), initial=0.0)
    block = Eigenpairs(mu=mus, t=V, residual=res, slope=slopes_of(V))
    return block, off <= 1e-12 and not _misses_slope_bound(block.slope).any(), off, 0


def _mapped_start(A: FiberMatrix, lo: float, hi: float, V: np.ndarray, shifts: np.ndarray, step: float, c: int):
    """The rows V of the window block at z_prev = zeta - step and their shifts, mapped
    by Sturm index onto the window at zeta, whose count c differs from len(V), with
    the states that entered seeded (see `eig_window`); None when V is not the whole
    window block at z_prev or a seed fails."""
    k = len(V)
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


def _warm_solve(A: FiberMatrix, lo: float, hi: float, guess: Eigenpairs, step: float) -> Eigenpairs | None:
    """The window's block by Rayleigh-quotient iteration from `guess`, or None when the
    guess cannot be mapped onto the window or no step gives a certified block (see
    `eig_window`)."""
    c = count_eigenvalues(A.d, A.e, lo, hi)
    if not c:
        return replace(guess[:0], retried=False, warm=True, steps=0)
    V, shifts = guess.t, guess.mu + step * guess.slope  # Hellmann-Feynman prediction
    if c != len(guess):
        if (start := _mapped_start(A, lo, hi, V, shifts, step, c)) is None:
            return None
        V, shifts = start
    n = V.shape[1]
    off_diag = np.zeros((c, n))
    off_diag[:, :-1] = A.e  # zero couplings between the c blocks
    off_diag = off_diag.ravel()[:-1]
    for steps in range(1, _WARM_STEPS + 1):
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
            return None
        # all c Ritz pairs: one outside the window may come back in at the next step
        pairs, certified, _, info = _certified_block(A.d, A.e, X / scale, -np.inf, np.inf)
        if info:
            return None
        if certified and lo <= pairs.mu[0] and pairs.mu[-1] <= hi:
            return replace(pairs, warm=True, steps=steps)
        V, shifts = pairs.t, pairs.mu
    return None


def eig_window(
    A: FiberMatrix, window: tuple[float, float], guess: Eigenpairs | None = None, step: float = 0.0
) -> Eigenpairs:
    """The block of all eigenpairs with mu in [lo, hi], sorted by mu, residual-verified.

    With a `guess`, the unfiltered block of the same family at a zeta `step`
    away, a warm attempt runs first.  The window's exact Sturm count c at
    zeta decides it: c = 0 returns the empty block after 0 steps.  When c
    differs from k = len(guess), the guess is mapped by global index, with
    J(zeta - step) = J(zeta) + step S: Sturm counts give a_old and a_new, the
    eigenvalues <= lo at zeta - step and at zeta, and a third one checks that
    the window at zeta - step holds k (else the guess is not that whole block,
    and the cold passes run).  Guess row r keeps its place when its index
    a_old + r lies in [a_new, a_new + c) and is dropped otherwise.  An index
    that entered through lo lies in (lo, lo + |step|] and one through hi in
    (hi - |step|, hi], since ||S|| = 1 bounds each sorted eigenvalue's move by
    |step| (Weyl); ?stebz seeds them on that strip at _BISECT_TOL, the lowest
    (highest) by value, and ?stein gives their rows.  A strip that holds
    fewer than needed, or a failed ?stein, sends the solve to the cold
    passes.  The c rows then run Rayleigh-quotient iteration (Parlett, The
    Symmetric Eigenvalue Problem, ch. 4), first at the shifts
    mu + slope * step that the Hellmann-Feynman slopes predict (the seeds'
    at their bisection values).  Each step solves (J - shift_i) x_i = v_i for
    every row v_i at once (one ?gtsv call: partial-pivoting elimination and
    solve of the stacked block-diagonal tridiagonal), rescales the rows and
    runs the Rayleigh-Ritz step and the certificates of the cold passes
    below.  The first block that passes, with all its c Ritz values in the
    window, is returned, marked `warm` with its `steps`; otherwise all its
    Ritz pairs are the next step's shifts and rows.  A zero pivot or a non-finite entry
    (a shift on an eigenvalue) redoes the step once at shifts moved by
    1e-10 (1 + |shift|).  After _WARM_STEPS steps, a failed Cholesky factor,
    or a step that fails at the moved shifts too, the cold passes run.

    The cold passes, on the real Jacobi matrix J: bisection (?stebz) only to
    _BISECT_TOL, whose exact Sturm count still proves the window complete;
    inverse iteration (?stein) for the block T; one Rayleigh-Ritz step that
    is also a Cholesky QR (`_certified_block`).  That gives mu to working
    precision even in clusters narrower than the bisection tolerance, and an
    orthonormal T where column norms alone would leave nearly parallel
    vectors.  When ?stein or the Cholesky factor fails, or the block misses a
    certificate (a pair misses the residual contract or the slope bound, or
    the block misses max |T^T T - I| <= 1e-12), the solve is redone with
    bisection to _RETRY_TOL, and the block is marked `retried`.  Slopes come
    from `slopes_of`.  The returned block must pass `check_residuals`, the
    orthonormality bound and `check_slopes`.
    """
    lo, hi = window
    if not lo < hi:
        raise ValueError("window lo must be < hi")
    if guess is not None and (pairs := _warm_solve(A, lo, hi, guess, step)) is not None:
        return pairs

    for tol in (_BISECT_TOL, _RETRY_TOL):
        # range 1: the eigenvalues in (lo, hi]; order "B": by split-off block, as ?stein needs
        m, w, iblock, isplit, info = lapack.dstebz(A.d, A.e, 1, lo, hi, 0, 0, tol, "B")
        if info:
            break
        T, info = lapack.dstein(A.d, A.e, w[:m], iblock, isplit)
        if info:
            continue
        pairs, certified, off, info = _certified_block(A.d, A.e, T.T, lo, hi)
        if certified:
            break
    if info:
        raise SolverError(f"tridiagonal eigensolve failed on [{lo:.6g}, {hi:.6g}]: LAPACK info {info}")
    check_residuals(pairs.mu, pairs.residual)
    if off > 1e-12:
        raise SolverError(f"eigenvector block is {off:.3e} off orthonormal on [{lo:.6g}, {hi:.6g}]")
    check_slopes(pairs.mu, pairs.slope)
    return replace(pairs, retried=tol != _BISECT_TOL)


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
