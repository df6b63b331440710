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
Dirichlet matrix into a real symmetric tridiagonal (Jacobi) matrix:

    d = (V - m, V + m) per site,
    e = 1/h - (zeta - A2(x_i)) on site,  -1/h between sites.

zeta enters only the on-site entries of e, so H(zeta) = T0 - zeta S.
Windowed eigenpairs come from LAPACK bisection and inverse iteration
for that form (?stebz / ?stein, via scipy.linalg.eigh_tridiagonal).
The periodic wrap closes the path into a cycle; periodic fibers only
appear on small grids and are solved densely.

Known lattice artifact (recorded in the decisions ledger): the combined
symbol of forward difference plus a constant transverse term w = zeta -
A2(x) develops a spurious zone-edge zero when w is near +2/h.  States
born from that resonance oscillate at the lattice momentum edge and are
detectable by `zone_edge_fraction`; sweep geometry is chosen so they are
either absent or land in the boundary strip of the spurious filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import SolverError
from .profiles import ProfileSet, evaluate, magnetic_potential

__all__ = [
    "Grid1D",
    "FiberMatrix",
    "EigenPair",
    "SpuriousFilter",
    "assemble_fiber",
    "eig_window",
    "filter_spurious",
    "boundary_mass",
    "zone_edge_fraction",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [-L, L]; dirichlet truncates the stencil, periodic wraps it."""

    L: float
    N: int
    bc: str = "dirichlet"

    def __post_init__(self):
        if self.N < 16:
            raise ValueError("N must be >= 16")
        if self.L <= 0:
            raise ValueError("L must be positive")
        if self.bc not in ("dirichlet", "periodic"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.N - 1) if self.bc == "dirichlet" else 2.0 * self.L / self.N

    @property
    def x(self) -> np.ndarray:
        return -self.L + self.h * np.arange(self.N)


class FiberMatrix:
    """Hermitian 2N x 2N discretization of Hhat(zeta).

    Held as the real Jacobi pair (d, e) of the module docstring (the open
    chain; the periodic wrap is implied by grid.bc), or as explicit dense
    `entries`.  `entries` is the dense Hermitian view in interleaved
    ordering (site i occupies rows 2i = up, 2i + 1 = down), built on
    first access from (d, e) when not given.
    """

    def __init__(
        self,
        zeta: float,
        grid: Grid1D,
        entries: np.ndarray | None = None,
        d: np.ndarray | None = None,
        e: np.ndarray | None = None,
    ):
        if (entries is None) == (d is None or e is None):
            raise ValueError("give either entries or the Jacobi pair (d, e)")
        self.zeta = zeta
        self.grid = grid
        self.d = d
        self.e = e
        if entries is not None:
            self.entries = entries

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
        if self.grid.bc == "periodic":
            # wrap term of the forward difference (up_{N-1} -> down_0) and its adjoint
            H[n - 2, 1] = 1j * self.e[1]
            H[1, n - 2] = -1j * self.e[1]
        return H


def assemble_fiber(grid: Grid1D, ps: ProfileSet, zeta: float) -> FiberMatrix:
    """Assemble the fiber matrix in Jacobi form, O(N); Hermitian by construction."""
    N, h = grid.N, grid.h
    x = grid.x
    m = evaluate(ps.m, x)
    V = evaluate(ps.V, x)
    A2 = magnetic_potential(ps, x)

    d = np.empty(2 * N)
    d[0::2] = V - m
    d[1::2] = V + m
    # forward difference plus transverse term on site; its hop between sites
    e = np.full(2 * N - 1, -1.0 / h)
    e[0::2] = 1.0 / h - (zeta - A2)
    return FiberMatrix(zeta=zeta, grid=grid, d=d, e=e)


@dataclass(frozen=True)
class EigenPair:
    """One eigenpair with its verified residual ||H psi - mu psi||."""

    mu: float
    psi: np.ndarray = field(repr=False)
    residual: float


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


def _jacobi_residuals(d: np.ndarray, e: np.ndarray, mus: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Column norms of (J - mu) t for the Jacobi matrix J = tridiag(e, d, e), in O(n)."""
    R = (d[:, None] - mus) * T
    R[:-1] += e[:, None] * T[1:]
    R[1:] += e[:, None] * T[:-1]
    return np.linalg.norm(R, axis=0)


def eig_window(A: FiberMatrix, window: tuple[float, float]) -> list[EigenPair]:
    """All eigenpairs with mu in [lo, hi], sorted by mu, residual-verified.

    Dirichlet fibers in Jacobi form are solved by bisection and inverse
    iteration on the real tridiagonal matrix (LAPACK ?stebz / ?stein);
    their eigenvectors are mapped back to the interleaved complex basis
    (psi_up,i = t_2i+1, psi_down,i = -i t_2i).  Periodic fibers and
    matrices given by dense entries use a dense windowed eigh.  Every
    pair must satisfy ||H psi - mu psi|| <= 1e-8 (1 + |mu|).
    """
    lo, hi = window
    if not lo < hi:
        raise ValueError("window lo must be < hi")

    if A.d is None or A.grid.bc == "periodic":
        H = A.entries
        mus, vecs = sla.eigh(H, subset_by_value=(lo, hi))
        vecs = vecs / np.linalg.norm(vecs, axis=0)
        res = np.linalg.norm(H @ vecs - vecs * mus, axis=0)
        psis = np.ascontiguousarray(vecs.T)
    else:
        try:
            mus, T = sla.eigh_tridiagonal(A.d, A.e, select="v", select_range=(lo, hi))
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"tridiagonal eigensolve failed on [{lo:.6g}, {hi:.6g}]: {exc}") from exc
        T = T / np.linalg.norm(T, axis=0)
        res = _jacobi_residuals(A.d, A.e, mus, T)
        psis = np.empty(T.T.shape, dtype=complex)
        psis[:, 0::2] = T.T[:, 1::2]
        psis[:, 1::2] = -1j * T.T[:, 0::2]

    pairs = []
    for mu, v, r in zip(mus, psis, res):
        if not lo <= mu <= hi:
            continue
        if r > 1e-8 * (1.0 + abs(mu)):
            raise SolverError(f"residual {r:.3e} exceeds contract at mu = {mu:.6g}")
        pairs.append(EigenPair(mu=float(mu), psi=v, residual=float(r)))
    pairs.sort(key=lambda p: p.mu)
    return pairs


def boundary_mass(psi: np.ndarray, grid: Grid1D, margin: float) -> float:
    """Probability mass of an interleaved spinor in the strip |x| > L - margin."""
    dens = np.abs(psi.reshape(grid.N, 2)) ** 2
    strip = np.abs(grid.x) > grid.L - margin
    return float(dens[strip].sum() / dens.sum())


def zone_edge_fraction(psi: np.ndarray) -> float:
    """Fraction of spectral mass near the lattice momentum edge.

    Smooth states score ~ 0; states born from the w ~ 2/h lattice
    resonance oscillate site-to-site and score ~ 1.  Used as a
    diagnostic for discretization artifacts that are not
    boundary-localized.
    """
    comps = psi.reshape(-1, 2)
    smooth = float(np.sum(np.abs(comps[1:] + comps[:-1]) ** 2)) / 4.0
    total = float(np.sum(np.abs(comps) ** 2))
    return 1.0 - smooth / total


def filter_spurious(
    pairs: list[EigenPair], grid: Grid1D, f: SpuriousFilter
) -> list[EigenPair]:
    """Drop pairs whose boundary-strip mass exceeds the threshold.

    Pairs with boundary mass below the threshold are always kept.
    """
    return [p for p in pairs if boundary_mass(p.psi, grid, f.margin) <= f.threshold]
