"""Windowed 2D trace check of the interface conductivity, plus stability runs.

The 2D Hamiltonian H = D_x sigma_1 + (D_y - A2(x)) sigma_2 + m(x) sigma_3
+ V(x) sigma_0 is built from the fiber operator in its Jacobi form J(zeta)
= tridiag(e, d, e) (see the fiber module), where zeta enters only the
on-site entries of e.  In (x-site, Jacobi component, y-momentum n)
order, with zeta_n = 2 pi fftfreq(Ny, hy)[n] (the partial Fourier basis),

    H = J(0) (x) I + dJ/dzeta (x) diag(zeta_n) (+ W_hat),

with dJ/dzeta = J(1) - J(0) the Jacobi form of sigma_2 (-1 between the
two components of each site), so a y-invariant H is exactly the block sum
of the fibers J(zeta_n); the x-stencil is defined only in the fiber
module.  W(x, y) acts on the momenta by convolution: each component of
site i carries the circulant block W_hat[n, n'] = w_hat_i(n - n' mod Ny),
w_hat = fft(W, axis=1) / Ny, symmetrized so H is bit-exactly Hermitian.
H is a sparse CSR matrix: 9152 entries at dimension 3072 without W, plus
Ny per row on the sites where W(x, .) is nonzero.

The conductivity is evaluated from the eigenpairs inside the density
window (E1, E2), the only ones on which phi' is nonzero.  With the
analytic commutator identity i[H, P] = P'(y) sigma_2, each state's share
is the fiber's Hellmann-Feynman slope weighted by P'(y):

    2 pi sigma_I = 2 pi sum_k phi'(lambda_k) <t_k, P'(y) dJ/dzeta t_k>
                 = 2 pi sum_k phi'(lambda_k) (-2) sum_{i,y} P'(y) Re(conj(t_k,2i,y) t_k,2i+1,y),

with t_k the eigenvector mapped back to the y-sites by one inverse FFT.

Before any solve, the eigenvalues in the window (lo, hi] are counted
exactly (_window_count).  In (Jacobi index k, momentum) order H is block
tridiagonal with Ny x Ny blocks, so by Haynsworth's inertia additivity
(Linear Algebra Appl. 1, 1968) the number of eigenvalues <= lam is the
number of negative eigenvalues of all the Schur complements of the block
LDL^T recursion, the block form of the fiber's ?stebz Sturm count.  When W does
not depend on y the blocks are diagonal and the count is Ny ?stebz calls,
one per momentum.  With that count n, a shift-invert solve about the
window centre c (ARPACK's shift-invert mode; Lehoucq, Sorensen and Yang,
ARPACK Users' Guide, 1998) asks for the n eigenvalues nearest c, which
are exactly those inside the window; n = 0 means no solve.  The solve
runs in real arithmetic whenever it can: if no stored entry of H has a
nonzero imaginary part (no W, or a W independent of y), H is real
symmetric and gets ARPACK's symmetric Lanczos (dsaupd) on a real SuperLU
factor of H - c.  Otherwise H is complex Hermitian, and scipy's eigsh
hands it to eigs, ARPACK's complex Arnoldi (znaupd).  The rule reads the
stored entries, not W's kind: every kind is even about Ly/2, so W_hat is
real in exact arithmetic, but the FFT can leave imaginary rounding in it
(none at Ny = 16, about 1e-17 at Ny = 24 or 32).  When n passes dim / 16,
the window holds so much of the spectrum that the Krylov solve no longer
pays, and a dense windowed eigh, real when H is, takes the solve.  The
solve is certified when exactly n values come back, all inside the
window, and every pair passes ||H v - lambda v|| <= 1e-8 (1 + |lambda|).

States whose x-profile oscillates at the lattice momentum edge (the
staggered scheme's zone-edge resonance, reachable at this deliberately
coarse grid) are excluded from the trace by fiber.zone_edge_fraction;
they are pure discretization artifacts, the 2D analog of the
boundary-localized states the fiber filter removes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import BudgetError, SolverError, WindowError
from .fiber import FiberFamily, Grid1D, check_residuals, count_eigenvalues, slopes_of, zone_edge_fraction
from .profiles import DensityProfile, ProfileSet, SwitchProfile, derivative
from .profiles import evaluate, magnetic_potential  # noqa: F401  unused here; the benchmark's tracer patches them

__all__ = [
    "Grid2D",
    "PerturbationSpec",
    "assemble_2d",
    "trace_conductivity",
    "TraceResult",
    "stability_experiment",
    "StabilityResult",
    "default_projection",
]

_BUDGET = 6000
_ZONE_EDGE_CUT = 0.5
# The Krylov solve runs while k <= dim / _DENSE_SHARE.  Its work grows as
# dim k^2 (a basis of 2k + 1 vectors), the dense solve's as dim^3; on the
# criterion-7 grids (dims 1536, 3072, H real) real Lanczos and the real dense
# eigh cost the same near k = dim / 8, and Lanczos is 2.8-3x faster at dim / 16.
_DENSE_SHARE = 16


@dataclass(frozen=True)
class Grid2D:
    """1D x-grid crossed with a periodic y-box of length Ly and Ny sites."""

    grid_x: Grid1D
    Ly: float
    Ny: int

    def __post_init__(self):
        if self.Ny < 16:
            raise ValueError("Ny must be >= 16")
        if self.Ly <= 0:
            raise ValueError("Ly must be positive")

    @property
    def dim(self) -> int:
        return 2 * self.grid_x.N * self.Ny

    @property
    def hy(self) -> float:
        return self.Ly / self.Ny

    @property
    def y(self) -> np.ndarray:
        return self.hy * np.arange(self.Ny)


@dataclass(frozen=True)
class PerturbationSpec:
    """Perturbation W with the decay/support classes of the stability theorems.

    kinds:
      mult_x   -- W(x): compactly supported smooth bump, |x| <= support
      mult_xy  -- W(x, y): product of compact bumps in x and (centered) y
      decay_y  -- W(y) = amplitude * <y - Ly/2>^(-1-delta)
      decay_xy -- W(x, y) = amplitude * <(x, y - Ly/2)>^(-2-delta)
    """

    kind: str
    amplitude: float
    support: float = 2.0
    delta: float = 0.5

    def __post_init__(self):
        if self.kind not in ("mult_x", "mult_xy", "decay_y", "decay_xy"):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if self.kind.startswith("decay") and self.delta <= 0:
            raise ValueError("decay kinds require delta > 0")
        if self.kind.startswith("mult") and self.support <= 0:
            raise ValueError("mult kinds require positive support")

    def sample(self, x: np.ndarray, y: np.ndarray, Ly: float) -> np.ndarray:
        """W on the (N, Ny) grid; y is recentered so decay is measured from Ly/2."""
        yc = y - Ly / 2.0
        X, Y = np.meshgrid(x, yc, indexing="ij")
        if self.kind == "mult_x":
            return self.amplitude * _bump(X / self.support)
        if self.kind == "mult_xy":
            return self.amplitude * _bump(X / self.support) * _bump(Y / self.support)
        if self.kind == "decay_y":
            return self.amplitude * (1.0 + Y**2) ** (-(1.0 + self.delta) / 2.0)
        return self.amplitude * (1.0 + X**2 + Y**2) ** (-(2.0 + self.delta) / 2.0)


def _bump(t: np.ndarray) -> np.ndarray:
    """Standard C-infinity bump: exp(1 - 1/(1 - t^2)) on |t| < 1, 0 outside."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return out


def assemble_2d(
    g: Grid2D,
    ps: ProfileSet,
    w: PerturbationSpec | None = None,
    coupling: float = 0.0,
) -> sp.csr_array:
    """Sparse (CSR) Hermitian 2D Hamiltonian; layout is (x-site, Jacobi component, y-momentum)."""
    if g.dim > _BUDGET:
        raise BudgetError(f"2D dimension {g.dim} exceeds the oracle budget {_BUDGET}")
    fam = FiberFamily.of(g.grid_x, ps)
    J0 = fam.at(0.0)
    dJ = fam.at(1.0).e - J0.e  # dJ/dzeta, the Jacobi form of sigma_2: -1 on site, 0 between sites
    J = sp.diags_array([J0.e, J0.d, J0.e], offsets=[-1, 0, 1])
    S = sp.diags_array([dJ, dJ], offsets=[-1, 1])
    zeta = 2.0 * np.pi * np.fft.fftfreq(g.Ny, d=g.hy)
    H = sp.kron(J, sp.eye_array(g.Ny)) + sp.kron(S, sp.diags_array(zeta))
    if w is not None and coupling != 0.0:
        # W(x, y) convolves the momenta: each site component's block [n, n'] is w_hat(n - n' mod Ny)
        w_hat = np.fft.fft(coupling * w.sample(g.grid_x.x, g.y, g.Ly), axis=1) / g.Ny
        C = sp.block_diag(sla.circulant(np.repeat(w_hat, 2, axis=0)))
        H = H + 0.5 * (C + C.conj().T)
    return sp.csr_array(H, dtype=complex)


def default_projection(g: Grid2D) -> SwitchProfile:
    """P(y) rising across the middle third of the y-box, clear of the seam."""
    return SwitchProfile(0.0, 1.0, g.Ly / 3.0, 2.0 * g.Ly / 3.0)


@dataclass(frozen=True)
class TraceResult:
    """The conductivity, and the certificate of the eigensolve behind it."""

    two_pi_sigma: float
    n_states_cut: int
    n_window: int  # eigenvalues in the density window (lo, hi], exact (_window_count)
    max_residual: float  # largest ||H v - lambda v|| over the returned pairs
    dense_fallback: bool


def _check_seam(P: SwitchProfile, g: Grid2D) -> None:
    if P.t_lo < g.Ly / 4.0 or P.t_hi > 3.0 * g.Ly / 4.0:
        raise WindowError(
            "projection transition too close to the periodic seam "
            f"(must lie within [{g.Ly / 4:.3g}, {3 * g.Ly / 4:.3g}])"
        )


def _window_count(H: sp.csr_array, g: Grid2D, window: tuple[float, float]) -> int:
    """The exact number of H's eigenvalues in (lo, hi], from inertia.

    In (Jacobi index k, momentum) order H is block tridiagonal with Ny x Ny
    blocks A_k = H[k, k] and B_k = H[k, k + 1]; an entry outside that band
    raises ValueError.  When no entry joins two momenta (W independent of
    y), momentum n is the tridiagonal H[n::Ny, n::Ny], counted by
    fiber.count_eigenvalues.  Otherwise the number of eigenvalues <= lam is
    sum_k nu_-(S_k) (Haynsworth's inertia additivity), with S_0 = A_0 - lam
    and S_k+1 = A_k+1 - lam - B_k^H S_k^-1 B_k, run at both window ends in
    one batched eigh per block; an eigenvalue of S_k smaller in magnitude
    than pivmin = 1e-12 ||H|| counts as -pivmin, as in ?stebz's Sturm count.
    """
    if not H.has_canonical_format:  # one entry per (row, column): duplicates are summed
        H = sp.csr_array(H.tocoo())
    Ny, nk = g.Ny, g.dim // g.Ny
    k, n = np.divmod(np.repeat(np.arange(g.dim), np.diff(H.indptr)), Ny)
    kc, nc = np.divmod(H.indices, Ny)
    off = kc - k
    if np.any(np.abs(off) > 1):
        raise ValueError("H has an entry outside its Jacobi-index block band")
    up = off >= 0  # the diagonal and upper blocks, enough for a Hermitian H
    if np.array_equal(n, nc):
        band = np.zeros((2, nk, Ny), dtype=complex)  # each mode's diagonal and superdiagonal
        band[off[up], k[up], n[up]] = H.data[up]
        return sum(count_eigenvalues(d, np.abs(e[:-1]), *window) for d, e in zip(band[0].real.T, band[1].T))
    blocks = np.zeros((2, nk, Ny, Ny), dtype=complex)  # A_k, then B_k
    blocks[off[up], k[up], n[up], nc[up]] = H.data[up]
    pivmin = 1e-12 * np.abs(H).sum(axis=1).max()
    shift = np.multiply.outer(window, np.eye(Ny))  # lo I and hi I
    S = blocks[0, 0] - shift
    below = np.zeros(2, dtype=int)
    for i in range(nk):
        w, V = np.linalg.eigh(S)
        w = np.where(np.abs(w) < pivmin, -pivmin, w)
        below += np.count_nonzero(w < 0.0, axis=-1)
        if i + 1 < nk:
            X = V.conj().swapaxes(-1, -2) @ blocks[1, i]  # S_i^-1 = V diag(1/w) V^H
            S = blocks[0, i + 1] - shift - X.conj().swapaxes(-1, -2) @ (X / w[..., None])
    return int(below[1] - below[0])


def _window_eigenpairs(H: sp.csr_array, g: Grid2D, window: tuple[float, float]):
    """Certified eigenpairs of the window: (lam, vec, certificate fields of TraceResult).

    With the exact count n from _window_count, a shift-invert eigsh about
    the window centre asks for the n nearest eigenvalues (no solve if
    n = 0), or, once n passes dim / _DENSE_SHARE, the dense windowed eigh
    runs.  Both are real when no stored entry of H has a nonzero imaginary
    part: symmetric Lanczos from a real start vector; a complex H gets
    complex Arnoldi from a complex one (module docstring).  The window is
    symmetric about its centre, so its n eigenvalues are the n nearest: the
    solve is certified when exactly n values come back, all inside
    (lo, hi], and each pair satisfies ||H v - lambda v|| <= 1e-8
    (1 + |lambda|).  Otherwise SolverError.
    """
    lo, hi = window
    dim = H.shape[0]
    real = not np.any(H.data.imag)
    if real:
        H = H.real.copy()  # copied: SuperLU rejects the strided view .real gives
    n = _window_count(H, g, window)
    dense = _DENSE_SHARE * n > dim
    if n == 0:
        lam, vec = np.zeros(0), np.zeros((dim, 0), dtype=H.dtype)
    elif dense:
        lam, vec = sla.eigh(H.toarray(), subset_by_value=window)
    else:
        # a generic start vector of H's dtype, fixed so that reruns are bit-identical
        rng = np.random.default_rng(0)
        v0 = rng.standard_normal(dim)
        if not real:
            v0 = v0 + 1j * rng.standard_normal(dim)
        c = 0.5 * (lo + hi)
        try:
            lam, vec = spla.eigsh(H, n, sigma=c, which="LM", v0=v0)
        except (spla.ArpackError, RuntimeError) as exc:
            solver = "Lanczos" if real else "Arnoldi"
            raise SolverError(f"shift-invert {solver} failed with k = {n} about {c:.6g}: {exc}") from exc
    inside = int(np.count_nonzero((lam > lo) & (lam <= hi)))
    if len(lam) != n or inside != n:
        raise SolverError(f"eigensolve returned {len(lam)} values, {inside} inside the window that holds {n}")

    order = np.argsort(lam)
    lam, vec = lam[order], vec[:, order]
    res = np.linalg.norm(H @ vec - vec * lam, axis=0)
    check_residuals(lam, res)
    return lam, vec, dict(n_window=n, max_residual=float(np.max(res, initial=0.0)), dense_fallback=dense)


def trace_conductivity(
    Hmat: sp.csr_array,
    g: Grid2D,
    P: SwitchProfile,
    dens: DensityProfile,
    full_result: bool = False,
):
    """2 pi sigma_I = 2 pi Tr i[H, P] phi'(H) from the certified eigenpairs in the density window.

    Each state contributes its fiber slope weighted by P'(y), using
    i[H, P] = P'(y) sigma_2 (module docstring).  Raises WindowError when
    P's transition is too close to the periodic seam, and SolverError when
    an eigenpair misses its residual contract.
    """
    _check_seam(P, g)
    N, Ny = g.grid_x.N, g.Ny
    if Hmat.shape != (g.dim, g.dim):
        raise ValueError("matrix does not match the grid")

    lam, vec, cert = _window_eigenpairs(sp.csr_array(Hmat), g, dens.window)
    weights = derivative(dens.phi, lam)
    live = np.abs(weights) > 1e-14
    # live states back on the y-sites, as (state, x-site, Jacobi component, y-site)
    t = np.fft.ifft(vec[:, live].T.reshape(-1, N, 2, Ny), axis=-1, norm="ortho")
    keep = zone_edge_fraction(t.reshape(-1, g.dim), width=2 * Ny) <= _ZONE_EDGE_CUT
    t, w = t[keep], weights[live][keep]
    # <t, P'(y) dJ/dzeta t>: the fiber slope of each y-site vector (state, y-site, Jacobi
    # index), real and imaginary parts separately, weighted by P'(y)
    t = t.transpose(0, 3, 1, 2).reshape(-1, Ny, 2 * N)
    slopes = (slopes_of(t.real) + slopes_of(t.imag)) @ derivative(P, g.y)

    result = TraceResult(
        two_pi_sigma=2.0 * np.pi * float(w @ slopes),
        n_states_cut=int(np.count_nonzero(~keep)),
        **cert,
    )
    return result if full_result else result.two_pi_sigma


@dataclass(frozen=True)
class StabilityResult:
    rows: tuple[tuple[float, float], ...]  # (coupling, two_pi_sigma)
    baseline: int
    verdict: str  # "stable" | "unstable"


def stability_experiment(
    base: ProfileSet,
    w: PerturbationSpec,
    couplings: list[float],
    g: Grid2D,
    P: SwitchProfile,
    dens: DensityProfile,
) -> StabilityResult:
    """Conductivity at each coupling; stable iff all round to the unperturbed integer."""
    rows = []
    for c in couplings:
        H = assemble_2d(g, base, w, coupling=c)
        rows.append((float(c), float(trace_conductivity(H, g, P, dens))))
    baseline = round(rows[0][1])
    stable = all(round(s) == baseline for _, s in rows)
    return StabilityResult(rows=tuple(rows), baseline=baseline, verdict="stable" if stable else "unstable")
