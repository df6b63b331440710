"""Windowed 2D trace check of the interface conductivity, plus stability runs.

The 2D Hamiltonian H = D_x sigma_1 + (D_y - A2(x)) sigma_2 + m(x) sigma_3
+ V(x) sigma_0 is built from the fiber operator in its Jacobi form J(zeta)
= tridiag(e, d, e) (see the fiber module), where zeta enters only the
on-site entries of e.  In (x-site, Jacobi component, y-momentum n)
order, with zeta_n = 2 pi fftfreq(Ny, hy)[n] (the partial Fourier basis),

    H = J(0) (x) I + dJ/dzeta (x) diag(zeta_n) (+ W_hat),

with dJ/dzeta = tridiag(-s, 0, -s) the Jacobi form of sigma_2, read off
the fiber pencil e(zeta) = e0 - zeta s (s is 1 on site and 0 between
sites, so dJ/dzeta is -1 between the two components of each site).  So a
y-invariant H is exactly the block sum of the fibers J(zeta_n), bit for
bit.  The x-stencil is defined only in the fiber module.
W(x, y) acts on the momenta by convolution: each component of site i carries the
circulant block W_hat[n, n'] = w_hat_i(n - n' mod Ny), w_hat =
Re fft(W, axis=1) / Ny, W's cosine transform: W must be even about Ly/2,
so its y-DFT is real in exact arithmetic and the real part drops only
FFT rounding.  It is taken of W - W(x, 0), with W(x, 0) added at n = 0, so
that a W(x) joins no momenta at any Ny, and made exactly even in n by
averaging w_hat(n) and w_hat(-n), so that each W_hat block is symmetric.

assemble_2d keeps that structure: its Operator2D holds the fiber family,
with a W(x) on d, and w_hat only when W joins momenta (else None).  Only
the y-dependent solve builds H as a matrix, Operator2D.matrix(): bit-exactly
symmetric float64 CSR, row k Ny + n holding J(zeta_n)'s row k at offsets 0
and +-Ny plus W_hat; 9152 entries at dimension 3072 without W, plus Ny per
row on the sites where W(x, .) is nonzero.

The conductivity is evaluated from the eigenpairs inside the density
window (E1, E2), the only ones on which phi' is nonzero.  With the
analytic commutator identity i[H, P] = P'(y) sigma_2, each state's share
is the fiber's Hellmann-Feynman slope weighted by P'(y):

    2 pi sigma_I = 2 pi sum_k phi'(lambda_k) <t_k, P'(y) dJ/dzeta t_k>
                 = 2 pi sum_k phi'(lambda_k) (-2) sum_{i,y} P'(y) Re(conj(t_k,2i,y) t_k,2i+1,y),

with t_k the eigenvector on the y-sites (a Lanczos vector is mapped there by
one inverse FFT).

Before any solve, the eigenvalues in the window (lo, hi] are counted
exactly from the operator's arrays: for a y-invariant H, one ?stebz Sturm
count per momentum (fiber.count_eigenvalues on J(zeta_n)), summed; else
_window_count, the negative eigenvalues of the Schur complements of H's
block LDL^T recursion (Haynsworth's inertia additivity, Linear Algebra
Appl. 1, 1968), the block form of that count.  A count n = dim is a
WindowError (a window in a bulk gap, bulk.check_density_window, holds at
most 96 of 3072 on the presets' grid2d), and n = 0 means no solve.

A y-invariant H is the fiber sum, the partial Fourier decomposition
H = sum_n J(zeta_n): each fiber whose count is nonzero (on criterion 7's
grids, half of them), Operator2D.fiber.at(zeta_n), is solved cold by the
fiber's own certified solver, fiber.eig_window, in momentum order.  Its
states are e^{i zeta_n y} (x) t, so a state's trace share is
mean_j P'(y_j) times its block's slope, its zone-edge score is that of t,
and its residual in H is t's in J(zeta_n).  A y-dependent H takes
one shift-invert Lanczos solve about the window centre c (ARPACK's
symmetric Lanczos dsaupd in shift-invert mode; Lehoucq, Sorensen and Yang,
ARPACK Users' Guide, 1998) for the n eigenvalues nearest c, exactly those
inside the window, on one SuperLU factor of H - c made once (_lanczos).
Either way the solve is certified when exactly n values come back, all
inside the window, and every pair passes ||H v - lambda v|| <= 1e-8 (1 + |lambda|).

States whose x-profile oscillates at the lattice momentum edge (the
staggered scheme's zone-edge resonance, reachable at this deliberately
coarse grid) are excluded from the trace by fiber.zone_edge_fraction;
they are pure discretization artifacts, the 2D analog of the
boundary-localized states the fiber filter removes.

scipy.sparse is imported only inside Operator2D.matrix() and _lanczos, so
neither a fiber run nor a y-invariant trace loads it: scipy.sparse and
scipy.sparse.linalg load with a y-dependent H's solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .errors import BudgetError, DiracflowError, SolverError, WindowError
from .fiber import FiberFamily, Grid1D, check_residuals, count_eigenvalues, eig_window
from .fiber import slopes_of, zone_edge_fraction
from .profiles import DensityProfile, ProfileSet, SwitchProfile, _g, derivative
from .profiles import evaluate, magnetic_potential  # noqa: F401  unused here; the benchmark's tracer patches them

__all__ = [
    "Grid2D",
    "Operator2D",
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

    @property
    def zeta(self) -> np.ndarray:  # the y-momenta zeta_n of the partial Fourier basis
        return 2.0 * np.pi * np.fft.fftfreq(self.Ny, d=self.hy)


@dataclass(frozen=True)
class PerturbationSpec:
    """Perturbation W with the decay/support classes of the stability theorems.

    kinds, each even about Ly/2 (W(x, Ly - y) = W(x, y)), as assemble_2d requires:
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
    """Standard C-infinity bump: exp(1 - 1/(1 - t^2)) = e g(1 - t^2) on |t| < 1, 0 outside."""
    return np.e * _g(1.0 - np.square(t))


@dataclass(frozen=True, eq=False)
class Operator2D:
    """H on `grid` in the partial Fourier basis (module docstring): the fiber
    family, with a W(x) that joins no momenta already on d, and W's per-site
    cosine coefficients w_hat (N, Ny), exactly even in n, None when no entry of H joins two momenta."""

    grid: Grid2D
    fiber: FiberFamily
    w_hat: np.ndarray | None = None

    @property
    def e(self) -> np.ndarray:  # every momentum's couplings e(zeta_n) = e0 - zeta_n s, as rows (Ny, 2N - 1)
        return self.fiber.e0 - self.grid.zeta[:, None] * self.fiber.s

    def matrix(self):
        """H as a float64 symmetric scipy.sparse CSR array in (x-site, Jacobi component, y-momentum) order."""
        import scipy.sparse as sp

        Ny, e = self.grid.Ny, self.e.T.ravel()  # row k Ny + n couples Jacobi index k to k + 1 by e_k(zeta_n)
        H = sp.diags_array([e, np.repeat(self.fiber.d, Ny), e], offsets=[-Ny, 0, Ny], format="csr")
        if self.w_hat is not None:  # each site component's block [n, n'] is w_hat(n - n' mod Ny)
            H = H + sp.block_diag(sla.circulant(np.repeat(self.w_hat, 2, axis=0)))
        return sp.csr_array(H)


def assemble_2d(
    g: Grid2D,
    ps: ProfileSet,
    w: PerturbationSpec | None = None,
    coupling: float = 0.0,
) -> Operator2D:
    """The 2D Hamiltonian of ps + coupling * W on g, as its fibers and W's cosine
    coefficients (Operator2D).  BudgetError past _BUDGET; ValueError when
    coupling * W differs from its reflection y -> Ly - y by over 1e-12 max|coupling * W|."""
    if g.dim > _BUDGET:
        raise BudgetError(f"2D dimension {g.dim} exceeds the oracle budget {_BUDGET}")
    fam = FiberFamily.of(g.grid_x, ps)
    if w is None or coupling == 0.0:
        return Operator2D(g, fam)
    W = coupling * w.sample(g.grid_x.x, g.y, g.Ly)
    if np.max(np.abs(W - W[:, -np.arange(g.Ny)])) > 1e-12 * np.max(np.abs(W)):
        raise ValueError("W must be even about Ly/2: W(x, Ly - y) = W(x, y)")
    # W(x, 0) goes to n = 0 exactly: the FFT of a constant row leaves rounding off n = 0 at some Ny (17)
    w_hat = np.fft.fft(W - W[:, :1], axis=1).real / g.Ny
    w_hat[:, 0] += W[:, 0]
    if np.any(w_hat[:, 1:]):  # made exactly even, w_hat(-n) = w_hat(n): its circulant is symmetric
        return Operator2D(g, fam, 0.5 * (w_hat + w_hat[:, -np.arange(g.Ny)]))
    return Operator2D(g, replace(fam, d=fam.d + np.repeat(w_hat[:, 0], 2)))


def default_projection(g: Grid2D) -> SwitchProfile:
    """P(y) rising across the middle third of the y-box, clear of the seam."""
    return SwitchProfile(0.0, 1.0, g.Ly / 3.0, 2.0 * g.Ly / 3.0)


@dataclass(frozen=True)
class TraceResult:
    """The conductivity, and the certificate of the eigensolve behind it."""

    two_pi_sigma: float
    n_states_cut: int
    n_window: int  # eigenvalues in the density window (lo, hi], exact (the window count)
    max_residual: float  # largest ||H v - lambda v|| over the solved pairs (the fiber blocks' for a y-invariant H)


def _check_seam(P: SwitchProfile, g: Grid2D) -> None:
    if P.t_lo < g.Ly / 4.0 or P.t_hi > 3.0 * g.Ly / 4.0:
        raise WindowError(
            "projection transition too close to the periodic seam "
            f"(must lie within [{g.Ly / 4:.3g}, {3 * g.Ly / 4:.3g}])"
        )


def _window_count(op: Operator2D, window: tuple[float, float]) -> int:
    """The exact number of a y-dependent op's eigenvalues in (lo, hi], from inertia.

    In (Jacobi index k, momentum) order, H is block tridiagonal with Ny x Ny
    blocks A_k = d_k I + C, C the (symmetric) circulant of w_hat at k's site,
    and B_k = diag(e_k(zeta_n)), and the number of eigenvalues <= lam is
    sum_k nu_-(S_k) (Haynsworth's inertia additivity), with S_0 = A_0 - lam
    and S_k+1 = A_k+1 - lam - B_k S_k^-1 B_k, run at both window ends in one
    batched eigh per block.  An eigenvalue of S_k smaller in magnitude than
    pivmin = 1e-12 ||H||_inf counts as -pivmin, as in ?stebz's Sturm count.
    """
    Ny, d, e = op.grid.Ny, op.fiber.d, op.e
    A = np.repeat(sla.circulant(op.w_hat), 2, axis=0)
    A[:, np.arange(Ny), np.arange(Ny)] += d[:, None]
    B = np.pad(e.T, ((0, 1), (0, 0)))  # row k: the diagonal of B_k, and B_nk-1 = 0
    pivmin = 1e-12 * (np.abs(A).sum(axis=-1) + np.abs(B) + np.abs(np.roll(B, 1, axis=0))).max()  # 1e-12 ||H||_inf
    shift = np.multiply.outer(window, np.eye(Ny))  # lo I and hi I
    S = A[0] - shift
    below = np.zeros(2, dtype=int)
    for k in range(len(d)):
        w, V = sla.eigh(S)  # scipy's LAPACK, as SuperLU and ARPACK use: one BLAS pool
        w = np.where(np.abs(w) < pivmin, -pivmin, w)
        below += np.count_nonzero(w < 0.0, axis=-1)
        if k + 1 < len(d):
            X = V.swapaxes(-1, -2) * B[k]  # S_k^-1 = V diag(1/w) V^T
            S = A[k + 1] - shift - X.swapaxes(-1, -2) @ (X / w[..., None])
    return int(below[1] - below[0])


def _lanczos(op: Operator2D, window: tuple[float, float], n: int):
    """The n eigenpairs (lam, vec) of H nearest the window centre c and their residuals:
    shift-invert Lanczos (eigsh) on one SuperLU factor of H - c, for a y-dependent H.

    The factor is in the natural order, where H - c has half-bandwidth Ny (W,
    on-site, fills only the diagonal Ny x Ny blocks), so LU with partial
    pivoting fills only inside the band.  On the stress table's shifts
    (scripts/run_oracle_stress.py) COLAMD fills mult_xy less but factors
    decay_y and decay_xy 2-3 times slower, and the table's trace totals do not
    tell the two orders apart.  A zero pivot (SuperLU's RuntimeError) or an
    ARPACK error is a SolverError.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    H = op.matrix()
    c, dim = 0.5 * sum(window), H.shape[0]
    v0 = np.random.default_rng(0).standard_normal(dim)  # generic, fixed so that reruns are bit-identical
    try:
        lu = spla.splu(sp.csc_array(H - c * sp.eye_array(dim)), permc_spec="NATURAL")
        OPinv = spla.LinearOperator(H.shape, matvec=lu.solve, dtype=H.dtype)
        lam, vec = spla.eigsh(H, n, sigma=c, which="LM", v0=v0, OPinv=OPinv)
    except (spla.ArpackError, RuntimeError) as exc:
        raise SolverError(f"shift-invert Lanczos failed with k = {n} about {c:.6g}: {exc}") from exc
    return lam, vec, np.linalg.norm(H @ vec - vec * lam, axis=0)


def _window_states(op: Operator2D, window: tuple[float, float], dP: np.ndarray):
    """The certified states of the window (module docstring), as arrays (lam, residual,
    zone-edge score, trace share <v, P'(y) sigma_2 v> with dP = P'(y)), as many as the
    exact count n: for a y-invariant H, the sum of one Sturm count per momentum, and the
    fiber sum solves the momenta whose count is nonzero; else _window_count's, for _lanczos."""
    g, (lo, hi) = op.grid, window
    N, Ny = g.grid_x.N, g.Ny
    if op.w_hat is None:
        counts = [count_eigenvalues(op.fiber.d, e, lo, hi) for e in op.e]
        n = sum(counts)
    else:
        n = _window_count(op, window)
    if n >= g.dim:
        raise WindowError(f"density window ({lo:g}, {hi:g}] holds all {g.dim} eigenvalues of H")
    if n == 0:
        return np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0)
    if op.w_hat is None:
        pairs = [eig_window(op.fiber.at(z), window) for z, c in zip(g.zeta, counts) if c]
        lam, res, t, slope = (np.concatenate([getattr(p, f) for p in pairs]) for f in ("mu", "residual", "t", "slope"))
        edge, shares = zone_edge_fraction(t, width=2), np.mean(dP) * slope
    else:
        lam, vec, res = _lanczos(op, window, n)
        # as (state, x-site, Jacobi component, y-site)
        t = np.fft.ifft(vec.T.reshape(-1, N, 2, Ny), axis=-1, norm="ortho")
        edge = zone_edge_fraction(t.reshape(len(lam), g.dim), width=2 * Ny)
        # the fiber slope of each y-site vector (state, y-site, Jacobi index), real
        # and imaginary parts separately, weighted by P'(y)
        t = t.transpose(0, 3, 1, 2).reshape(-1, Ny, 2 * N)
        shares = (slopes_of(t.real) + slopes_of(t.imag)) @ dP
    inside = int(np.count_nonzero((lam > lo) & (lam <= hi)))
    if len(lam) != n or inside != n:
        raise SolverError(f"eigensolve returned {len(lam)} values, {inside} inside the window that holds {n}")
    check_residuals(lam, res)
    return lam, res, edge, shares


def trace_conductivity(
    op: Operator2D,
    g: Grid2D,
    P: SwitchProfile,
    dens: DensityProfile,
    full_result: bool = False,
):
    """2 pi sigma_I = 2 pi Tr i[H, P] phi'(H) from the certified eigenpairs in the density window.

    Each state contributes its fiber slope weighted by P'(y), using
    i[H, P] = P'(y) sigma_2 (module docstring).  Raises WindowError when
    P's transition is too close to the periodic seam or the density window
    holds all of H's eigenvalues, ValueError when op was assembled on
    another grid than g, and SolverError when the solve misses its
    certificate.
    """
    _check_seam(P, g)
    if op.grid != g:
        raise ValueError("the operator was assembled on another grid")

    lam, res, edge, shares = _window_states(op, dens.window, derivative(P, g.y))
    weights = derivative(dens.phi, lam)
    live = np.abs(weights) > 1e-14
    keep = live & (edge <= _ZONE_EDGE_CUT)
    result = TraceResult(
        two_pi_sigma=2.0 * np.pi * float(weights[keep] @ shares[keep]),
        n_states_cut=int(np.count_nonzero(live & ~keep)),
        n_window=len(lam),
        max_residual=float(np.max(res, initial=0.0)),
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
    unperturbed: float | None = None,
) -> StabilityResult:
    """Conductivity at each coupling; stable iff all round to the unperturbed integer.
    `unperturbed`, when given, is the already traced 2 pi sigma of `base`: a zero
    coupling takes it instead of tracing the same H again.  A coupling's
    DiracflowError is raised again with `coupling <c>: ` before its message."""
    rows = []
    for c in couplings:
        if c == 0.0 and unperturbed is not None:
            s = unperturbed
        else:
            try:
                s = float(trace_conductivity(assemble_2d(g, base, w, coupling=c), g, P, dens))
            except DiracflowError as exc:  # the same class, so the same exit code
                raise type(exc)(f"coupling {c:g}: {exc}") from exc
        rows.append((float(c), s))
    baseline = round(rows[0][1])
    stable = all(round(s) == baseline for _, s in rows)
    return StabilityResult(rows=tuple(rows), baseline=baseline, verdict="stable" if stable else "unstable")
