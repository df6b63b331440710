"""2D trace oracle: assembly, Fourier-block correspondence, traces, the windowed solve."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from diracflow import oracle2d
from diracflow.config import config_from_dict
from diracflow.errors import BudgetError, SolverError, WindowError
from diracflow.fiber import FiberFamily, Grid1D, assemble_fiber
from diracflow.oracle2d import (
    Grid2D,
    PerturbationSpec,
    assemble_2d,
    default_projection,
    trace_conductivity,
)
from diracflow.profiles import DensityProfile, ProfileSet, SwitchProfile, derivative

from conftest import dense_fiber, walls
from diracflow.bulk import HalfSpaceParams
from diracflow.presets import PRESETS, preset_config, preset_profiles

SMALL = Grid2D(grid_x=Grid1D(L=6.0, N=20), Ly=12.0, Ny=16)
FIG2 = walls(HalfSpaceParams(-2.0, -2.0, -0.1), HalfSpaceParams(2.0, 2.0, 0.1))


class TestGrid2D:
    def test_geometry(self):
        assert SMALL.dim == 2 * 20 * 16
        assert SMALL.hy == pytest.approx(0.75)
        assert SMALL.y[0] == 0.0 and SMALL.y[-1] == pytest.approx(12.0 - 0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid2D(grid_x=Grid1D(L=6.0, N=20), Ly=12.0, Ny=8)
        with pytest.raises(ValueError):
            Grid2D(grid_x=Grid1D(L=6.0, N=20), Ly=0.0, Ny=16)


class TestPerturbationSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PerturbationSpec(kind="shear", amplitude=1.0)
        with pytest.raises(ValueError):
            PerturbationSpec(kind="decay_y", amplitude=1.0, delta=0.0)
        with pytest.raises(ValueError):
            PerturbationSpec(kind="mult_x", amplitude=1.0, support=0.0)

    def test_mult_x_compact_support(self):
        w = PerturbationSpec(kind="mult_x", amplitude=0.5, support=2.0)
        W = w.sample(SMALL.grid_x.x, SMALL.y, SMALL.Ly)
        assert W.shape == (20, 16)
        outside = np.abs(SMALL.grid_x.x) >= 2.0
        assert np.all(W[outside, :] == 0.0)
        # grid need not hit x = 0 exactly, so the sampled peak sits just below
        assert 0.4 < np.max(W) <= 0.5
        # independent of y
        assert np.max(np.abs(W - W[:, :1])) == 0.0

    def test_decay_y_centered(self):
        w = PerturbationSpec(kind="decay_y", amplitude=1.0, delta=0.5)
        W = w.sample(SMALL.grid_x.x, SMALL.y, SMALL.Ly)
        mid = np.argmin(np.abs(SMALL.y - SMALL.Ly / 2))
        assert np.max(W) == pytest.approx(W[0, mid])
        assert W[0, 0] < W[0, mid]

    @pytest.mark.parametrize("kind", ["mult_x", "mult_xy", "decay_y", "decay_xy"])
    def test_every_kind_is_even_about_the_middle(self, kind):
        """W(x, Ly - y) = W(x, y) to rounding, the condition under which assemble_2d's H is real."""
        w = PerturbationSpec(kind=kind, amplitude=0.5, support=3.0)
        for Ny in (16, 17, 24, 32):
            g = Grid2D(grid_x=Grid1D(L=6.0, N=16), Ly=12.0, Ny=Ny)
            W = w.sample(g.grid_x.x, g.y, g.Ly)
            assert np.max(np.abs(W)) > 0.0
            assert np.max(np.abs(W - _reflected(W))) <= 1e-15 * np.max(np.abs(W))

    def test_decay_xy_decays_both_ways(self):
        w = PerturbationSpec(kind="decay_xy", amplitude=0.3, delta=0.5)
        W = w.sample(SMALL.grid_x.x, SMALL.y, SMALL.Ly)
        mid = np.argmin(np.abs(SMALL.y - SMALL.Ly / 2))
        cx = np.argmin(np.abs(SMALL.grid_x.x))
        assert W[cx, mid] == np.max(W)
        assert W[0, mid] < W[cx, mid] and W[cx, 0] < W[cx, mid]


class TestAssemble2D:
    def test_hermitian_bit_exact(self):
        H = assemble_2d(SMALL, FIG2).matrix()
        assert np.max(np.abs(H - H.conj().T)) == 0.0
        w = PerturbationSpec(kind="mult_xy", amplitude=0.5)
        Hp = assemble_2d(SMALL, FIG2, w, coupling=0.7).matrix()
        assert np.max(np.abs(Hp - Hp.conj().T)) == 0.0

    def test_zero_coupling_matches_unperturbed(self):
        w = PerturbationSpec(kind="decay_xy", amplitude=0.3)
        H0 = assemble_2d(SMALL, FIG2).matrix()
        Hc = assemble_2d(SMALL, FIG2, w, coupling=0.0).matrix()
        assert (H0 != Hc).nnz == 0

    def test_budget_enforced(self):
        big = Grid2D(grid_x=Grid1D(L=6.0, N=64), Ly=12.0, Ny=64)
        with pytest.raises(BudgetError):
            assemble_2d(big, FIG2)

    @pytest.mark.parametrize("Ny", [16, 17])
    def test_momentum_layout_is_the_y_fourier_transform(self, Ny):
        """H equals (I (x) F) H_y (I (x) F^H), F the unitary DFT, with H_y built
        densely on the y-sites from the fiber's (d, e), the spectral K_y and
        diag(W), for a seeded random W(x, y) made even about Ly/2.  The raw
        random W, which is not, raises ValueError."""
        g = Grid2D(grid_x=Grid1D(L=6.0, N=16), Ly=12.0, Ny=Ny)
        raw = np.random.default_rng(Ny).standard_normal((16, Ny))
        with pytest.raises(ValueError, match="even"):
            assemble_2d(g, FIG2, SimpleNamespace(sample=lambda x, y, Ly: raw), coupling=1.0)
        W = raw + _reflected(raw)
        H = assemble_2d(g, FIG2, SimpleNamespace(sample=lambda x, y, Ly: W), coupling=1.0).matrix()
        assert H.dtype == np.float64 and np.max(np.abs(H - H.T)) == 0.0
        fam = FiberFamily.of(g.grid_x, FIG2)
        J = np.diag(fam.d) + np.diag(fam.e0, 1) + np.diag(fam.e0, -1)
        S = np.diag(-fam.s, 1) + np.diag(-fam.s, -1)
        Hy = np.kron(J, np.eye(Ny)) + np.kron(S, _spectral_momentum(g)) + np.diag(np.repeat(W, 2, axis=0).ravel())
        U = np.kron(np.eye(32), np.fft.fft(np.eye(Ny), norm="ortho"))
        assert np.max(np.abs(H.toarray() - U @ Hy @ U.conj().T)) < 1e-12

    @pytest.mark.parametrize("g", [SMALL], ids=["dirichlet"])
    def test_fourier_blocks_reproduce_fibers(self, g):
        """No entry of H joins two momenta, and momentum n's block is the fiber
        Jacobi matrix at the discrete momentum 2*pi*n/Ly bit for bit: both add
        -zeta_n s to the pencil's e0."""
        H = assemble_2d(g, FIG2).matrix()
        for mode in (0, 1, g.Ny // 2, g.Ny - 3):
            zeta = 2.0 * np.pi * np.fft.fftfreq(g.Ny, d=g.hy)[mode]
            fib = assemble_fiber(g.grid_x, FIG2, float(zeta))
            assert np.max(np.abs(_momentum_block(H, g, mode) - _jacobi(fib.d, fib.e))) == 0.0

    def test_mult_x_adds_w_to_both_components_of_each_site(self):
        """A y-independent W(x) leaves H block-diagonal in y: each Fourier mode is
        the fiber Jacobi pair with W(x_i) on both diagonal entries of site i."""
        g, c = SMALL, 0.7
        w = PerturbationSpec(kind="mult_x", amplitude=0.5, support=3.0)
        Wx = c * w.sample(g.grid_x.x, g.y, g.Ly)[:, 0]
        assert np.count_nonzero(Wx) > 2
        H = assemble_2d(g, FIG2, w, coupling=c).matrix()
        for mode in (0, 1, g.Ny // 2, g.Ny - 3):
            zeta = 2.0 * np.pi * np.fft.fftfreq(g.Ny, d=g.hy)[mode]
            fib = assemble_fiber(g.grid_x, FIG2, float(zeta))
            expected = _jacobi(fib.d + np.repeat(Wx, 2), fib.e)
            assert np.max(np.abs(_momentum_block(H, g, mode) - expected)) < 1e-12


def _reflected(W):
    """W(x, Ly - y) on the periodic y-grid: column j goes to column -j mod Ny."""
    return W[:, (-np.arange(W.shape[1])) % W.shape[1]]


def _momentum_block(H, g, mode):
    """H's block at one y-momentum, after checking that no entry of H joins two momenta."""
    rows = np.repeat(np.arange(g.dim), np.diff(H.indptr))
    assert np.array_equal(rows % g.Ny, H.indices % g.Ny)
    return H.toarray()[mode::g.Ny, mode::g.Ny]


def _jacobi(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


class TestTrace:
    def test_identical_half_spaces_zero(self):
        ps = ProfileSet(
            B=SwitchProfile(2.0, 2.0), m=SwitchProfile(2.0, 2.0), V=SwitchProfile(0.1, 0.1)
        )
        g = Grid2D(grid_x=Grid1D(L=6.0, N=24), Ly=12.0, Ny=16)
        val = trace_conductivity(
            assemble_2d(g, ps), g, default_projection(g), DensityProfile.from_window(-1.0, 1.0)
        )
        assert abs(val) <= 0.05

    def test_projection_invariance(self):
        g = Grid2D(grid_x=Grid1D(L=6.0, N=24), Ly=12.0, Ny=16)
        H = assemble_2d(g, FIG2)
        dens = DensityProfile.from_window(-1.0, 1.0)
        P1 = default_projection(g)
        P2 = SwitchProfile(0.0, 1.0, P1.t_lo - 0.9, P1.t_hi - 0.9)
        v1 = trace_conductivity(H, g, P1, dens)
        v2 = trace_conductivity(H, g, P2, dens)
        assert abs(v1 - v2) <= 0.02

    def test_seam_violation_raises(self):
        g = SMALL
        H = np.zeros((g.dim, g.dim))
        P_bad = SwitchProfile(0.0, 1.0, 0.5, 2.0)  # transition hugging the seam
        with pytest.raises(WindowError):
            trace_conductivity(H, g, P_bad, DensityProfile.from_window(-1.0, 1.0))

    def test_operator_from_another_grid_raises(self):
        """Another Ny, or the same dimension on another Ly: ValueError before any count."""
        op = assemble_2d(SMALL, FIG2)
        for g in (Grid2D(grid_x=SMALL.grid_x, Ly=12.0, Ny=17), Grid2D(grid_x=SMALL.grid_x, Ly=13.0, Ny=16)):
            with pytest.raises(ValueError, match="another grid"):
                trace_conductivity(op, g, default_projection(g), DensityProfile.from_window(-1.0, 1.0))

    def test_full_result_fields(self):
        g = Grid2D(grid_x=Grid1D(L=6.0, N=24), Ly=12.0, Ny=16)
        res = trace_conductivity(
            assemble_2d(g, FIG2), g, default_projection(g),
            DensityProfile.from_window(-1.0, 1.0), full_result=True,
        )
        assert set(vars(res)) == {"two_pi_sigma", "n_states_cut", "n_window", "max_residual"}
        assert res.n_states_cut >= 0 and np.isfinite(res.two_pi_sigma)


def _spectral_momentum(g):
    """The dense spectral -i d/dy on the periodic y-box, F^H diag(zeta_n) F with F the unitary DFT."""
    F = np.fft.fft(np.eye(g.Ny), norm="ortho")
    return F.conj().T @ np.diag(2.0 * np.pi * np.fft.fftfreq(g.Ny, d=g.hy)) @ F


def _dense_reference(g, ps, P, dens, w=None, coupling=0.0):
    """The definitional oracle, independent of the oracle's Jacobi layout and
    momentum basis: H in the physical (spinor, x-site, y-site) basis from the
    fiber's dense interleaved matrix with sigma_2 and this file's own K_y
    written out, a full dense eigh, and a
    per-state loop over <v, P'(y) sigma_2 v>.  Returns (2 pi sigma, states
    cut, eigenvalues strictly inside the window)."""
    N, Ny = g.grid_x.N, g.Ny
    n = N * Ny
    spinor_major = np.arange(2 * N).reshape(N, 2).T.ravel()  # interleaved rows as (spinor, x-site)
    H0 = dense_fiber(assemble_fiber(g.grid_x, ps, 0.0))[np.ix_(spinor_major, spinor_major)]
    sigma2 = np.array([[0.0, -1j], [1j, 0.0]])
    H = np.kron(H0, np.eye(Ny)) + np.kron(np.kron(sigma2, np.eye(N)), _spectral_momentum(g))
    if w is not None:
        H += np.diag(np.tile(coupling * w.sample(g.grid_x.x, g.y, g.Ly).ravel(), 2))
    lam, vec = np.linalg.eigh(H)
    Pp = np.diag(np.kron(np.ones(N), derivative(P, g.y)))
    weights = derivative(dens.phi, lam)
    total, cut = 0.0, 0
    for k in np.nonzero(np.abs(weights) > 1e-14)[0]:
        v1, v2 = vec[:n, k], vec[n:, k]
        p1, p2 = v1.reshape(N, Ny), v2.reshape(N, Ny)
        smooth = (np.sum(np.abs(p1[1:] + p1[:-1]) ** 2) + np.sum(np.abs(p2[1:] + p2[:-1]) ** 2)) / 4.0
        if 1.0 - smooth / np.sum(np.abs(vec[:, k]) ** 2) > 0.5:  # the zone-edge cut
            cut += 1
            continue
        total += weights[k] * np.real(np.vdot(v1, -1j * (Pp @ v2)) + np.vdot(v2, 1j * (Pp @ v1)))
    lo, hi = dens.window
    in_window = int(np.count_nonzero((lam > lo) & (lam < hi)))
    return 2 * np.pi * total, cut, in_window


GRID_1536 = Grid2D(grid_x=Grid1D(L=12.0, N=48), Ly=12.0, Ny=16)
GRID_768 = Grid2D(grid_x=Grid1D(L=6.0, N=24), Ly=12.0, Ny=16)
GRID_512 = Grid2D(grid_x=Grid1D(L=6.0, N=16), Ly=12.0, Ny=16)
# Ny = 24, where the FFT of a y-dependent W leaves imaginary parts near 1e-17 that
# assemble_2d drops: its cosine transform is W_hat exactly for a y-even W.
GRID_768_NY24 = Grid2D(grid_x=Grid1D(L=6.0, N=16), Ly=12.0, Ny=24)


def _dense_count(op, window):
    """Eigenvalues of op's H in (lo, hi], from a full dense eigvalsh."""
    lam = np.linalg.eigvalsh(op.matrix().toarray())
    return int(np.count_nonzero((lam > window[0]) & (lam <= window[1])))


def _forbidden(*args, **kwargs):
    raise AssertionError("not expected to run")


class TestWindowBound:
    """The exact window count n (_window_count), which sizes the solve, against dense eigvalsh."""

    @pytest.fixture
    def mode_counts(self, monkeypatch):
        """(len(d), lo, hi) of every fiber.count_eigenvalues call."""
        real, calls = oracle2d.count_eigenvalues, []

        def recorded(d, e, lo, hi):
            calls.append((len(d), lo, hi))
            return real(d, e, lo, hi)

        monkeypatch.setattr(oracle2d, "count_eigenvalues", recorded)
        return calls

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_exact_on_y_invariant_presets(self, name, mode_counts):
        """A y-invariant H is counted on its momentum-major stack: one ?stebz count over all dim rows."""
        window = config_from_dict(preset_config(name)).density.window
        op = assemble_2d(GRID_768, preset_profiles(name))
        assert oracle2d._window_count(op, window) == _dense_count(op, window)
        assert op.w_hat is None and mode_counts == [(GRID_768.dim, *window)]

    def test_exact_with_mult_x(self, mode_counts):
        w = PerturbationSpec(kind="mult_x", amplitude=0.5, support=3.0)
        op = assemble_2d(GRID_768, FIG2, w, coupling=0.7)
        assert oracle2d._window_count(op, (-1.0, 1.0)) == _dense_count(op, (-1.0, 1.0))
        assert op.w_hat is None and mode_counts == [(GRID_768.dim, -1.0, 1.0)]

    @pytest.mark.parametrize(
        "w, coupling",
        [
            (PerturbationSpec(kind="mult_xy", amplitude=0.5), 0.7),
            (PerturbationSpec(kind="decay_xy", amplitude=0.3), 1.0),
            (PerturbationSpec(kind="decay_y", amplitude=0.3), 1.0),
        ],
        ids=["mult_xy", "decay_xy", "decay_y"],
    )
    def test_upper_bound_with_y_dependent_w(self, w, coupling, monkeypatch):
        """A W that joins momenta takes the block recursion, never the per-mode
        count, and the count that bounds the solve equals dense eigvalsh's: it is tight."""
        monkeypatch.setattr(oracle2d, "count_eigenvalues", _forbidden)
        op = assemble_2d(GRID_768, FIG2, w, coupling)
        assert op.w_hat is not None
        for window in ((-1.0, 1.0), (-0.5, 0.5), (-2.5, 2.5), (0.3, 4.0)):
            assert oracle2d._window_count(op, window) == _dense_count(op, window)

    def test_y_dependent_count_runs_no_numpy_eigh(self, monkeypatch):
        """The block recursion's batched eigh is scipy's, on the BLAS pool that SuperLU
        and ARPACK use; numpy's eigh, whose own OpenBLAS pool would contend with that
        one, never runs.  The count still equals dense eigvalsh's."""
        op = assemble_2d(GRID_768, FIG2, PerturbationSpec(kind="mult_xy", amplitude=0.5), coupling=0.7)
        dense = _dense_count(op, (-1.0, 1.0))
        monkeypatch.setattr(np.linalg, "eigh", _forbidden)
        assert oracle2d._window_count(op, (-1.0, 1.0)) == dense > 0

    @pytest.mark.parametrize("kind", ["mult_xy", "decay_y", "decay_xy"])
    def test_y_dependent_count_builds_no_matrix(self, kind, monkeypatch):
        """The block recursion takes A_k and B_k from the fibers and w_hat, not from H's CSR."""
        op = assemble_2d(GRID_768, FIG2, PerturbationSpec(kind=kind, amplitude=0.5), coupling=0.7)
        dense = _dense_count(op, (-1.0, 1.0))
        monkeypatch.setattr(oracle2d.Operator2D, "matrix", _forbidden)
        assert op.w_hat is not None and oracle2d._window_count(op, (-1.0, 1.0)) == dense > 0

    def test_small_pivot_counts_as_negative(self):
        """bulk_uniform + decay_y at coupling 1.5 on the preset grid2d (dimension
        3072): at lam = -0.5 a Schur complement S_k has an eigenvalue near 1e-17.
        Counted as -pivmin, as ?stebz does, the window (-0.5, 0.5) holds what
        dense eigvalsh finds in it; taken at its computed sign, the count is wrong."""
        cfg = config_from_dict(preset_config("bulk_uniform"))
        g, w = cfg.grid2d, PerturbationSpec(kind="decay_y", amplitude=1.0)
        op = assemble_2d(g, cfg.profiles, w, coupling=1.5)
        assert oracle2d._window_count(op, (-0.5, 0.5)) == _dense_count(op, (-0.5, 0.5))

    def test_exact_under_random_y_even_perturbations(self):
        """20 seeded random W(x, y), made even about Ly/2, of sizes 1e-6 to 1 on a random
        share of the sites, passed in as sampled arrays: each joins arbitrary momenta.
        Besides (-1, 1), each is counted on a window whose upper edge splits the
        eigenvalue that W moves most from where it was without W, so that the count
        differs from the unperturbed H's."""
        g, rng = GRID_512, np.random.default_rng(12)
        op0 = assemble_2d(g, FIG2)
        lam0 = np.linalg.eigvalsh(op0.matrix().toarray())
        for _ in range(20):
            raw = 10.0 ** rng.uniform(-6.0, 0.0) * rng.standard_normal((g.grid_x.N, g.Ny))
            raw *= rng.random((g.grid_x.N, 1)) < rng.uniform(0.1, 1.0)
            W = raw + _reflected(raw)
            op = assemble_2d(g, FIG2, SimpleNamespace(sample=lambda x, y, Ly: W), coupling=1.0)
            assert op.w_hat is not None
            assert oracle2d._window_count(op, (-1.0, 1.0)) == _dense_count(op, (-1.0, 1.0))
            lam = np.linalg.eigvalsh(op.matrix().toarray())
            j = np.argmax(np.abs(lam - lam0))
            split = (0.5 * (lam[j] + lam0[j]) - 1.0, 0.5 * (lam[j] + lam0[j]))
            n = oracle2d._window_count(op, split)
            assert n == _dense_count(op, split) and n != _dense_count(op0, split)


class TestWindowedSolve:
    """The certified solves, the fiber sum and shift-invert Lanczos, against the dense definitional oracle."""

    def _check(self, g, ps, window, w=None, coupling=0.0):
        dens = DensityProfile.from_window(*window)
        P = default_projection(g)
        res = trace_conductivity(assemble_2d(g, ps, w, coupling), g, P, dens, full_result=True)
        sigma, cut, in_window = _dense_reference(g, ps, P, dens, w, coupling)
        assert abs(res.two_pi_sigma - sigma) <= 1e-10
        assert res.n_states_cut == cut
        assert res.n_window == in_window
        assert res.max_residual <= 1e-8
        return res

    @pytest.mark.parametrize(
        "name, g, window",
        [
            ("dual_wall_v01", GRID_1536, (-1.0, 1.0)),
            ("mass_wall", GRID_768, (-0.5, 0.5)),
            ("field_wall_massless", GRID_768, (0.5, 1.5)),
        ]
        + [(name, GRID_768, config_from_dict(preset_config(name)).density.window) for name in sorted(PRESETS)],
        ids=["dual_wall_v01", "mass_wall", "field_wall_massless"] + [f"{name}-768" for name in sorted(PRESETS)],
    )
    def test_matches_dense_on_presets(self, name, g, window):
        """Every preset on GRID_768 at its own density window, too; the two gapped
        presets hold no state there."""
        res = self._check(g, preset_profiles(name), window)
        assert (res.n_window > 0 and res.n_states_cut > 0) == (name not in ("bulk_uniform", "field_wall_massive"))

    def test_matches_dense_perturbed(self):
        for g, kind in ((GRID_768, "mult_xy"), (GRID_768, "mult_x"), (GRID_768_NY24, "mult_xy")):
            w = PerturbationSpec(kind=kind, amplitude=0.5)
            res = self._check(g, FIG2, (-1.0, 1.0), w, coupling=0.7)
            assert res.n_window > 0

    @pytest.mark.parametrize(
        "kind",
        [None, "mult_x", "mult_xy", "decay_y", "decay_xy"],
        ids=["unperturbed", "mult_x", "mult_xy", "decay_y", "decay_xy"],
    )
    def test_h_and_solve_are_real(self, kind, monkeypatch):
        """assemble_2d's H is float64 for every kind and Ny.  A y-dependent H's
        eigsh gets a float64 matrix and start vector (ARPACK's symmetric Lanczos);
        a y-invariant H runs no eigsh."""
        real, seen = spla.eigsh, []

        def recorded(H, k, v0, **kwargs):
            seen.append((H.dtype, v0.dtype))
            return real(H, k, v0=v0, **kwargs)

        monkeypatch.setattr(spla, "eigsh", recorded)
        w = None if kind is None else PerturbationSpec(kind=kind, amplitude=0.5)
        for Ny in (16, 17, 24, 32):
            g = Grid2D(grid_x=Grid1D(L=6.0, N=16), Ly=12.0, Ny=Ny)
            op = assemble_2d(g, FIG2, w, coupling=0.7)
            assert op.matrix().dtype == np.float64
            trace_conductivity(op, g, default_projection(g), DensityProfile.from_window(-1.0, 1.0))
        assert seen == ([] if kind in (None, "mult_x") else [(np.float64, np.float64)] * 4)

    @pytest.mark.parametrize("kind", [None, "mult_x"], ids=["unperturbed", "mult_x"])
    def test_y_invariant_trace_builds_no_matrix(self, kind, monkeypatch):
        """A y-invariant H, at every Ny, is counted and solved on its fibers: no CSR matrix."""
        monkeypatch.setattr(oracle2d.Operator2D, "matrix", _forbidden)
        w = None if kind is None else PerturbationSpec(kind=kind, amplitude=0.5)
        for Ny in (16, 17, 24, 32):
            g = Grid2D(grid_x=Grid1D(L=6.0, N=16), Ly=12.0, Ny=Ny)
            op = assemble_2d(g, FIG2, w, coupling=0.7)
            dens = DensityProfile.from_window(-1.0, 1.0)
            res = trace_conductivity(op, g, default_projection(g), dens, full_result=True)
            assert op.w_hat is None and res.n_window > 0

    @pytest.fixture
    def solves(self, monkeypatch):
        """The k of every eigsh call."""
        real, calls = spla.eigsh, []

        def recorded(H, k, **kwargs):
            calls.append(k)
            return real(H, k, **kwargs)

        monkeypatch.setattr(spla, "eigsh", recorded)
        return calls

    @pytest.mark.parametrize(
        "kind",
        [None, "mult_x", "mult_xy", "decay_y", "decay_xy"],
        ids=["unperturbed", "mult_x", "mult_xy", "decay_y", "decay_xy"],
    )
    def test_factor_follows_the_momentum_structure(self, kind, solves, monkeypatch):
        """A y-invariant H (no W, or W(x)) is the fiber sum: exactly Ny eig_window
        calls, one per momentum on the fiber J(zeta_n) (plus W(x) on d), and no
        eigsh, SuperLU or ?gttrf call.  A W that joins momenta takes one Lanczos
        solve for k = n and no fiber solve.  Either way the trace matches the
        dense reference."""
        g = GRID_768
        w = None if kind is None else PerturbationSpec(kind=kind, amplitude=0.5)
        if kind not in (None, "mult_x"):
            monkeypatch.setattr(oracle2d, "eig_window", _forbidden)
            res = self._check(g, FIG2, (-1.0, 1.0), w, coupling=0.7)
            assert solves == [res.n_window] and res.n_window > 0
            return
        monkeypatch.setattr(spla, "splu", _forbidden)
        monkeypatch.setattr("scipy.linalg.lapack.dgttrf", _forbidden)
        real, blocks = oracle2d.eig_window, []

        def recorded(A, window):
            blocks.append(A)
            return real(A, window)

        monkeypatch.setattr(oracle2d, "eig_window", recorded)
        fam = FiberFamily.of(g.grid_x, FIG2)
        zeta = 2.0 * np.pi * np.fft.fftfreq(g.Ny, d=g.hy)
        res = self._check(g, FIG2, (-1.0, 1.0), w, coupling=0.7)
        assert res.n_window > 0 and len(blocks) == g.Ny
        for A, z in zip(blocks, zeta):
            assert A.grid == g.grid_x and np.array_equal(A.e, fam.at(z).e)
            assert (w is not None) or np.array_equal(A.d, fam.d)
        assert solves == []

    def test_one_solve_at_k_equal_n_past_32(self, solves):
        res = self._check(GRID_1536, FIG2, (-2.5, 2.5), PerturbationSpec(kind="mult_xy", amplitude=0.5), coupling=0.7)
        assert solves == [res.n_window] and res.n_window > 32

    def test_lanczos_holds_a_quarter_of_the_spectrum(self, solves):
        """n = 161 on dimension 640, past dim / 4: one Lanczos solve takes it too."""
        res = self._check(SMALL, FIG2, (-5.3, 5.3), PerturbationSpec(kind="mult_xy", amplitude=0.5), coupling=0.7)
        assert solves == [res.n_window] and 4 * res.n_window > SMALL.dim

    def test_empty_window_runs_no_solve(self, monkeypatch):
        """Without W and with a y-dependent W, which takes the Lanczos path's empty block."""
        monkeypatch.setattr(spla, "eigsh", _forbidden)
        for w in (None, PerturbationSpec(kind="decay_y", amplitude=0.5)):
            res = self._check(GRID_768, preset_profiles("bulk_uniform"), (-0.5, 0.5), w, coupling=0.5)
            assert res.two_pi_sigma == 0.0 and res.n_window == 0

    def test_count_certificate_can_fail(self, monkeypatch):
        """A solve that drops the in-window pair nearest c returns n - 1 values
        for a window that holds n: SolverError, with no second solve."""
        real, calls = spla.eigsh, []

        def drop_nearest(H, k, sigma, **kwargs):
            lam, vec = real(H, k, sigma=sigma, **kwargs)
            calls.append(k)
            keep = np.arange(k) != np.argmin(np.abs(lam - sigma))
            return lam[keep], vec[:, keep]

        monkeypatch.setattr(spla, "eigsh", drop_nearest)
        H = assemble_2d(GRID_768, preset_profiles("mass_wall"), PerturbationSpec(kind="mult_xy", amplitude=0.5), 0.7)
        dens = DensityProfile.from_window(-0.5, 0.5)
        with pytest.raises(SolverError, match="window"):
            trace_conductivity(H, GRID_768, default_projection(GRID_768), dens)
        assert calls == [_dense_count(H, dens.window)] and calls[0] > 0

    def test_window_holding_the_whole_spectrum_raises(self, monkeypatch):
        """n = dim, past what eigsh can return on a sparse matrix: WindowError before any solve."""
        monkeypatch.setattr(spla, "eigsh", _forbidden)
        monkeypatch.setattr(oracle2d, "eig_window", _forbidden)
        H = assemble_2d(SMALL, FIG2)
        window = (-40.0, 40.0)
        assert _dense_count(H, window) == SMALL.dim
        with pytest.raises(WindowError, match=f"all {SMALL.dim} eigenvalues"):
            trace_conductivity(H, SMALL, default_projection(SMALL), DensityProfile.from_window(*window))

    def test_repeated_calls_bit_identical(self):
        dens = DensityProfile.from_window(-1.0, 1.0)
        for g, w in ((GRID_768, None), (GRID_768_NY24, PerturbationSpec(kind="mult_xy", amplitude=0.5))):
            H = assemble_2d(g, FIG2, w, coupling=0.7)
            P = default_projection(g)
            first = trace_conductivity(H, g, P, dens, full_result=True)
            assert first.n_window > 0
            assert trace_conductivity(H, g, P, dens, full_result=True) == first

    def test_no_convergence_raises_solver_error(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(spla, "eigsh", stalled)
        H = assemble_2d(GRID_768, FIG2, PerturbationSpec(kind="decay_y", amplitude=0.5), coupling=0.7)
        with pytest.raises(SolverError, match="Lanczos"):
            trace_conductivity(H, GRID_768, default_projection(GRID_768), DensityProfile.from_window(-1.0, 1.0))

    def test_singular_superlu_factor_raises_solver_error(self, monkeypatch):
        """A y-dependent shift's SuperLU factor is part of the solve: its RuntimeError is a SolverError."""

        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(spla, "splu", singular)
        H = assemble_2d(GRID_768, FIG2, PerturbationSpec(kind="mult_xy", amplitude=0.5), coupling=0.7)
        with pytest.raises(SolverError, match="exactly singular"):
            trace_conductivity(H, GRID_768, default_projection(GRID_768), DensityProfile.from_window(-1.0, 1.0))

    def test_momentum_block_that_drops_a_row_raises_solver_error(self, monkeypatch):
        """A fiber solve that drops the last row of one momentum's block returns n - 1
        states for a window that holds n: the count check raises SolverError."""
        real, calls = oracle2d.eig_window, []

        def drop_one(A, window):
            pairs = real(A, window)
            calls.append(len(pairs))
            first = len(pairs) and sum(calls) == len(pairs)  # every earlier block was empty
            return pairs[:-1] if first else pairs

        monkeypatch.setattr(oracle2d, "eig_window", drop_one)
        H = assemble_2d(GRID_768, FIG2)
        dens = DensityProfile.from_window(-1.0, 1.0)
        n = _dense_count(H, dens.window)
        with pytest.raises(SolverError, match=f"returned {n - 1} values, {n - 1} inside the window that holds {n}"):
            trace_conductivity(H, GRID_768, default_projection(GRID_768), dens)
        assert len(calls) == GRID_768.Ny and sum(calls) == n > 0

    def test_residual_contract_enforced(self, monkeypatch):
        real = spla.eigsh

        def perturbed(*args, **kwargs):
            lam, vec = real(*args, **kwargs)
            return lam + 1e-3, vec

        monkeypatch.setattr(spla, "eigsh", perturbed)
        H = assemble_2d(GRID_768, FIG2, PerturbationSpec(kind="decay_y", amplitude=0.5), coupling=0.7)
        with pytest.raises(SolverError, match="residual"):
            trace_conductivity(H, GRID_768, default_projection(GRID_768), DensityProfile.from_window(-1.0, 1.0))
