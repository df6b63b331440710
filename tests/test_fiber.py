"""Fiber-matrix assembly, windowed eigensolves, and the boundary filter."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

from diracflow.bulk import HalfSpaceParams, landau_levels
from diracflow import fiber
from diracflow.errors import SolverError
from diracflow.fiber import (
    Eigenpairs,
    FiberMatrix,
    Grid1D,
    SpuriousFilter,
    assemble_fiber,
    boundary_mass,
    eig_window,
    filter_spurious,
    zone_edge_fraction,
)
from diracflow.presets import preset_profiles
from diracflow.profiles import (
    ProfileSet,
    SwitchProfile,
    evaluate,
    magnetic_potential,
)

from conftest import dense_fiber, spinors, sup_A2_prime, walls

CONST_220 = ProfileSet(
    B=SwitchProfile(2.0, 2.0), m=SwitchProfile(2.0, 2.0), V=SwitchProfile(0.0, 0.0)
)


class TestGrid1D:
    def test_spacing_and_sites(self):
        g = Grid1D(L=1.0, N=21)
        assert g.h == pytest.approx(0.1)
        assert g.x[0] == -1.0 and g.x[-1] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(L=1.0, N=8)
        with pytest.raises(ValueError):
            Grid1D(L=0.0, N=32)


class TestAssembly:
    def test_hermitian_bit_exact(self, rng):
        for _ in range(10):
            ps = walls(
                HalfSpaceParams(float(rng.uniform(0.5, 3)), float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1))),
                HalfSpaceParams(float(rng.uniform(-3, -0.5)), float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1))),
            )
            g = Grid1D(L=5.0, N=48)
            H = dense_fiber(assemble_fiber(g, ps, float(rng.uniform(-4, 4))))
            assert np.max(np.abs(H - H.conj().T)) == 0.0

    def test_dirichlet_truncates(self):
        ps = CONST_220
        g = Grid1D(L=1.0, N=16)
        H = dense_fiber(assemble_fiber(g, ps, 0.0))
        assert H[2 * 15, 1] == 0.0 and H[1, 2 * 15] == 0.0

    def test_chiral_symmetry(self, rng):
        """With m = V = 0 the spectrum is symmetric under negation (1e-10)."""
        ps = ProfileSet(
            B=SwitchProfile(-2.0, 2.0), m=SwitchProfile(0.0, 0.0), V=SwitchProfile(0.0, 0.0)
        )
        g = Grid1D(L=6.0, N=120)
        for zeta in (-2.0, 0.0, 1.7):
            vals = np.linalg.eigvalsh(dense_fiber(assemble_fiber(g, ps, zeta)))
            assert np.max(np.abs(np.sort(vals) + np.sort(-vals)[::-1])) < 1e-10

    def test_v_shift_exact(self):
        """Adding a constant to V shifts the whole spectrum by it (1e-12)."""
        base = walls(HalfSpaceParams(-2.0, -1.0, -0.3), HalfSpaceParams(2.0, 1.0, 0.4))
        shifted = walls(HalfSpaceParams(-2.0, -1.0, 0.4), HalfSpaceParams(2.0, 1.0, 1.1))
        g = Grid1D(L=6.0, N=120)
        for zeta in (-1.0, 0.5):
            a = np.linalg.eigvalsh(dense_fiber(assemble_fiber(g, base, zeta)))
            b = np.linalg.eigvalsh(dense_fiber(assemble_fiber(g, shifted, zeta)))
            assert np.max(np.abs(b - (a + 0.7))) < 1e-12


# The bisection tolerance of the tight reference solves: the cold seed, bisected to
# where its ?stein rows already meet every check.
_TIGHT_TOL = 1e-8


def _tight(monkeypatch, A: FiberMatrix, window: tuple[float, float]) -> Eigenpairs:
    """The reference block of A: the cold seed bisected to _TIGHT_TOL."""
    with monkeypatch.context() as m:
        m.setattr(fiber, "_BISECT_TOL", _TIGHT_TOL)
        return eig_window(A, window)


# The slope that `test_fault_at_every_step_raises` puts on every pair: just past the bound.
_SLOPES = {"slope": 1.0 + 1e-9, "slope_low": -1.0 - 1e-9}


class TestEigWindow:
    def test_diagonal_matrix(self):
        g = Grid1D(L=1.0, N=16)
        A = FiberMatrix(grid=g, d=np.arange(32, dtype=float), e=np.zeros(31))
        pairs = eig_window(A, (4.5, 7.5))
        assert [p.mu for p in pairs] == [5.0, 6.0, 7.0]

    def test_constant_bulk_matches_landau(self):
        """N=800 interior levels vs the closed form, after artifact removal."""
        g = Grid1D(L=20.0, N=800)
        pairs = eig_window(assemble_fiber(g, CONST_220, 0.0), (-4.0, 4.0))
        kept = filter_spurious(pairs, g, SpuriousFilter(margin=5.0, threshold=0.3))
        kept = [p for p in kept if zone_edge_fraction(spinors(p)) < 0.5]
        mus = np.array([p.mu for p in kept])
        for lev in landau_levels(HalfSpaceParams(2.0, 2.0, 0.0), 2).levels:
            assert np.min(np.abs(mus - lev)) < 1e-2

    def test_residual_and_orthogonality(self):
        ps = walls(HalfSpaceParams(-2.0, 0.0, 0.0), HalfSpaceParams(2.0, 0.0, 0.0))
        g = Grid1D(L=20.0, N=800)
        pairs = eig_window(assemble_fiber(g, ps, 6.0), (-3.5, 3.5))
        assert pairs, "expected states in the window"
        for p in pairs:
            assert p.residual <= 1e-8 * (1.0 + abs(p.mu))
        V = np.array([spinors(p) for p in pairs])
        G = np.abs(V.conj() @ V.T - np.eye(len(pairs)))
        assert np.max(G) < 1e-8

    def test_empty_window_in_gap(self):
        """No eigenvalues inside the gap certified by the field-gradient bound."""
        ps = ProfileSet(
            B=SwitchProfile(-2.0, 2.0),
            m=SwitchProfile(3.0, 3.0),
            V=SwitchProfile(0.0, 0.0),
        )
        g = Grid1D(L=10.0, N=400)
        delta = math.sqrt(9.0 - sup_A2_prime(ps, g.L))
        pairs = eig_window(assemble_fiber(g, ps, 0.0), (-delta + 0.05, delta - 0.05))
        assert len(pairs) == 0 and pairs.t.shape == (0, 2 * g.N)
        kept = filter_spurious(pairs, g, SpuriousFilter.default(g))
        assert kept.t.shape == (0, 2 * g.N) and kept.mass.shape == (0,)

    def test_sorted_by_mu(self):
        ps = walls(HalfSpaceParams(-2.0, -2.0, 0.0), HalfSpaceParams(2.0, 2.0, 0.0))
        g = Grid1D(L=8.0, N=200)
        mus = [p.mu for p in eig_window(assemble_fiber(g, ps, 0.0), (-3.0, 3.0))]
        assert mus == sorted(mus)

    def test_block_indexing(self):
        """An int gives one pair, a mask a sub-block; a row's spinor is the stack's row."""
        g = Grid1D(L=8.0, N=200)
        pairs = eig_window(assemble_fiber(g, CONST_220, 0.0), (-3.0, 3.0))
        mask = pairs.mu > 0.0
        sub = pairs[mask]
        assert 0 < len(sub) < len(pairs) and np.array_equal(sub.t, pairs.t[mask])
        assert np.array_equal(sub.mu, pairs.mu[mask]) and sub.mass is None
        p = pairs[1]
        assert (p.mu, p.residual, p.slope) == (pairs.mu[1], pairs.residual[1], pairs.slope[1])
        psi = spinors(p)
        assert np.array_equal(psi, spinors(pairs)[1]) and np.vdot(psi, psi).real == pytest.approx(1.0)
        assert [q.mu for q in pairs] == pairs.mu.tolist()

    @pytest.mark.parametrize("link", [0.0, 1e-10], ids=["exact", "near"])
    def test_twin_blocks(self, link):
        """Two identical Jacobi blocks: each eigenvalue comes back twice.

        Joined by e = 0 the copies are exactly degenerate; joined by
        e = 1e-10 they split by far less than the bisection tolerance, so
        only the Rayleigh-Ritz step resolves the two values.
        """
        rng = np.random.default_rng(7)
        d, e = rng.uniform(-0.5, 0.5, 16), rng.uniform(0.8, 1.2, 15)
        A = FiberMatrix(grid=Grid1D(L=1.0, N=16), d=np.concatenate([d, d]), e=np.concatenate([e, [link], e]))
        pairs = eig_window(A, (-6.0, 6.0))
        dense = np.linalg.eigvalsh(dense_fiber(A))
        assert len(pairs) == dense.size == 32
        assert np.max(np.abs(np.array([p.mu for p in pairs]) - dense)) < 1e-12
        for p in pairs:
            assert p.residual <= 1e-8 * (1.0 + abs(p.mu))
        V = np.array([spinors(p) for p in pairs])
        assert np.max(np.abs(V.conj() @ V.T - np.eye(32))) < 1e-12

    @staticmethod
    def _faulty_lapack(fault, calls, n, persist):
        """scipy's LAPACK wrappers with `fault` injected into the cold seed and, when
        `persist`, into every step of the certification loop as well; `calls` logs the
        name of each ?stebz, ?stein, ?gtsv and ?sygvd call, and n is the matrix order.

        residual: noise of 1e-3 times the largest entry on ?stein's rows (and on each
        step's ?gtsv rows), so pairs miss the contract; stein_info: ?stein reports
        failure (and each ?gtsv call info 2); parallel: the second row becomes a
        near-copy of the first, so the Gram matrix is singular and its Cholesky factor
        fails; skew: the Ritz vectors come back 1e-9 too long, which leaves every
        residual within the contract and only the orthonormality bound can see;
        window: ?stebz's range reaches past its upper end to hold one state beyond it,
        which passes every check but the window test.
        """

        def faulty(R):  # the rows R, with the fault in them
            if fault == "residual":
                return R + 1e-3 * np.abs(R).max() * np.random.default_rng(3).standard_normal(R.shape)
            if fault == "parallel":
                R = R.copy()
                R[1] = R[0] + 1e-12 * R[1]
            return R

        def dstebz(d, e, rng, vl, vu, *args):
            calls.append("dstebz")
            return sla.lapack.dstebz(d, e, rng, vl, _past(d, e, vu) if fault == "window" else vu, *args)

        def dstein(*args):
            calls.append("dstein")
            T, info = sla.lapack.dstein(*args)
            return (T, 2) if fault == "stein_info" else (faulty(T.T).T, info)

        def dgtsv(*args):
            calls.append("dgtsv")
            *lu, X, info = sla.lapack.dgtsv(*args)
            if not persist:
                return (*lu, X, info)
            return (*lu, faulty(X.reshape(-1, n)).reshape(-1, 1), 2 if fault == "stein_info" else info)

        def dsygvd(a, b, uplo):
            skewed = fault == "skew" and (persist or "dgtsv" not in calls)
            calls.append("dsygvd")
            mus, Q, info = sla.lapack.dsygvd(a, b, uplo=uplo)
            return mus, Q * (1.0 + 1e-9) if skewed else Q, info

        return _lapack_with(dstebz=dstebz, dstein=dstein, dgtsv=dgtsv, dsygvd=dsygvd)

    @pytest.mark.parametrize("fault", ["residual", "stein_info", "parallel", "skew"])
    def test_loose_pass_that_fails_is_redone_tight(self, monkeypatch, fault):
        """A cold seed that fails in any of the ways of `_faulty_lapack` is redone by the
        certification loop: after one ?stebz call and at least one step, eig_window
        returns the tight solve's count, mu within 1e-12 and its subspace (every singular
        value of T T_tight^T within 1e-12 of 1), not marked warm."""
        ps = walls(HalfSpaceParams(-2.0, 0.0, 0.0), HalfSpaceParams(2.0, 0.0, 0.0))
        A, window = assemble_fiber(Grid1D(L=20.0, N=800), ps, 6.0), (-3.5, 3.5)
        tight = _tight(monkeypatch, A, window)
        assert eig_window(A, window).steps == 0
        calls = []
        monkeypatch.setattr(fiber, "lapack", self._faulty_lapack(fault, calls, 2 * A.grid.N, persist=False))
        pairs = eig_window(A, window)
        assert calls.count("dstebz") == 1 and not pairs.warm and pairs.steps >= 1
        assert len(pairs) == len(tight) > 1
        assert np.max(np.abs(pairs.mu - tight.mu)) <= 1e-12
        sv = np.linalg.svd(pairs.t @ tight.t.T, compute_uv=False)
        assert np.max(np.abs(sv - 1.0)) <= 1e-12

    @pytest.mark.parametrize(
        "fault, message, gtsv_calls",
        [
            ("stein_info", "LAPACK info 2", 2),
            ("parallel", "LAPACK info", 1),
            ("residual", "exceeds contract", fiber._WARM_STEPS),
            ("skew", "off orthonormal", fiber._WARM_STEPS),
            ("slope", "Lipschitz bound", fiber._WARM_STEPS),
            ("slope_low", "Lipschitz bound", fiber._WARM_STEPS),
            ("window", r"on \[-3, 3\].*outside the window", fiber._WARM_STEPS),
        ],
        ids=["stein_info", "parallel", "residual", "skew", "slope", "slope_low", "window"],
    )
    def test_fault_at_every_step_raises(self, monkeypatch, fault, message, gtsv_calls):
        """A fault that hits the cold seed and every step of the certification loop is a
        SolverError that says what the last block missed: ?gtsv fails at the moved
        shifts too (stein_info), the Cholesky factor fails after the first step
        (parallel), or each of the _WARM_STEPS steps misses the residual contract, the
        orthonormality bound, the slope bound (every slope 1 + 1e-9, or -1 - 1e-9) or
        the window test; the error names the window."""
        A = assemble_fiber(Grid1D(L=8.0, N=200), CONST_220, 0.0)
        calls = []
        monkeypatch.setattr(fiber, "lapack", self._faulty_lapack(fault, calls, 2 * A.grid.N, persist=True))
        if fault in _SLOPES:
            monkeypatch.setattr(fiber, "slopes_of", lambda V: np.full(len(V), _SLOPES[fault]))
        with pytest.raises(SolverError, match=message):
            eig_window(A, (-3.0, 3.0))
        assert calls.count("dstebz") == 1 and calls.count("dgtsv") == gtsv_calls

    def test_slopes_inside_the_rounding_margin_are_certified(self, monkeypatch):
        """Every slope 1 + 1e-13, inside the bound's 1e-12 margin: the cold seed's block
        is certified and served at step 0, with no ?gtsv call."""
        A = assemble_fiber(Grid1D(L=8.0, N=200), CONST_220, 0.0)
        calls = []
        monkeypatch.setattr(fiber, "lapack", self._faulty_lapack(None, calls, 2 * A.grid.N, persist=True))
        monkeypatch.setattr(fiber, "slopes_of", lambda V: np.full(len(V), 1.0 + 1e-13))
        pairs = eig_window(A, (-3.0, 3.0))
        assert len(pairs) > 0 and pairs.steps == 0 and "dgtsv" not in calls
        assert np.all(pairs.slope == 1.0 + 1e-13)

    @pytest.mark.parametrize("zeta", [-2.0, 0.0, 2.0, 4.0, 6.0, 8.0])
    def test_loose_solve_agrees_with_tight(self, monkeypatch, zeta):
        """fig2's geometry (dual_wall_v01, L = 20, N = 800, window (-4, 4)): the solve
        at _BISECT_TOL and one bisected to _TIGHT_TOL find the same count, mu within
        1e-12, and the same subspace: every singular value of T_loose T_tight^T lies
        within 1e-12 of 1."""
        A = assemble_fiber(Grid1D(L=20.0, N=800), preset_profiles("dual_wall_v01"), zeta)
        loose = eig_window(A, (-4.0, 4.0))
        tight = _tight(monkeypatch, A, (-4.0, 4.0))
        assert len(loose) == len(tight) > 0
        assert np.max(np.abs(loose.mu - tight.mu)) <= 1e-12
        sv = np.linalg.svd(loose.t @ tight.t.T, compute_uv=False)
        assert np.max(np.abs(sv - 1.0)) <= 1e-12


def _same_block(p: Eigenpairs, q: Eigenpairs) -> bool:
    """Bit-for-bit equal blocks, the warm flag and step counts included."""
    arrays = all(np.array_equal(getattr(p, f), getattr(q, f)) for f in ("mu", "t", "residual", "slope"))
    return arrays and (p.warm, p.steps) == (q.warm, q.steps)


def _past(d: np.ndarray, e: np.ndarray, hi: float) -> float:
    """A point between the two lowest eigenvalues of tridiag(e, d, e) above hi, so that
    (hi, _past] holds exactly one."""
    return float(np.mean(sla.eigvalsh_tridiagonal(d, e, select="v", select_range=(hi, hi + 1.0))[:2]))


def _lapack_with(**names):
    """scipy's LAPACK wrappers with `names` put in place of some of them."""
    return SimpleNamespace(**vars(sla.lapack) | names)


class TestWarmStart:
    """`eig_window` started from the block of a nearby zeta (fig2's geometry unless named)."""

    GRID, WINDOW = Grid1D(L=20.0, N=800), (-4.0, 4.0)

    def _fiber(self, zeta):
        return assemble_fiber(self.GRID, preset_profiles("dual_wall_v01"), zeta)

    @staticmethod
    def _served_as_tight(monkeypatch, A, window, guess, step):
        """The warm block of A from `guess`, after checking that the warm attempt serves
        the solve and finds the tight solve's count, mu within 1e-12 and its subspace:
        every singular value of T_warm T_tight^T lies within 1e-13 of 1."""
        warm = eig_window(A, window, guess, step)
        tight = _tight(monkeypatch, A, window)
        assert warm.warm
        assert len(warm) == len(tight) > 0
        assert np.max(np.abs(warm.mu - tight.mu)) <= 1e-12
        sv = np.linalg.svd(warm.t @ tight.t.T, compute_uv=False)
        assert np.max(np.abs(sv - 1.0)) <= 1e-13
        return warm

    @pytest.mark.parametrize("step", [0.2, 0.05])
    @pytest.mark.parametrize("zeta", [-2.0, 0.0, 2.0, 4.0, 6.0, 8.0])
    def test_warm_solve_agrees_with_tight(self, monkeypatch, zeta, step):
        """Started from the solve at zeta - step, the warm attempt serves the solve as
        `_served_as_tight` checks (measured: mu within 8.0e-15, singular values within
        1.6e-15 of 1)."""
        guess = eig_window(self._fiber(zeta - step), self.WINDOW)
        self._served_as_tight(monkeypatch, self._fiber(zeta), self.WINDOW, guess, step)

    @pytest.mark.parametrize(
        "zeta, k, c, through_lo",
        [(-3.4, 0, 1, 1), (-2.6, 1, 2, 0), (-1.6, 2, 3, 1), (-0.4, 4, 6, 1), (4.4, 13, 12, 0)],
        ids=["0-to-1-at-lo", "1-to-2-at-hi", "2-to-3-at-lo", "4-to-6-at-both-edges", "13-to-12-at-hi"],
    )
    def test_count_change_is_served_warm(self, monkeypatch, zeta, k, c, through_lo):
        """Steps of fig2's sweep, from zeta - 0.2, across which the window's count goes
        k -> c and `through_lo` states cross lo (the rest of the change is at hi): the
        guess is mapped by Sturm index and the states that entered are seeded from the
        edge strips (with k = 0, from the strips alone).  Served as `_served_as_tight`
        checks (measured: mu within 4.0e-15, singular values within 8.9e-16 of 1)."""
        A, prev = self._fiber(zeta), self._fiber(zeta - 0.2)
        guess = eig_window(prev, self.WINDOW)
        lo = self.WINDOW[0]
        below = [fiber.count_eigenvalues(B.d, B.e, -np.inf, lo) for B in (prev, A)]
        assert len(guess) == k and below[0] - below[1] == through_lo
        assert len(self._served_as_tight(monkeypatch, A, self.WINDOW, guess, 0.2)) == c

    def test_split_block_entries_are_the_lowest_by_value(self, monkeypatch):
        """A Jacobi matrix that splits into two blocks at a zero coupling, stepped by
        0.5 along the on-site pencil: two states enter through lo, and the strip
        (lo, lo + 0.5] holds four values, which ?stebz lists block by block, so its
        first two are not the lowest two.  The lowest two by value are seeded, and the
        solve is served as `_served_as_tight` checks."""
        rng = np.random.default_rng(3)
        d, e1, e2 = rng.uniform(-0.5, 0.5, 32), rng.uniform(0.8, 1.2, 15), rng.uniform(0.8, 1.2, 15)
        e = np.concatenate([e1, [0.0], e2])
        e_prev = e.copy()
        e_prev[0::2] += 0.5
        grid, window = Grid1D(L=1.0, N=16), (-1.5, 0.5)
        A = FiberMatrix(grid=grid, d=d, e=e)
        guess = eig_window(FiberMatrix(grid=grid, d=d, e=e_prev), window)
        m, w, iblock = sla.lapack.dstebz(d, e, 1, -1.5, -1.0, 0, 0, fiber._BISECT_TOL, "B")[:3]
        assert m == 4 and iblock[:m].tolist() == [1, 1, 2, 2] and w[1] > w[2]
        assert len(self._served_as_tight(monkeypatch, A, window, guess, 0.5)) == len(guess) + 2

    @pytest.mark.parametrize("zeta", [-2.0, 0.0, 2.0, 4.0, 6.0, 8.0])
    def test_near_guess_is_certified_after_one_step(self, monkeypatch, zeta):
        """Started from the solve at zeta - 1e-3, the predicted shifts are all but exact:
        the first step's block is certified and returned, after one ?gtsv call."""
        guess = eig_window(self._fiber(zeta - 1e-3), self.WINDOW)
        solves = []

        def dgtsv(*args):
            solves.append(args)
            return sla.lapack.dgtsv(*args)

        monkeypatch.setattr(fiber, "lapack", _lapack_with(dgtsv=dgtsv))
        pairs = eig_window(self._fiber(zeta), self.WINDOW, guess, 1e-3)
        assert pairs.warm and len(pairs) == len(guess) > 0 and len(solves) == 1 and pairs.steps == 1

    def test_empty_window_returns_the_empty_block(self):
        """A count of 0 needs no iteration: the empty block, marked warm after 0 steps,
        from an empty guess or from one whose one state left the window."""
        for zeta, window, k in [(0.0, (-0.3, -0.2), 0), (4.4, (3.30, 3.34), 1)]:
            guess = eig_window(self._fiber(zeta - 0.2), window)
            pairs = eig_window(self._fiber(zeta), window, guess, 0.2)
            assert len(guess) == k and pairs.warm and pairs.steps == 0
            assert len(pairs) == 0 and pairs.t.shape == (0, 2 * self.GRID.N)

    def test_guess_of_another_size_falls_back(self, monkeypatch):
        """A guess that is not the whole window block at z_prev falls back: the window
        count at z_prev is not len(guess), so no warm step runs, and the cold block
        comes back, bit for bit."""
        A = self._fiber(4.0)
        guess = eig_window(self._fiber(3.8), self.WINDOW)[1:]
        cold = eig_window(A, self.WINDOW)
        monkeypatch.setattr(fiber, "lapack", _lapack_with(dgtsv=None))
        pairs = eig_window(A, self.WINDOW, guess, 0.2)
        assert len(guess) != len(cold) and not cold.warm
        assert _same_block(pairs, cold)

    @pytest.mark.parametrize("fault", ["noise", "parallel"])
    def test_skewed_inverse_iteration_falls_back(self, monkeypatch, fault):
        """?gtsv returns a skewed block: noise of 1e-4 (the residual contract sees it)
        or a second row that is a near-copy of the first (the Cholesky factor or the
        orthonormality bound sees it).  The warm attempt runs all _WARM_STEPS steps
        (noise) or stops at the failed Cholesky factor and falls through to the cold
        block, bit for bit.  No warm block gets slopes: those outside the residual
        contract skip the rest of the certificate, so only the cold seed's step 0
        computes them."""
        A = self._fiber(4.0)
        guess = eig_window(self._fiber(3.8), self.WINDOW)
        cold = eig_window(A, self.WINDOW)
        calls, sloped = [], []
        real_slopes = fiber.slopes_of
        monkeypatch.setattr(fiber, "slopes_of", lambda V: sloped.append(len(calls)) or real_slopes(V))

        def dgtsv(*args):
            *lu, X, info = sla.lapack.dgtsv(*args)
            calls.append(info)
            X = X.reshape(len(guess), -1)
            if fault == "noise":
                X = X + 1e-4 * np.abs(X).max() * np.random.default_rng(5).standard_normal(X.shape)
            else:
                X[1] = X[0] + 1e-12 * X[1]
            return (*lu, X.reshape(-1, 1), info)

        monkeypatch.setattr(fiber, "lapack", _lapack_with(dgtsv=dgtsv))
        pairs = eig_window(A, self.WINDOW, guess, 0.2)
        assert calls and _same_block(pairs, cold)
        assert sloped == [len(calls)]
        if fault == "noise":
            assert len(calls) == fiber._WARM_STEPS

    @pytest.mark.parametrize("fault", ["slope", "orthonormality", "window"])
    def test_block_inside_the_contract_that_misses_a_certificate_falls_back(self, monkeypatch, fault):
        """Started from the solve at zeta - 1e-3, every warm step's block meets the
        residual contract, but its slopes come back as 1 + 1e-9 (the slope bound sees
        it), its Ritz vectors 1e-9 too long (only the orthonormality bound sees it), or
        the guess, of the window's size, runs from the window's second state to the
        first one beyond hi (only the window test sees it).  Each block's slopes are
        computed once its residuals pass, the block is rejected, and after _WARM_STEPS
        steps the cold block comes back, bit for bit."""
        A, prev = self._fiber(4.0), self._fiber(4.0 - 1e-3)
        lo, hi = self.WINDOW
        if fault == "window":
            guess = eig_window(prev, (lo, _past(prev.d, prev.e, hi)))[1:]
        else:
            guess = eig_window(prev, self.WINDOW)
        cold = eig_window(A, self.WINDOW)
        assert len(guess) == len(cold)
        real_slopes, warm_steps, checked = fiber.slopes_of, [], []

        def dgtsv(*args):
            warm_steps.append(args)
            return sla.lapack.dgtsv(*args)

        def dstebz(*args):  # the window count, then the cold seed: no fault from here on
            warm_steps.clear()
            return sla.lapack.dstebz(*args)

        def dsygvd(a, b, uplo):
            mus, Q, info = sla.lapack.dsygvd(a, b, uplo=uplo)
            return mus, Q * (1.0 + 1e-9) if fault == "orthonormality" and warm_steps else Q, info

        def slopes_of(V):
            checked.append(len(warm_steps))
            slopes = real_slopes(V)
            return np.full_like(slopes, 1.0 + 1e-9) if fault == "slope" and warm_steps else slopes

        monkeypatch.setattr(fiber, "lapack", _lapack_with(dgtsv=dgtsv, dstebz=dstebz, dsygvd=dsygvd))
        monkeypatch.setattr(fiber, "slopes_of", slopes_of)
        pairs = eig_window(A, self.WINDOW, guess, 1e-3)
        # slopes at warm steps 1, 2 and 3, then once more for the cold seed
        assert checked == list(range(1, fiber._WARM_STEPS + 1)) + [0]
        assert _same_block(pairs, cold) and not pairs.warm

    def test_shifts_on_exact_eigenvalues_are_served_warm(self, monkeypatch):
        """A diagonal matrix whose predicted shifts are diagonal entries: the first solve
        meets a zero pivot, the step is redone at shifts moved by 1e-10 (1 + |shift|),
        and the block is served warm after that one step, exact."""
        A = FiberMatrix(grid=Grid1D(L=1.0, N=16), d=np.arange(32, dtype=float), e=np.zeros(31))
        cold = eig_window(A, (4.5, 7.5))
        infos = []

        def dgtsv(*args):
            *lu, X, info = sla.lapack.dgtsv(*args)
            infos.append(info)
            return (*lu, X, info)

        monkeypatch.setattr(fiber, "lapack", _lapack_with(dgtsv=dgtsv))
        pairs = eig_window(A, (4.5, 7.5), cold, 0.0)
        assert cold.mu.tolist() == [5.0, 6.0, 7.0] and not cold.warm
        assert len(infos) == 2 and infos[0] > 0 and infos[1] == 0
        assert pairs.warm and pairs.steps == 1 and pairs.mu.tolist() == [5.0, 6.0, 7.0]
        assert np.array_equal(np.abs(pairs.t), np.abs(cold.t)) and not pairs.residual.any()

    def test_zero_pivot_twice_falls_back(self, monkeypatch):
        """A ?gtsv that always reports a zero pivot: the step is tried at the moved
        shifts once, then the cold block comes back, bit for bit."""
        A = self._fiber(4.0)
        guess = eig_window(self._fiber(3.8), self.WINDOW)
        cold = eig_window(A, self.WINDOW)
        calls = []

        def dgtsv(*args):
            *lu, X, _ = sla.lapack.dgtsv(*args)
            calls.append(args)
            return (*lu, X, 7)

        monkeypatch.setattr(fiber, "lapack", _lapack_with(dgtsv=dgtsv))
        pairs = eig_window(A, self.WINDOW, guess, 0.2)
        assert len(calls) == 2 and not np.array_equal(calls[0][1], calls[1][1])
        assert _same_block(pairs, cold)


class TestFilter:
    def test_interior_state_kept(self):
        g = Grid1D(L=8.0, N=128)
        psi = np.zeros(2 * g.N, dtype=complex)
        interior = np.abs(g.x) < g.L / 2
        psi[0::2][interior] = 1.0
        psi /= np.linalg.norm(psi)
        assert boundary_mass(psi, g, g.L / 4) == 0.0
        pairs = _block(psi)
        kept = filter_spurious(pairs, g, SpuriousFilter(margin=g.L / 4, threshold=0.5))
        assert len(kept) == 1 and np.array_equal(kept.t, pairs.t) and kept.mass.tolist() == [0.0]

    def test_boundary_state_removed(self):
        g = Grid1D(L=8.0, N=128)
        psi = np.zeros(2 * g.N, dtype=complex)
        strip = g.x > g.L - 1.0
        psi[0::2][strip] = 3.0
        psi[0::2][g.N // 2] = 1.0
        psi /= np.linalg.norm(psi)
        assert boundary_mass(psi, g, 2.0) > 0.5
        kept = filter_spurious(_block(psi), g, SpuriousFilter(margin=2.0, threshold=0.5))
        assert len(kept) == 0 and kept.t.shape == (0, 2 * g.N)

    def test_retained_states_interior_at_large_zeta(self):
        """Opposite-sign field wall at zeta = 6: retained states stay interior."""
        ps = walls(HalfSpaceParams(-2.0, 0.0, 0.0), HalfSpaceParams(2.0, 0.0, 0.0))
        g = Grid1D(L=20.0, N=800)
        f = SpuriousFilter(margin=2.5, threshold=0.3)
        kept = filter_spurious(eig_window(assemble_fiber(g, ps, 6.0), (-4.0, 4.0)), g, f)
        assert kept
        for p in kept:
            assert p.mass == boundary_mass(spinors(p), g, f.margin) < 0.05

    def test_zone_edge_fraction_separates(self):
        g = Grid1D(L=4.0, N=64)
        smooth = np.exp(-g.x ** 2)
        psi_smooth = np.zeros(2 * g.N, dtype=complex)
        psi_smooth[0::2] = smooth
        alt = smooth * (-1.0) ** np.arange(g.N)
        psi_alt = np.zeros(2 * g.N, dtype=complex)
        psi_alt[0::2] = alt
        assert zone_edge_fraction(psi_smooth) < 0.1
        assert zone_edge_fraction(psi_alt) > 0.9

    def test_filter_validation(self):
        with pytest.raises(ValueError):
            SpuriousFilter(margin=0.0)
        with pytest.raises(ValueError):
            SpuriousFilter(margin=1.0, threshold=1.5)
        g = Grid1D(L=16.0, N=64)
        assert SpuriousFilter.default(g).margin == 2.0


class TestJacobiForm:
    """The Dirichlet fiber in real tridiagonal (Jacobi) form and its solver."""

    def test_dirichlet_stencil_by_hand(self):
        """Entrywise check of the Dirichlet dense view against the stencil."""
        ps = walls(HalfSpaceParams(-2.0, -1.5, -0.3), HalfSpaceParams(1.5, 2.0, 0.4))
        g = Grid1D(L=3.0, N=24)
        h, x = g.h, g.x
        zeta = -0.7
        m, V, A2 = evaluate(ps.m, x), evaluate(ps.V, x), magnetic_potential(ps, x)
        H = dense_fiber(assemble_fiber(g, ps, zeta))
        want = np.zeros((48, 48), dtype=complex)
        for i in range(24):
            want[2 * i, 2 * i] = V[i] + m[i]
            want[2 * i + 1, 2 * i + 1] = V[i] - m[i]
            # 1/h - w with w = zeta - A2, summed as the pencil e0 - zeta s does
            want[2 * i, 2 * i + 1] = 1j * ((1.0 / h + A2[i]) - zeta)
            want[2 * i + 1, 2 * i] = -1j * ((1.0 / h + A2[i]) - zeta)
            if i + 1 < 24:
                want[2 * i, 2 * i + 3] = -1j / h
                want[2 * i + 3, 2 * i] = 1j / h
        assert np.max(np.abs(H - want)) == 0.0

    @pytest.mark.parametrize(
        "L, N, zetas",
        [(12.0, 200, (-3.0, 0.4, 5.5)), (12.0, 800, (-1.2, 4.0)), (20.0, 800, (1.5,))],
        ids=["200-zetas0", "800-zetas1", "L20-800"],
    )
    def test_matches_dense_eigh(self, rng, L, N, zetas):
        """Same count, mu within 1e-12, residual certified on the dense view."""
        ps = walls(
            HalfSpaceParams(float(rng.uniform(-3, -0.5)), float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1))),
            HalfSpaceParams(float(rng.uniform(0.5, 3)), float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1))),
        )
        g = Grid1D(L=L, N=N)
        window = (-4.0, 4.0)
        found = 0
        for zeta in zetas:
            A = assemble_fiber(g, ps, zeta)
            pairs = eig_window(A, window)
            H = dense_fiber(A)
            dense = np.linalg.eigvalsh(H)
            dense = dense[(dense >= window[0]) & (dense <= window[1])]
            assert len(pairs) == dense.size
            assert np.all(np.abs(np.array([p.mu for p in pairs]) - dense) < 1e-12)
            for p in pairs:
                psi = spinors(p)
                r = np.linalg.norm(H @ psi - p.mu * psi)
                assert r <= 1e-8 * (1.0 + abs(p.mu))
            found += len(pairs)
        assert found > 0

    def test_zeta_enters_only_onsite(self):
        """H(zeta) = T0 - zeta S: d and the hops are fixed, on-site entries shift by zeta."""
        ps = walls(HalfSpaceParams(-2.0, -2.0, -0.1), HalfSpaceParams(2.0, 2.0, 0.1))
        g = Grid1D(L=8.0, N=160)
        z1, z2 = 1.75, -0.5
        a, b = assemble_fiber(g, ps, z1), assemble_fiber(g, ps, z2)
        assert np.array_equal(a.d, b.d)
        assert np.array_equal(a.e[1::2], b.e[1::2])
        # exact up to the rounding of one subtraction per entry
        ulp = np.spacing(np.max(np.abs(a.e)))
        assert np.max(np.abs((b.e[0::2] - a.e[0::2]) - (z1 - z2))) <= 4 * ulp


class TestSlopes:
    """Hellmann-Feynman slopes d mu/d zeta = <psi, sigma_2 psi> on each eigenpair."""

    PS = walls(HalfSpaceParams(-2.0, -2.0, -0.1), HalfSpaceParams(2.0, 2.0, 0.1))
    GRID = Grid1D(L=10.0, N=300)

    def test_jacobi_slope_matches_central_difference(self):
        h = 1e-4
        checked = 0
        for zeta in (-3.0, 0.7, 4.2):
            pairs = eig_window(assemble_fiber(self.GRID, self.PS, zeta), (-3.0, 3.0))
            plus = eig_window(assemble_fiber(self.GRID, self.PS, zeta + h), (-3.5, 3.5))
            minus = eig_window(assemble_fiber(self.GRID, self.PS, zeta - h), (-3.5, 3.5))
            for p in pairs:
                mp = min((q.mu for q in plus), key=lambda mu: abs(mu - p.mu))
                mm = min((q.mu for q in minus), key=lambda mu: abs(mu - p.mu))
                assert abs((mp - mm) / (2 * h) - p.slope) <= 1e-8
                checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("zeta", [-2.5, 0.3, 3.9])
    def test_jacobi_and_dense_slopes_agree(self, zeta):
        A = assemble_fiber(self.GRID, self.PS, zeta)
        jac = eig_window(A, (-3.0, 3.0))
        _, vecs = sla.eigh(dense_fiber(A), subset_by_value=(-3.0, 3.0))
        dense = [np.real(np.vdot(v, _sigma2(v))) for v in vecs.T]
        assert len(jac) == len(dense) > 0
        for p, slope in zip(jac, dense):
            assert abs(p.slope - slope) <= 1e-10
            psi = spinors(p)
            assert abs(p.slope - np.real(np.vdot(psi, _sigma2(psi)))) <= 1e-12


def _jacobi(psi: np.ndarray) -> np.ndarray:
    """The real Jacobi vector t of a spinor with real up and imaginary down parts:
    t_2i = i psi_down,i, t_2i+1 = psi_up,i (the inverse of `spinors`)."""
    t = np.empty(psi.size)
    t[0::2] = (1j * psi[1::2]).real
    t[1::2] = psi[0::2].real
    return t


def _block(psi: np.ndarray) -> Eigenpairs:
    """A one-row block holding the spinor psi at mu = 0."""
    return Eigenpairs(mu=np.zeros(1), t=_jacobi(psi)[None, :], residual=np.zeros(1), slope=np.zeros(1))


def _sigma2(psi: np.ndarray) -> np.ndarray:
    """sigma_2 applied to an interleaved (up, down) spinor."""
    out = np.empty_like(psi)
    out[0::2] = -1j * psi[1::2]
    out[1::2] = 1j * psi[0::2]
    return out
