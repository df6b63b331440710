"""Fiber-matrix assembly, windowed eigensolves, and the boundary filter."""

import math

import numpy as np
import pytest

from diracflow.bulk import HalfSpaceParams, landau_levels
from diracflow.fiber import (
    FiberMatrix,
    Grid1D,
    SpuriousFilter,
    assemble_fiber,
    boundary_mass,
    eig_window,
    filter_spurious,
    zone_edge_fraction,
)
from diracflow.profiles import (
    ProfileSet,
    SwitchProfile,
    evaluate,
    magnetic_potential,
    sup_A2_prime,
)

from conftest import walls

CONST_220 = ProfileSet(
    B=SwitchProfile(2.0, 2.0), m=SwitchProfile(2.0, 2.0), V=SwitchProfile(0.0, 0.0)
)


class TestGrid1D:
    def test_spacing_and_sites(self):
        g = Grid1D(L=1.0, N=21)
        assert g.h == pytest.approx(0.1)
        assert g.x[0] == -1.0 and g.x[-1] == pytest.approx(1.0)
        gp = Grid1D(L=1.0, N=20, bc="periodic")
        assert gp.h == pytest.approx(0.1)
        assert gp.x[-1] == pytest.approx(1.0 - gp.h)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(L=1.0, N=8)
        with pytest.raises(ValueError):
            Grid1D(L=0.0, N=32)
        with pytest.raises(ValueError):
            Grid1D(L=1.0, N=32, bc="absorbing")


class TestAssembly:
    def test_hermitian_bit_exact(self, rng):
        for _ in range(10):
            ps = walls(
                HalfSpaceParams(float(rng.uniform(0.5, 3)), float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1))),
                HalfSpaceParams(float(rng.uniform(-3, -0.5)), float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1))),
            )
            bc = "periodic" if rng.random() < 0.5 else "dirichlet"
            g = Grid1D(L=5.0, N=48, bc=bc)
            H = assemble_fiber(g, ps, float(rng.uniform(-4, 4))).entries
            assert np.max(np.abs(H - H.conj().T)) == 0.0

    def test_stencil_by_hand(self):
        """Entrywise check of the staggered stencil on a tiny periodic grid."""
        ps = ProfileSet(
            B=SwitchProfile(2.0, 2.0), m=SwitchProfile(0.0, 0.0), V=SwitchProfile(0.0, 0.0)
        )
        g = Grid1D(L=1.0, N=16, bc="periodic")
        h = g.h
        zeta = 0.3
        H = assemble_fiber(g, ps, zeta).entries
        want = np.zeros((32, 32), dtype=complex)
        for i in range(16):
            x = -1.0 + i * h
            w = zeta - 2.0 * x
            want[2 * i, 2 * i + 1] = 1j * (1.0 / h - w)
            want[2 * i + 1, 2 * i] = -1j * (1.0 / h - w)
            j = (i + 1) % 16
            want[2 * i, 2 * j + 1] += -1j / h
            want[2 * j + 1, 2 * i] += 1j / h
        assert np.max(np.abs(H - want)) == 0.0

    def test_dirichlet_truncates(self):
        ps = CONST_220
        g = Grid1D(L=1.0, N=16, bc="dirichlet")
        H = assemble_fiber(g, ps, 0.0).entries
        assert H[2 * 15, 1] == 0.0 and H[1, 2 * 15] == 0.0

    def test_chiral_symmetry(self, rng):
        """With m = V = 0 the spectrum is symmetric under negation (1e-10)."""
        ps = ProfileSet(
            B=SwitchProfile(-2.0, 2.0), m=SwitchProfile(0.0, 0.0), V=SwitchProfile(0.0, 0.0)
        )
        g = Grid1D(L=6.0, N=120)
        for zeta in (-2.0, 0.0, 1.7):
            vals = np.linalg.eigvalsh(assemble_fiber(g, ps, zeta).entries)
            assert np.max(np.abs(np.sort(vals) + np.sort(-vals)[::-1])) < 1e-10

    def test_v_shift_exact(self):
        """Adding a constant to V shifts the whole spectrum by it (1e-12)."""
        base = walls(HalfSpaceParams(-2.0, -1.0, -0.3), HalfSpaceParams(2.0, 1.0, 0.4))
        shifted = walls(HalfSpaceParams(-2.0, -1.0, 0.4), HalfSpaceParams(2.0, 1.0, 1.1))
        g = Grid1D(L=6.0, N=120)
        for zeta in (-1.0, 0.5):
            a = np.linalg.eigvalsh(assemble_fiber(g, base, zeta).entries)
            b = np.linalg.eigvalsh(assemble_fiber(g, shifted, zeta).entries)
            assert np.max(np.abs(b - (a + 0.7))) < 1e-12


class TestEigWindow:
    def test_diagonal_matrix(self):
        g = Grid1D(L=1.0, N=16)
        d = np.arange(32, dtype=float)
        A = FiberMatrix(zeta=0.0, grid=g, entries=np.diag(d).astype(complex))
        pairs = eig_window(A, (4.5, 7.5))
        assert [p.mu for p in pairs] == [5.0, 6.0, 7.0]

    def test_constant_bulk_matches_landau(self):
        """N=800 interior levels vs the closed form, after artifact removal."""
        g = Grid1D(L=20.0, N=800)
        pairs = eig_window(assemble_fiber(g, CONST_220, 0.0), (-4.0, 4.0))
        kept = filter_spurious(pairs, g, SpuriousFilter(margin=5.0, threshold=0.3))
        kept = [p for p in kept if zone_edge_fraction(p.psi) < 0.5]
        mus = np.array([p.mu for p in kept])
        for lev in landau_levels(HalfSpaceParams(2.0, 2.0, 0.0), 2).levels:
            assert np.min(np.abs(mus - lev)) < 1e-2

    def test_banded_path_matches_dense(self):
        """The banded + inverse-iteration path must agree with a dense solve."""
        ps = walls(HalfSpaceParams(-2.0, -2.0, -0.1), HalfSpaceParams(2.0, 2.0, 0.1))
        g = Grid1D(L=20.0, N=800)  # above the dense cutoff
        A = assemble_fiber(g, ps, 1.5)
        mus = np.array([p.mu for p in eig_window(A, (-3.0, 3.0))])
        dense = np.linalg.eigvalsh(A.entries)
        dense = dense[(dense >= -3.0) & (dense <= 3.0)]
        assert mus.size == dense.size
        assert np.max(np.abs(mus - dense)) < 1e-9

    def test_residual_and_orthogonality(self):
        ps = walls(HalfSpaceParams(-2.0, 0.0, 0.0), HalfSpaceParams(2.0, 0.0, 0.0))
        g = Grid1D(L=20.0, N=800)
        pairs = eig_window(assemble_fiber(g, ps, 6.0), (-3.5, 3.5))
        assert pairs, "expected states in the window"
        for p in pairs:
            assert p.residual <= 1e-8 * (1.0 + abs(p.mu))
        V = np.array([p.psi for p in pairs])
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
        assert pairs == []

    def test_sorted_by_mu(self):
        ps = walls(HalfSpaceParams(-2.0, -2.0, 0.0), HalfSpaceParams(2.0, 2.0, 0.0))
        g = Grid1D(L=8.0, N=200)
        mus = [p.mu for p in eig_window(assemble_fiber(g, ps, 0.0), (-3.0, 3.0))]
        assert mus == sorted(mus)


class TestFilter:
    def test_interior_state_kept(self):
        g = Grid1D(L=8.0, N=128)
        psi = np.zeros(2 * g.N, dtype=complex)
        interior = np.abs(g.x) < g.L / 2
        psi[0::2][interior] = 1.0
        psi /= np.linalg.norm(psi)
        assert boundary_mass(psi, g, g.L / 4) == 0.0
        pairs = [type("P", (), {"psi": psi, "mu": 0.0, "residual": 0.0})()]
        assert filter_spurious(pairs, g, SpuriousFilter(margin=g.L / 4, threshold=0.5)) == pairs

    def test_boundary_state_removed(self):
        g = Grid1D(L=8.0, N=128)
        psi = np.zeros(2 * g.N, dtype=complex)
        strip = g.x > g.L - 1.0
        psi[0::2][strip] = 3.0
        psi[0::2][g.N // 2] = 1.0
        psi /= np.linalg.norm(psi)
        assert boundary_mass(psi, g, 2.0) > 0.5
        pairs = [type("P", (), {"psi": psi, "mu": 0.0, "residual": 0.0})()]
        assert filter_spurious(pairs, g, SpuriousFilter(margin=2.0, threshold=0.5)) == []

    def test_retained_states_interior_at_large_zeta(self):
        """Opposite-sign field wall at zeta = 6: retained states stay interior."""
        ps = walls(HalfSpaceParams(-2.0, 0.0, 0.0), HalfSpaceParams(2.0, 0.0, 0.0))
        g = Grid1D(L=20.0, N=800)
        f = SpuriousFilter(margin=2.5, threshold=0.3)
        kept = filter_spurious(eig_window(assemble_fiber(g, ps, 6.0), (-4.0, 4.0)), g, f)
        assert kept
        for p in kept:
            assert boundary_mass(p.psi, g, f.margin) < 0.05

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
        H = assemble_fiber(g, ps, zeta).entries
        want = np.zeros((48, 48), dtype=complex)
        for i in range(24):
            want[2 * i, 2 * i] = V[i] + m[i]
            want[2 * i + 1, 2 * i + 1] = V[i] - m[i]
            w = zeta - A2[i]
            want[2 * i, 2 * i + 1] = 1j * (1.0 / h - w)
            want[2 * i + 1, 2 * i] = -1j * (1.0 / h - w)
            if i + 1 < 24:
                want[2 * i, 2 * i + 3] = -1j / h
                want[2 * i + 3, 2 * i] = 1j / h
        assert np.max(np.abs(H - want)) == 0.0

    @pytest.mark.parametrize("N, zetas", [(200, (-3.0, 0.4, 5.5)), (800, (-1.2, 4.0))])
    def test_matches_dense_eigh(self, rng, N, zetas):
        """Same count, mu within 1e-12, residual certified on the dense view."""
        ps = walls(
            HalfSpaceParams(float(rng.uniform(-3, -0.5)), float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1))),
            HalfSpaceParams(float(rng.uniform(0.5, 3)), float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1))),
        )
        g = Grid1D(L=12.0, N=N)
        window = (-4.0, 4.0)
        found = 0
        for zeta in zetas:
            A = assemble_fiber(g, ps, zeta)
            pairs = eig_window(A, window)
            dense = np.linalg.eigvalsh(A.entries)
            dense = dense[(dense >= window[0]) & (dense <= window[1])]
            assert len(pairs) == dense.size
            assert np.all(np.abs(np.array([p.mu for p in pairs]) - dense) < 1e-12)
            for p in pairs:
                r = np.linalg.norm(A.entries @ p.psi - p.mu * p.psi)
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

    def test_needs_entries_or_jacobi_pair(self):
        with pytest.raises(ValueError):
            FiberMatrix(zeta=0.0, grid=Grid1D(L=1.0, N=16))
