"""Switch-profile unit and property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from diracflow.profiles import (
    DensityProfile,
    ProfileSet,
    SwitchProfile,
    derivative,
    evaluate,
    magnetic_potential,
)

from conftest import magnetic_potential_prime, sup_A2_prime

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


def profiles():
    return st.tuples(finite, finite, finite, finite).map(
        lambda t: SwitchProfile(t[0], t[1], min(t[2], t[3]) - 0.5, max(t[2], t[3]) + 0.5)
    )


class TestEvaluate:
    def test_worked_examples(self):
        p = SwitchProfile(0.0, 1.0, -1.0, 1.0)
        assert evaluate(p, -2.0) == 0.0
        assert evaluate(p, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert evaluate(SwitchProfile(2.0, -2.0, -1.0, 1.0), 3.0) == -2.0

    @given(profiles(), st.floats(min_value=0, max_value=100), st.booleans())
    def test_plateau_bit_exact(self, p, offset, below):
        x = p.t_lo - offset if below else p.t_hi + offset
        want = p.lower if below else p.upper
        assert evaluate(p, x) == want

    def test_plateau_bit_exact_bulk_sample(self, rng):
        p = SwitchProfile(0.37, -1.83, -0.5, 1.25)
        x = rng.uniform(-100, 100, 1_000_000)
        x = x[(x <= p.t_lo) | (x >= p.t_hi)]
        vals = evaluate(p, x)
        assert np.all(vals[x <= p.t_lo] == p.lower)
        assert np.all(vals[x >= p.t_hi] == p.upper)

    @given(profiles())
    def test_monotone_when_increasing(self, p):
        if p.lower > p.upper:
            p = SwitchProfile(p.upper, p.lower, p.t_lo, p.t_hi)
        v = evaluate(p, np.linspace(p.t_lo - 1, p.t_hi + 1, 501))
        assert np.all(np.diff(v) >= -1e-14)

    def test_scalar_and_array_agree(self):
        p = SwitchProfile(-1.0, 3.0, 0.0, 2.0)
        xs = np.linspace(-1, 3, 17)
        arr = evaluate(p, xs)
        assert arr.shape == xs.shape
        for x, v in zip(xs, arr):
            assert evaluate(p, float(x)) == v

    def test_invalid_transition_rejected(self):
        with pytest.raises(ValueError):
            SwitchProfile(0.0, 1.0, 1.0, 1.0)


class TestDerivative:
    def test_zero_on_plateaus(self):
        p = SwitchProfile(1.0, 4.0, -2.0, 0.5)
        assert derivative(p, p.t_lo - 1.0) == 0.0
        assert derivative(p, p.t_hi + 3.0) == 0.0

    def test_bump_derivative_integrates_to_one(self):
        p = SwitchProfile(0.0, 1.0, -1.0, 1.0)
        val, _ = quad(lambda x: derivative(p, x), -1.0, 1.0, limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_central_difference_consistency(self, rng):
        p = SwitchProfile(-2.0, 3.0, -1.3, 0.7)
        x = rng.uniform(p.t_lo + 0.05, p.t_hi - 0.05, 1000)
        eps = 1e-6
        fd = (evaluate(p, x + eps) - evaluate(p, x - eps)) / (2 * eps)
        assert np.max(np.abs(fd - derivative(p, x))) < 1e-6 * max(1.0, np.max(np.abs(fd)))


class TestMagneticPotential:
    def test_constant_field(self):
        ps = ProfileSet(
            B=SwitchProfile(2.0, 2.0), m=SwitchProfile(0.0, 0.0), V=SwitchProfile(0.0, 0.0)
        )
        assert magnetic_potential(ps, 3.0) == 6.0
        assert magnetic_potential(ps, 0.0) == 0.0

    def test_wall_plateau(self):
        ps = ProfileSet(
            B=SwitchProfile(-2.0, 2.0), m=SwitchProfile(0.0, 0.0), V=SwitchProfile(0.0, 0.0)
        )
        assert magnetic_potential(ps, -5.0) == 10.0
        assert magnetic_potential(ps, 0.0) == 0.0

    def test_prime_matches_difference_quotient(self, rng):
        ps = ProfileSet(
            B=SwitchProfile(-1.5, 3.0), m=SwitchProfile(0.0, 0.0), V=SwitchProfile(0.0, 0.0)
        )
        x = rng.uniform(-4, 4, 500)
        eps = 1e-6
        fd = (magnetic_potential(ps, x + eps) - magnetic_potential(ps, x - eps)) / (2 * eps)
        assert np.max(np.abs(fd - magnetic_potential_prime(ps, x))) < 1e-5

    def test_sup_constant(self):
        ps = ProfileSet(
            B=SwitchProfile(2.0, 2.0), m=SwitchProfile(0.0, 0.0), V=SwitchProfile(0.0, 0.0)
        )
        assert sup_A2_prime(ps, 10.0) == 2.0

    def test_sup_same_plateaus_any_transition(self):
        ps = ProfileSet(
            B=SwitchProfile(2.0, 2.0, -3.0, 3.0),
            m=SwitchProfile(0.0, 0.0),
            V=SwitchProfile(0.0, 0.0),
        )
        assert sup_A2_prime(ps, 10.0) == 2.0

    def test_sup_smooth_wall(self):
        ps = ProfileSet(
            B=SwitchProfile(-2.0, 2.0, -1.0, 1.0),
            m=SwitchProfile(0.0, 0.0),
            V=SwitchProfile(0.0, 0.0),
        )
        got = sup_A2_prime(ps, 10.0)
        x = np.linspace(-10, 10, 100_001)
        want = np.max(np.abs(magnetic_potential_prime(ps, x)))
        assert got == pytest.approx(want, rel=1e-3)
        assert got >= 2.0


class TestProfileSet:
    def test_zero_field_plateau_rejected(self):
        with pytest.raises(ValueError):
            ProfileSet(
                B=SwitchProfile(0.0, 2.0), m=SwitchProfile(0.0, 0.0), V=SwitchProfile(0.0, 0.0)
            )


class TestDensityProfile:
    def test_window_and_normalization(self):
        d = DensityProfile.from_window(-0.5, 0.5)
        assert d.window == (-0.5, 0.5)
        val, _ = quad(lambda x: derivative(d.phi, x), -0.5, 0.5, limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_phi_is_the_bump_across_an_increasing_window(self):
        for e1, e2 in [(0.5, 0.5), (1.0, -1.0)]:
            with pytest.raises(ValueError, match="invalid transition interval"):
                DensityProfile.from_window(e1, e2)
        assert DensityProfile.from_window(0.2, 0.6).phi == SwitchProfile(0.0, 1.0, 0.2, 0.6)
