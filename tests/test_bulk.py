"""Closed-form Landau spectra and the half-space flow prediction."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from diracflow.bulk import (
    HalfSpaceParams,
    check_density_window,
    count_levels,
    half_index,
    landau_levels,
    predicted_sf,
)
from diracflow.cli import half_spaces
from diracflow.config import config_from_dict
from diracflow.errors import BulkLevelError, WindowError
from diracflow.presets import PRESETS, preset_config

from conftest import gap_components_joint


class TestLandauLevels:
    def test_symmetric_example(self):
        spec = landau_levels(HalfSpaceParams(B=2.0, m=2.0, V=0.0), k_max=2)
        want = sorted([-math.sqrt(12), -math.sqrt(8), 2.0, math.sqrt(8), math.sqrt(12)])
        assert np.allclose(spec.levels, want, atol=1e-12)
        assert spec.zeroth_level == 2.0

    def test_negative_field_zeroth(self):
        spec = landau_levels(HalfSpaceParams(B=-2.0, m=2.0, V=0.0), k_max=1)
        assert np.allclose(spec.levels, [-math.sqrt(8), -2.0, math.sqrt(8)])
        assert spec.zeroth_level == -2.0

    def test_massless_shifted(self):
        spec = landau_levels(HalfSpaceParams(B=2.0, m=0.0, V=1.0), k_max=1)
        assert np.allclose(spec.levels, [-1.0, 1.0, 3.0])

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError):
            HalfSpaceParams(B=0.0, m=1.0)

    def test_k_max_validation(self):
        with pytest.raises(ValueError):
            landau_levels(HalfSpaceParams(B=1.0, m=0.0), k_max=0)


class TestCountLevels:
    @pytest.mark.parametrize("alpha,want", [(2.5, 0), (3.0, 1), (0.0, 0)])
    def test_examples(self, alpha, want):
        assert count_levels(HalfSpaceParams(B=2.0, m=2.0, V=0.0), alpha) == want

    def test_degenerate_alpha_rejected(self):
        hp = HalfSpaceParams(B=2.0, m=2.0, V=0.0)
        with pytest.raises(BulkLevelError):
            count_levels(hp, 2.0)
        with pytest.raises(BulkLevelError):
            count_levels(hp, -2.0)
        # exactly on the k = 2 threshold for B = 2, m = 0
        with pytest.raises(BulkLevelError):
            count_levels(HalfSpaceParams(B=2.0, m=0.0), math.sqrt(4.0))

    def test_levels_are_hit_only_exactly(self):
        """fl(2.1) - fl(0.1) rounds to 2 = |m|, but exceeds it by 8.3e-17: alpha = 2.1
        lies just above the zeroth level 2 + fl(0.1), not on it."""
        hp = HalfSpaceParams(B=2.0, m=2.0, V=0.1)
        assert 2.1 - 0.1 == 2.0 and Fraction(2.1) - Fraction(0.1) > 2
        assert count_levels(hp, 2.1) == 0
        assert half_index(hp, 2.1) == Fraction(1, 2)

    def test_count_far_from_v_is_exact(self):
        """At alpha = 1e7, q = (r^2 - m^2) / (2|B|) is 25000000499999.0025: a float q
        rounds onto that integer, which reads as a level."""
        alpha, V = 1e7, -0.1
        (an, ad), (vn, vd) = alpha.as_integer_ratio(), V.as_integer_ratio()
        rn, rd = an * vd - vn * ad, ad * vd  # r = alpha - V > 0
        k, rest = divmod(rn * rn - 4 * rd * rd, 4 * rd * rd)  # m^2 = 4 and 2|B| = 4
        assert rest > 0
        assert count_levels(HalfSpaceParams(B=-2.0, m=-2.0, V=V), alpha) == k == 25000000499999

    def test_huge_alpha_is_counted(self):
        q = ((Fraction(1e300) - Fraction(0.1)) ** 2 - 4) / 4
        assert count_levels(HalfSpaceParams(B=2.0, m=2.0, V=0.1), 1e300) == math.floor(q)


class TestHalfIndex:
    def test_examples(self):
        assert half_index(HalfSpaceParams(2.0, 2.0, 0.1), 0.0) == Fraction(-1, 2)
        assert half_index(HalfSpaceParams(-2.0, -2.0, -0.1), 0.0) == Fraction(1, 2)
        assert half_index(HalfSpaceParams(2.0, 2.0, 0.1), 2.5) == Fraction(1, 2)

    def test_alpha_on_zeroth_level_rejected(self):
        with pytest.raises(BulkLevelError):
            half_index(HalfSpaceParams(2.0, 2.0, 0.0), 2.0)


class TestPredictedSf:
    def test_interface_examples(self):
        minus = HalfSpaceParams(-2.0, -2.0, -0.1)
        plus = HalfSpaceParams(2.0, 2.0, 0.1)
        assert predicted_sf(minus, plus, 0.0).sf == 1
        assert predicted_sf(minus, plus, 2.5).sf == -1

    def test_identical_half_spaces(self):
        hp = HalfSpaceParams(2.0, 2.0, 0.0)
        pred = predicted_sf(hp, hp, 0.0)
        assert pred.sf == 0
        assert pred.I_minus == pred.I_plus

    def test_sf_always_integer(self, rng):
        for _ in range(1000):
            B = rng.uniform(0.5, 4, 2) * rng.choice([-1, 1], 2)
            m = rng.uniform(-3, 3, 2)
            V = rng.uniform(-2, 2, 2)
            minus = HalfSpaceParams(float(B[0]), float(m[0]), float(V[0]))
            plus = HalfSpaceParams(float(B[1]), float(m[1]), float(V[1]))
            alpha = float(rng.uniform(-5, 5))
            try:
                pred = predicted_sf(minus, plus, alpha)
            except BulkLevelError:
                continue
            assert isinstance(pred.sf, int)
            assert pred.I_minus - pred.I_plus == pred.sf

    def test_mirror_antisymmetry(self, rng):
        """Swapping the half-spaces negates the predicted flow."""
        for _ in range(1000):
            B = rng.uniform(0.5, 4, 2) * rng.choice([-1, 1], 2)
            m = rng.uniform(-3, 3, 2)
            V = rng.uniform(-2, 2, 2)
            minus = HalfSpaceParams(float(B[0]), float(m[0]), float(V[0]))
            plus = HalfSpaceParams(float(B[1]), float(m[1]), float(V[1]))
            alpha = float(rng.uniform(-5, 5))
            try:
                fwd = predicted_sf(minus, plus, alpha).sf
                rev = predicted_sf(plus, minus, alpha).sf
            except BulkLevelError:
                continue
            assert fwd == -rev

    def test_shift_covariance(self, rng):
        """Shifting V-, V+, and alpha by the same constant preserves the flow."""
        for _ in range(500):
            B = rng.uniform(0.5, 4, 2) * rng.choice([-1, 1], 2)
            m = rng.uniform(-3, 3, 2)
            V = rng.uniform(-2, 2, 2)
            c = float(rng.uniform(-3, 3))
            alpha = float(rng.uniform(-5, 5))
            try:
                a = predicted_sf(
                    HalfSpaceParams(float(B[0]), float(m[0]), float(V[0])),
                    HalfSpaceParams(float(B[1]), float(m[1]), float(V[1])),
                    alpha,
                ).sf
                b = predicted_sf(
                    HalfSpaceParams(float(B[0]), float(m[0]), float(V[0]) + c),
                    HalfSpaceParams(float(B[1]), float(m[1]), float(V[1]) + c),
                    alpha + c,
                ).sf
            except BulkLevelError:
                continue
            assert a == b

    def test_gap_constancy(self):
        """The prediction is constant across 100 alphas within one component."""
        minus = HalfSpaceParams(-2.0, -2.0, -0.1)
        plus = HalfSpaceParams(2.0, 2.0, 0.1)
        lo, hi = next((a, b) for a, b in gap_components_joint(minus, plus) if a < 0.0 < b)
        alphas = np.linspace(lo + 0.05, hi - 0.05, 100)
        vals = {predicted_sf(minus, plus, float(a)).sf for a in alphas}
        assert vals == {1}


class TestCheckDensityWindow:
    """The density window [E1, E2] must hold no Landau level of either half-space."""

    HP = HalfSpaceParams(B=2.0, m=2.0, V=0.0)  # levels -sqrt(8), 2 (zeroth), sqrt(8), ...
    GAPPED = HalfSpaceParams(B=2.0, m=5.0, V=0.0)  # no level in (-5, 5)

    def test_edge_on_a_level_is_rejected(self):
        lowest_pair = landau_levels(self.HP, 1).levels[0]  # -sqrt(8), as landau_levels computes it
        for window in ((1.0, 2.0), (2.0, 2.5), (lowest_pair, 0.0), (-4.0, lowest_pair)):
            with pytest.raises(WindowError, match="level"):
                check_density_window(self.HP, self.HP, window)
        check_density_window(self.HP, self.HP, (1.0, math.nextafter(2.0, 0.0)))
        check_density_window(self.HP, self.HP, (math.nextafter(lowest_pair, 0.0), 1.0))

    def test_zeroth_level_counts(self):
        with pytest.raises(WindowError, match="level 2"):
            check_density_window(self.HP, self.HP, (1.5, 2.5))  # holds only the zeroth level 2
        flipped = HalfSpaceParams(B=-2.0, m=2.0, V=0.0)  # zeroth level -2
        with pytest.raises(WindowError, match="level -2"):
            check_density_window(flipped, flipped, (-2.5, -1.5))

    def test_either_half_space_counts(self):
        window = (1.5, 2.5)
        with pytest.raises(WindowError, match="minus"):
            check_density_window(self.HP, self.GAPPED, window)
        with pytest.raises(WindowError, match="plus"):
            check_density_window(self.GAPPED, self.HP, window)
        check_density_window(self.GAPPED, self.GAPPED, window)

    def test_levels_far_from_v_count(self):
        """Levels far from V count.  A massless B = 2
        half-space at V = 0.5 has levels 0.5 +/- sqrt(4 k): k = 24, 25 and 26
        give 10.298, 10.5 and 10.698 above V and their mirrors below it."""
        hp = HalfSpaceParams(B=2.0, m=0.0, V=0.5)
        for window in ((10.4, 10.6), (-9.6, -9.4), (9.0, 10.5)):
            with pytest.raises(WindowError):
                check_density_window(hp, hp, window)
        check_density_window(hp, hp, (10.51, 10.69))
        check_density_window(hp, hp, (-9.69, -9.51))

    def test_huge_windows_are_checked_at_once(self):
        for window in ((-1e300, 1e300), (-1e20, 1e20)):
            with pytest.raises(WindowError, match="minus half-space's bulk level 2:"):
                check_density_window(self.HP, self.HP, window)
        massive = HalfSpaceParams(B=2.0, m=1e300, V=0.0)  # gap (-1e300, 1e300)
        check_density_window(massive, massive, (-math.nextafter(1e300, 0.0), math.nextafter(1e300, 0.0)))
        with pytest.raises(WindowError, match="level -1e\\+300"):  # the first paired level below V
            check_density_window(massive, massive, (-1.5e300, -1e299))

    def test_matches_the_level_list(self):
        """Random half-spaces and windows: the window holds a level of `landau_levels`
        exactly when the check raises, and the error names one of them."""
        rng = np.random.default_rng(41)
        raised = 0
        for _ in range(2000):
            sides = {}
            for side in ("minus", "plus"):
                B = float(rng.uniform(0.5, 4.0) * rng.choice([-1, 1]))
                sides[side] = HalfSpaceParams(B, float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-2.0, 2.0)))
            lo = float(rng.uniform(-8.0, 8.0))
            hi = lo + float(rng.exponential(1.0))
            listed = {}
            for side, hp in sides.items():
                r = max(abs(lo - hp.V), abs(hi - hp.V))
                k_max = max(1, math.ceil((r * r - hp.m**2) / (2.0 * abs(hp.B)))) + 1
                listed[side] = [e for e in landau_levels(hp, k_max).levels if lo <= e <= hi]
            try:
                check_density_window(sides["minus"], sides["plus"], (lo, hi))
            except WindowError as exc:
                side, level = re.search(r"the (minus|plus) half-space's bulk level (\S+):", str(exc)).groups()
                assert min(abs(float(level) - e) for e in listed[side]) < 1e-5
                assert side == "minus" or not listed["minus"]  # minus is checked first
                raised += 1
            else:
                assert not listed["minus"] and not listed["plus"]
        assert 200 < raised < 1800  # both outcomes are drawn often

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_windows_pass(self, name):
        cfg = config_from_dict(preset_config(name))
        check_density_window(*half_spaces(cfg.profiles), cfg.density.window)
