"""Spectral flow, conductivity, and reconciliation on synthetic and real branches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from diracflow.branches import Branch, SweepConfig, sweep_branches
from diracflow.bulk import HalfSpaceParams, predicted_sf
from diracflow.errors import WindowError
from diracflow.fiber import FiberFamily, Grid1D, SpuriousFilter, eig_window, filter_spurious
from diracflow.flow import (
    FlowReport,
    _locate_crossings,
    conductivity,
    reconcile,
    spectral_flow,
)
from diracflow.profiles import DensityProfile, evaluate

from conftest import walls


def mk_branch(zetas, mus):
    """A synthetic branch; slopes are finite differences (exact on straight lines)."""
    n = len(zetas)
    slopes = np.gradient(np.asarray(mus, dtype=float), np.asarray(zetas, dtype=float))
    return Branch(zetas=list(zetas), mus=list(mus), slopes=list(slopes), overlaps=[1.0] * n,
                  boundary_masses=[0.0] * n)


UP = mk_branch(np.linspace(-5, 5, 21), np.linspace(-2, 2, 21))
DOWN = mk_branch(np.linspace(-5, 5, 21), np.linspace(2, -2, 21))
FLAT_HIGH = mk_branch(np.linspace(-5, 5, 21), np.full(21, 1.8))


class TestSpectralFlow:
    def test_single_up_crossing(self):
        r = spectral_flow([UP, FLAT_HIGH], 0.0)
        assert r.sf_numeric == 1
        assert len(r.crossings) == 1
        assert r.crossings[0].direction == "up"
        # alpha sits on the sample node zeta = 0; the node counts as above alpha,
        # so the crossing is the step that ends there, located at its end
        assert r.crossings[0].zeta == pytest.approx(0.0, abs=1e-12)

    def test_up_and_down_cancel(self):
        assert spectral_flow([UP, DOWN], 0.5).sf_numeric == 0

    def test_wiggle_counts_net(self):
        b = mk_branch([-3.0, -1.0, 1.0, 3.0], [-2.0, 0.5, -0.5, 2.0])
        r = spectral_flow([b], 0.0)
        assert r.sf_numeric == 1
        ups = sum(1 for c in r.crossings if c.direction == "up")
        downs = sum(1 for c in r.crossings if c.direction == "down")
        assert ups - downs == 1 and ups + downs >= 3

    def test_invalid_window_raises(self):
        with pytest.raises(WindowError):
            spectral_flow([UP], 1.95)

    def test_crossing_on_node(self):
        # UP passes exactly through 0 at a sample node
        r = spectral_flow([UP], 0.0)
        assert r.sf_numeric == 1

    def test_touch_from_below_counts_twice_at_the_node(self):
        # (-, 0, -): the node is above alpha, so the branch goes up and comes back down there
        r = spectral_flow([mk_branch([-1.0, 0.0, 1.0], [-1.0, 0.0, -1.0])], 0.0)
        assert r.sf_numeric == 0
        assert [c.direction for c in r.crossings] == ["up", "down"]
        # the tangent touch is a double root of the first step's cubic; the node is taken exactly
        assert [c.zeta for c in r.crossings] == [0.0, 0.0]

    def test_touch_from_above_does_not_cross(self):
        # (+, 0, +): every sample is above alpha
        r = spectral_flow([mk_branch([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])], 0.0)
        assert r.sf_numeric == 0 and r.crossings == ()

    def test_prediction_attached(self):
        minus = HalfSpaceParams(-2.0, -2.0, -0.1)
        plus = HalfSpaceParams(2.0, 2.0, 0.1)
        r = spectral_flow([UP], 0.0, prediction=predicted_sf(minus, plus, 0.0))
        sigma = conductivity([UP], DensityProfile.from_window(-0.5, 0.5))
        pred = predicted_sf(minus, plus, 0.0)
        assert r.sf_predicted == 1 and reconcile(r, pred, sigma, pred)


@st.composite
def branches_around(draw):
    """Random branches and a level alpha: interior samples may sit exactly on alpha,
    both ends keep at least 0.15 from it."""
    alpha = draw(st.floats(-3.0, 3.0))
    offset = st.floats(-2.0, 2.0)
    end = st.tuples(st.floats(0.15, 2.0), st.sampled_from([-1.0, 1.0])).map(lambda t: t[0] * t[1])
    branches = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(2, 12))
        z0 = draw(st.floats(-5.0, 0.0))
        zetas = z0 + np.cumsum([0.0] + draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1)))
        mus = [alpha + draw(end)]
        for _ in range(n - 2):
            mus.append(alpha if draw(st.booleans()) else alpha + draw(offset))
        mus.append(alpha + draw(end))
        slopes = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
        branches.append(Branch(zetas=list(zetas), mus=mus, slopes=slopes, overlaps=[1.0] * n,
                               boundary_masses=[0.0] * n))
    return branches, alpha


@settings(max_examples=300, deadline=None)
@given(branches_around())
def test_flow_and_conductivity_are_endpoint_counts(case):
    """The side rule (above: mu - alpha >= 0) makes the crossing count the endpoint
    count on any branches, samples exactly on alpha included."""
    branches, alpha = case
    r = spectral_flow(branches, alpha)
    assert r.sf_numeric == sum(int(b.mus[-1] >= alpha) - int(b.mus[0] >= alpha) for b in branches)

    per_branch = [_locate_crossings(b, bid, alpha) for bid, b in enumerate(branches)]
    for crossings in per_branch:
        dirs = [c.direction for c in crossings]
        assert all(d0 != d1 for d0, d1 in zip(dirs, dirs[1:]))
    assert sorted(r.crossings, key=lambda c: (c.branch_id, c.zeta)) == sorted(
        (c for cs in per_branch for c in cs), key=lambda c: (c.branch_id, c.zeta)
    )

    dens = DensityProfile.from_window(alpha - 0.05, alpha + 0.05)
    sigma = conductivity(branches, dens)
    assert sigma == sum(evaluate(dens.phi, b.mus[-1]) - evaluate(dens.phi, b.mus[0]) for b in branches)
    assert sigma == r.sf_numeric


class TestConductivity:
    def test_crossing_branch_counts_one(self):
        dens = DensityProfile.from_window(-0.5, 0.5)
        assert conductivity([UP, FLAT_HIGH], dens) == pytest.approx(1.0, abs=1e-12)
        assert conductivity([DOWN], dens) == pytest.approx(-1.0, abs=1e-12)
        assert conductivity([UP, DOWN], dens) == pytest.approx(0.0, abs=1e-12)

    def test_flat_branches_give_zero(self):
        dens = DensityProfile.from_window(-0.5, 0.5)
        assert conductivity([FLAT_HIGH], dens) == 0.0

    def test_endpoint_in_window_raises(self):
        dens = DensityProfile.from_window(1.0, 2.5)
        with pytest.raises(WindowError):
            conductivity([FLAT_HIGH], dens)


class TestReconcile:
    def test_rounding_rule(self):
        pred = predicted_sf(HalfSpaceParams(-2, -2, -0.1), HalfSpaceParams(2, 2, 0.1), 0.0)

        def rep(sf):
            return FlowReport(sf_numeric=sf, sf_predicted=pred.sf, crossings=())

        assert reconcile(rep(1), pred, 1.0 + 1e-9, pred)
        assert not reconcile(rep(1), pred, 1.2, pred)
        assert not reconcile(rep(0), pred, 1.0, pred)
        # sigma is checked against its own prediction, not the flow's
        above = predicted_sf(HalfSpaceParams(-2, -2, -0.1), HalfSpaceParams(2, 2, 0.1), 2.5)
        assert above.sf == -1
        assert reconcile(FlowReport(sf_numeric=-1, sf_predicted=-1, crossings=()), above, 1.0, pred)
        assert not reconcile(FlowReport(sf_numeric=-1, sf_predicted=-1, crossings=()), above, -1.0, pred)


@pytest.fixture(scope="module")
def pipeline():
    minus = HalfSpaceParams(-2.0, -2.0, -0.1)
    plus = HalfSpaceParams(2.0, 2.0, 0.1)
    grid = Grid1D(L=14.0, N=400)
    cfg = SweepConfig(-6.0, 6.0, 25, (-3.0, 3.0), refine_tol=0.15)
    f = SpuriousFilter(margin=2.5, threshold=0.3)
    branches = sweep_branches(grid, walls(minus, plus), cfg, f)
    return minus, plus, branches


class TestEndToEnd:
    def test_flow_and_conductivity_agree(self, pipeline):
        minus, plus, branches = pipeline
        pred = predicted_sf(minus, plus, 0.0)
        r = spectral_flow(branches, 0.0, prediction=pred)
        sigma = conductivity(branches, DensityProfile.from_window(-0.5, 0.5))
        assert r.sf_numeric == pred.sf == 1
        assert sigma == pytest.approx(1.0, abs=1e-6)

    def test_alpha_independence_within_gap(self, pipeline):
        minus, plus, branches = pipeline
        for alpha in np.linspace(-1.2, 1.2, 20):
            assert spectral_flow(branches, float(alpha)).sf_numeric == 1

    def test_phi_independence(self, pipeline, rng):
        _, _, branches = pipeline
        for _ in range(10):
            c = float(rng.uniform(-1.0, 1.0))
            w = float(rng.uniform(0.15, 0.6))
            sigma = conductivity(branches, DensityProfile.from_window(c - w, c + w))
            assert sigma == pytest.approx(1.0, abs=1e-6)

    def test_crossings_match_brentq_roots(self, pipeline):
        """Cubic Hermite crossings on criterion 1's pinned sweep sit within 1e-5 of
        the root of the fiber eigenvalue (linear interpolation missed by 2.4e-4)."""
        minus, plus, _ = pipeline
        ps = walls(minus, plus)
        grid = Grid1D(L=20.0, N=800)
        f = SpuriousFilter(margin=2.5, threshold=0.3)
        branches = sweep_branches(grid, ps, SweepConfig(-8.0, 8.0, 81, (-4.0, 4.0), refine_tol=0.05), f)
        fiber = FiberFamily.of(grid, ps)
        checked = 0
        for alpha in (0.0, 2.5):
            for c in spectral_flow(branches, alpha).crossings:
                z = np.asarray(branches[c.branch_id].zetas)
                k = int(np.searchsorted(z, c.zeta))

                def offset(zeta):
                    mus = filter_spurious(eig_window(fiber.at(zeta), (alpha - 0.4, alpha + 0.4)), grid, f).mu
                    return min(mus, key=lambda mu: abs(mu - alpha)) - alpha

                root = brentq(offset, z[k - 1], z[k], xtol=1e-13)
                assert abs(root - c.zeta) <= 1e-5
                checked += 1
        assert checked >= 4

    def test_grid_robustness(self, pipeline):
        minus, plus, _ = pipeline
        grid = Grid1D(L=17.5, N=800)
        cfg = SweepConfig(-6.0, 6.0, 25, (-3.0, 3.0), refine_tol=0.15)
        f = SpuriousFilter(margin=2.5, threshold=0.3)
        branches = sweep_branches(grid, walls(minus, plus), cfg, f)
        assert spectral_flow(branches, 0.0).sf_numeric == 1
