"""The modified Levy distance: probe condition, the forward walks against
the probe-list and bisecting kernels they replaced, closed forms against the
bisection and grid oracles, uniform distance, and weak-convergence checks."""

import math
import random
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pmspace import (
    H0,
    HINF,
    Document,
    condition_a,
    evaluate,
    heaviside,
    is_weak_limit,
    levy_distance,
    levy_to_h0,
    make_step_cdf,
    pointwise_sup,
    random_step_cdf,
    serialize_document,
    uniform_distance,
)
from pmspace.cli import run_command
from pmspace.errors import DomainMismatch, PreconditionViolated, ProbeOutOfRange
from pmspace.levy import _side

from oracles import (
    bisect_side,
    bisection_levy_distance,
    grid_levy_distance,
    probe_condition_a,
    probe_levy_distance,
)
from strategies import cdfs, near_ties, shifted_copies, window_cdfs

DBL_MAX = sys.float_info.max

levy_pairs = st.one_of(
    st.tuples(cdfs(), cdfs()),
    st.tuples(cdfs(8), cdfs(8)),
    st.tuples(window_cdfs(), window_cdfs()),
    st.tuples(window_cdfs(), cdfs()),
    near_ties(),
    near_ties(8),
    shifted_copies(),
)


class TestCondition:
    @given(cdfs(), cdfs())
    def test_always_holds_at_one(self, F, G):
        assert condition_a(F, G, 1.0) and condition_a(G, F, 1.0)

    def test_heaviside_asymmetry(self):
        assert condition_a(heaviside(0.2), heaviside(0.7), 0.4)
        assert not condition_a(heaviside(0.7), heaviside(0.2), 0.4)

    @pytest.mark.parametrize("h", [0.0, -0.1, 1.5])
    def test_probe_out_of_range(self, h):
        with pytest.raises(ProbeOutOfRange):
            condition_a(H0, H0, h)

    @given(cdfs(), cdfs(), st.floats(0.01, 1.0), st.floats(0.0, 0.5))
    def test_monotone_in_radius(self, F, G, h, bump):
        # a condition that holds at h keeps holding at any larger radius
        h2 = min(1.0, h + bump)
        if condition_a(F, G, h):
            assert condition_a(F, G, h2)


class TestAgainstProbeKernels:
    """The forward walks make the same float comparisons as the kernels they
    replaced, so every result is bit-identical."""

    @settings(max_examples=300, deadline=None)
    @given(levy_pairs, st.floats(0.0, 1.0, exclude_min=True))
    def test_condition_a(self, pair, h):
        # a random radius (subnormal ones overflow the window to +inf), both
        # closed-form radii, and the window edge 1/b of every breakpoint b > 1
        F, G = pair
        radii = [h, _side(F, G), _side(G, F)]
        radii += [1.0 / b for b, _ in F.breaks + G.breaks if b > 1.0]
        for r in radii:
            if r > 0.0:
                assert condition_a(F, G, r) == probe_condition_a(F, G, r)
                assert condition_a(G, F, r) == probe_condition_a(G, F, r)

    @settings(max_examples=300, deadline=None)
    @given(levy_pairs)
    def test_side(self, pair):
        F, G = pair
        assert _side(F, G) == bisect_side(F, G)
        assert _side(G, F) == bisect_side(G, F)

    @settings(max_examples=300, deadline=None)
    @given(levy_pairs)
    def test_levy_distance(self, pair):
        F, G = pair
        assert levy_distance(F, G) == probe_levy_distance(F, G)


class TestWindowOverflow:
    """At h <= 1/DBL_MAX the window end 1/h is +inf, where both functions
    read 1 and the probe always passes."""

    def test_window_end_at_infinity_passes(self):
        F = make_step_cdf([(0.5, 0.5487869330429923)])
        G = make_step_cdf([(0.5, 0.07487357064741497), (3.0, 0.6294631010669735)])
        h = 1.0 / DBL_MAX
        assert 1.0 / h == math.inf
        assert condition_a(F, G, h) and probe_condition_a(F, G, h)

    def test_jump_at_the_largest_float(self):
        # the cap 1/b at b = DBL_MAX is the side, and its window is +inf
        F = make_step_cdf([(1.0, 0.5), (DBL_MAX, 1.0)])
        G = make_step_cdf([(1.0, 0.5)])
        d = levy_distance(F, G)
        assert d == 1.0 / DBL_MAX == probe_levy_distance(F, G)
        assert condition_a(G, F, d) and condition_a(F, G, d)


class TestCertificateSteps:
    """A probe ``fl(a - h)`` moves in ulps of a: here the closed form is
    accepted only nine ulps of h up, past the four nextafter steps."""

    F = make_step_cdf([(0.9328090922336781, 0.16307090465304114), (1.9354978047285099, 0.364768695966032),
                       (2.043698895865794, 0.44434727228035603), (4.832117459711499, 0.4791483210122714)])
    G = make_step_cdf([(0.8389258199109432, 0.17584253363247462), (1.8416145324057749, 0.39333719172621695),
                       (1.9498156235430588, 0.4791483210122714)])

    def test_shifted_copy_certifies(self, tmp_path):
        F, G = self.F, self.G
        d = levy_distance(F, G)
        assert condition_a(F, G, d) and condition_a(G, F, d)
        assert d == levy_distance(G, F) == probe_levy_distance(F, G)
        assert d <= bisection_levy_distance(F, G) <= d + 1e-10
        f, g = tmp_path / "f.cdf", tmp_path / "g.cdf"
        f.write_text(serialize_document(Document("cdf", F, {})))
        g.write_text(serialize_document(Document("cdf", G, {})))
        assert run_command(["dl", str(f), str(g)]) == 0


class TestLevyDistance:
    def test_identity(self):
        F = make_step_cdf([(0.5, 0.25), (2, 1)])
        assert levy_distance(F, F) == 0.0

    def test_heaviside_closed_form(self):
        assert levy_distance(heaviside(0.2), heaviside(0.7)) == pytest.approx(0.5, abs=2e-10)

    def test_extremes_at_unit_distance(self):
        assert levy_distance(HINF, H0) == 1.0

    @given(cdfs(), cdfs())
    def test_symmetric_and_bounded(self, F, G):
        d = levy_distance(F, G)
        assert d == levy_distance(G, F)
        assert 0.0 <= d <= 1.0

    @given(cdfs(), cdfs())
    def test_returned_radius_is_valid(self, F, G):
        d = levy_distance(F, G)
        if d > 0.0:
            assert condition_a(F, G, d) and condition_a(G, F, d)

    @settings(max_examples=30, deadline=None)
    @given(cdfs(), cdfs())
    def test_matches_grid_oracle(self, F, G):
        assert levy_distance(F, G) == pytest.approx(grid_levy_distance(F, G), abs=2e-4)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.tuples(cdfs(), cdfs()), st.tuples(cdfs(8), cdfs(8)),
                     st.tuples(window_cdfs(), window_cdfs()), st.tuples(window_cdfs(), cdfs()),
                     shifted_copies()))
    def test_closed_form_within_bisection_bracket(self, pair):
        # window-edge inputs put breakpoints in (1, 6), where the caps 1/b and
        # the crossings h + 1/h = a fall inside (0, 1]
        F, G = pair
        exact = levy_distance(F, G)
        assert exact <= bisection_levy_distance(F, G) <= exact + 1e-10


class TestDistanceToUnitStep:
    def test_at_the_unit_step(self):
        assert levy_to_h0(H0) == 0.0

    @pytest.mark.parametrize("a,expected", [(0.3, 0.3), (1.0, 1.0), (2.5, 1.0)])
    def test_heaviside(self, a, expected):
        assert levy_to_h0(heaviside(a)) == expected

    def test_two_step(self):
        assert levy_to_h0(make_step_cdf([(0, 0.5), (2, 1)])) == 0.5

    def test_zero_function(self):
        assert levy_to_h0(HINF) == 1.0

    @given(cdfs())
    def test_agrees_with_bisection(self, F):
        assert levy_to_h0(F) == pytest.approx(levy_distance(F, H0), abs=2e-10)

    @given(cdfs(), cdfs())
    def test_antitone(self, F, G):
        # raising a function can only move it closer to the unit step
        G2 = pointwise_sup([F, G])
        assert levy_to_h0(G2) <= levy_to_h0(F) + 2e-10

    @given(cdfs(), st.floats(0.01, 0.99))
    def test_neighborhood_equivalence(self, F, t):
        # F(t) > 1 - t  iff  the distance to the unit step is below t
        d = levy_to_h0(F)
        if abs(d - t) <= 1e-6:
            return  # boundary margin
        assert (evaluate(F, t) > 1.0 - t) == (d < t)


class TestUniformDistance:
    POINTS = ("a", "b", "c")

    def test_reflexive(self):
        f = {p: heaviside(0.5) for p in self.POINTS}
        assert uniform_distance(f, f, self.POINTS) == 0.0

    def test_constant_maps(self):
        f = {p: H0 for p in self.POINTS}
        g = {p: heaviside(0.3) for p in self.POINTS}
        assert uniform_distance(f, g, self.POINTS) == pytest.approx(0.3, abs=2e-10)

    def test_max_semantics(self):
        f = {"a": H0, "b": H0, "c": H0}
        g = {"a": H0, "b": H0, "c": heaviside(0.5)}
        assert uniform_distance(f, g, self.POINTS) == pytest.approx(0.5, abs=2e-10)

    def test_missing_point(self):
        with pytest.raises(DomainMismatch):
            uniform_distance({"a": H0}, {"a": H0}, self.POINTS)


class TestWeakLimit:
    def test_shrinking_heaviside(self):
        seq = [heaviside(1 / n) for n in range(1, 51)]
        assert is_weak_limit(seq, H0, tol=0.05, tail=10)

    def test_constant_sequence(self):
        F = make_step_cdf([(1, 0.5), (2, 1)])
        assert is_weak_limit([F] * 5, F, tol=1e-6, tail=5)

    def test_separated_sequence(self):
        assert not is_weak_limit([heaviside(1)] * 20, H0, tol=0.5, tail=10)

    def test_tail_validation(self):
        with pytest.raises(PreconditionViolated):
            is_weak_limit([H0], H0, tol=0.1, tail=2)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -0.1])
    def test_tolerance_validation(self, tol):
        with pytest.raises(PreconditionViolated, match="tolerance must be positive"):
            is_weak_limit([H0] * 3, H0, tol=tol, tail=2)


class TestMetricAxioms:
    def test_seeded_suite(self):
        rng = random.Random(99)
        tol = 3e-10
        for _ in range(200):
            F, G, K = (random_step_cdf(rng, grid=rng.random() < 0.5) for _ in range(3))
            dfg = levy_distance(F, G)
            assert dfg == levy_distance(G, F)
            assert 0.0 <= dfg <= 1.0
            assert levy_distance(F, K) <= dfg + levy_distance(G, K) + tol
            assert levy_distance(F, F) == 0.0
