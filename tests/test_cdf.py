"""Canonical form, evaluation, lattice order, supremum and quantization."""

import math
import random

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from pmspace import (
    H0,
    HINF,
    TOL,
    approx_equal,
    evaluate,
    heaviside,
    leq,
    leq_witness,
    levy_distance,
    make_step_cdf,
    pointwise_sup,
    quantize,
    random_step_cdf,
    value_after,
)
from pmspace.cdf import is_canonical
from pmspace.errors import (
    EmptyFamily,
    InvalidDelta,
    NegativeBreakpoint,
    NonMonotoneValue,
    PreconditionViolated,
    ValueOutOfRange,
)

from strategies import cdfs, dyadic_cdfs


class TestMakeStepCdf:
    def test_single_unit_step_at_zero(self):
        assert make_step_cdf([(0, 1)]) == H0

    def test_empty_is_lattice_minimum(self):
        assert make_step_cdf([]) == HINF

    def test_duplicates_collapse(self):
        assert make_step_cdf([(1, 0.5), (1, 0.5)]).breaks == ((1.0, 0.5),)

    def test_redundant_breakpoints_merge(self):
        assert make_step_cdf([(1, 0.5), (2, 0.5), (3, 1.0)]).breaks == ((1.0, 0.5), (3.0, 1.0))

    def test_sorts_input(self):
        assert make_step_cdf([(1, 0.5), (0.5, 0.2)]).breaks == ((0.5, 0.2), (1.0, 0.5))

    def test_negative_breakpoint_rejected(self):
        with pytest.raises(NegativeBreakpoint):
            make_step_cdf([(-0.1, 0.5)])

    def test_nonfinite_breakpoint_rejected(self):
        with pytest.raises(NegativeBreakpoint):
            make_step_cdf([(math.nan, 0.5)])

    def test_integer_past_the_float_range_rejected(self):
        # float() of such an int raises OverflowError, which is no PmsError
        with pytest.raises(NegativeBreakpoint):
            make_step_cdf([(10**400, 0.5)])
        with pytest.raises(ValueOutOfRange):
            make_step_cdf([(0.5, -(10**400))])

    @pytest.mark.parametrize("v", [0.0, -0.2, 1.1, math.nan])
    def test_value_out_of_range_rejected(self, v):
        with pytest.raises(ValueOutOfRange):
            make_step_cdf([(1, v)])

    def test_decreasing_values_rejected(self):
        with pytest.raises(NonMonotoneValue):
            make_step_cdf([(1, 0.8), (2, 0.5)])

    def test_conflicting_values_at_same_breakpoint_rejected(self):
        with pytest.raises(NonMonotoneValue):
            make_step_cdf([(1, 0.5), (1, 0.8)])

    @given(cdfs())
    def test_idempotent(self, F):
        assert make_step_cdf(F.breaks) == F

    @pytest.mark.parametrize(
        "points, breaks",
        [([(1.0, 1e-13)], ()), ([(1.0, 1e-13), (2.0, 0.5)], ((2.0, 0.5),)), ([(0.0, TOL)], ())],
        ids=["alone", "then-a-jump", "at-tol"],
    )
    def test_first_jump_within_tol_of_zero_dropped(self, points, breaks):
        # the function is 0 before its first breakpoint, so a first jump of
        # at most TOL is redundant, as it is to _envelope
        F = make_step_cdf(points)
        assert F.breaks == breaks and is_canonical(F)


class TestHeaviside:
    def test_at_zero(self):
        assert heaviside(0).breaks == ((0.0, 1.0),)

    def test_at_positive(self):
        assert heaviside(2.5).breaks == ((2.5, 1.0),)

    def test_at_infinity(self):
        assert heaviside(math.inf) == HINF

    def test_negative_rejected(self):
        with pytest.raises(NegativeBreakpoint):
            heaviside(-1.0)


class TestEvaluate:
    def test_vanishes_at_zero(self):
        assert evaluate(H0, 0) == 0.0

    def test_unit_just_after_zero(self):
        assert evaluate(H0, 0.001) == 1.0

    def test_left_continuous_at_breakpoint(self):
        F = make_step_cdf([(1, 0.5), (3, 1)])
        assert evaluate(F, 3) == 0.5

    def test_one_at_infinity(self):
        assert evaluate(HINF, math.inf) == 1.0
        assert evaluate(HINF, 1e9) == 0.0

    @given(cdfs())
    def test_left_continuity_everywhere(self, F):
        # the value AT each breakpoint equals the value of the preceding interval
        prev = 0.0
        for t, v in F.breaks:
            assert evaluate(F, t) == prev
            prev = v

    @given(cdfs())
    def test_agrees_with_left_limit_sampler(self, F):
        # oracle: approach each breakpoint from below (gaps dwarf the step)
        for t, _ in F.breaks:
            if t > 0:
                assert evaluate(F, t) == evaluate(F, t - 1e-9)

    @given(cdfs(), st.floats(0, 30))
    def test_right_limit_dominates(self, F, t):
        assert value_after(F, t) >= evaluate(F, t)


class TestOrder:
    def test_heaviside_antitone(self):
        assert leq(heaviside(2), heaviside(1))
        assert not leq(heaviside(1), heaviside(2))

    @given(cdfs())
    def test_lattice_bounds(self, F):
        assert leq(HINF, F)
        assert leq(F, H0)

    @given(cdfs(), cdfs())
    def test_leq_matches_grid(self, F, G):
        # oracle: compare on a probe grid covering every constancy interval
        probes = sorted({t for t, _ in F.breaks} | {t for t, _ in G.breaks})
        probes += [p + 0.5 for p in probes] + [probes[-1] + 1.0] if probes else [1.0]
        expected = all(evaluate(F, p) <= evaluate(G, p) + TOL for p in probes)
        assert leq(F, G) == expected

    def test_witness_locates_violation(self):
        t = leq_witness(heaviside(1), heaviside(2))
        assert t is not None and evaluate(heaviside(1), t) > evaluate(heaviside(2), t)


class TestPointwiseSup:
    def test_singleton(self):
        F = make_step_cdf([(1, 0.5)])
        assert pointwise_sup([F]) == F

    def test_heaviside_pair(self):
        assert pointwise_sup([heaviside(1), heaviside(2)]) == heaviside(1)

    def test_two_step_merge(self):
        got = pointwise_sup([make_step_cdf([(0, 0.5)]), make_step_cdf([(1, 1)])])
        assert got.breaks == ((0.0, 0.5), (1.0, 1.0))

    def test_empty_family_rejected(self):
        with pytest.raises(EmptyFamily):
            pointwise_sup([])

    @given(st.lists(cdfs(), min_size=1, max_size=5))
    def test_matches_grid_maximum(self, fam):
        # equality within the canonicalization tolerance; probes within TOL of
        # a kept probe are skipped, since breakpoints that close are one
        # canonical breakpoint and the sliver between them carries fuzz
        sup = pointwise_sup(fam)
        raw = sorted({t for F in fam + [sup] for t, _ in F.breaks})
        probes = []
        for p in raw:
            if not probes or p - probes[-1] > 2 * TOL:
                probes.append(p)
        probes = probes + [
            (a + b) / 2 for a, b in zip(probes, probes[1:])
        ] + ([probes[-1] + 1.0] if probes else [1.0])
        for p in probes:
            assert abs(sup(p) - max(F(p) for F in fam)) <= TOL

    @given(st.lists(cdfs(), min_size=1, max_size=5))
    def test_is_least_upper_bound(self, fam):
        sup = pointwise_sup(fam)
        for F in fam:
            assert leq(F, sup)


class TestQuantize:
    def test_already_on_grid(self):
        assert quantize(H0, 0.5) == H0

    def test_snaps_down(self):
        assert quantize(make_step_cdf([(0.3, 0.9)]), 0.5).breaks == ((0.5, 0.5),)

    def test_zero_function_fixed(self):
        assert quantize(HINF, 0.25) == HINF

    @pytest.mark.parametrize("delta", [0.0, -0.5, 1.5])
    def test_bad_delta_rejected(self, delta):
        with pytest.raises(InvalidDelta):
            quantize(H0, delta)

    @pytest.mark.parametrize("delta", [1e-155, 1e-200, 5e-324])
    def test_delta_beyond_the_float_horizon_rejected(self, delta):
        # 1/delta**2 overflows to +inf, or delta**2 underflows to 0
        with pytest.raises(InvalidDelta):
            quantize(make_step_cdf([(0.5, 0.5)]), delta)

    def test_breakpoint_whose_grid_index_overflows_is_past_the_horizon(self):
        # 1e200 / 1e-150 is +inf, beyond the finite horizon 1e300
        F = make_step_cdf([(0.5, 0.5), (1e200, 1.0)])
        assert quantize(F, 1e-150) == quantize(make_step_cdf([(0.5, 0.5)]), 1e-150)

    @pytest.mark.parametrize("delta", [1e-12, 5e-13, 1e-150])
    def test_value_slack_below_tolerance_stays_below(self, delta):
        # a +1e-12 value slack is a grid step or more here, and once lifted
        # 0.5 to 0.500000000001
        F = make_step_cdf([(0.5, 0.5), (1e200, 1.0)])
        assert leq(quantize(F, delta), F, tol=0.0)

    @given(cdfs(), st.sampled_from([0.5, 0.25, 0.1, 0.05]))
    def test_below_and_idempotent(self, F, delta):
        Q = quantize(F, delta)
        assert leq(Q, F)
        assert quantize(Q, delta) == Q

    # the snap's slack makes G jump before F here: k*delta rounds 0.5 down to
    # 0.49999999999999994, and 1.50000000045 lies within 1e-9*delta of 1.5
    SNAPPED_BEFORE_F = [
        (make_step_cdf([(0.5, 0.5), (1e200, 1.0)]), 1e-11),
        (make_step_cdf([(1.50000000045, 1.0)]), 0.5),
    ]

    @pytest.mark.parametrize("F, delta", SNAPPED_BEFORE_F)
    def test_snap_can_jump_before_f(self, F, delta):
        assert not leq(quantize(F, delta), F)

    @given(cdfs(), st.sampled_from([0.5, 0.25, 0.1, 0.05, 1e-11]))
    @example(*SNAPPED_BEFORE_F[0])
    @example(*SNAPPED_BEFORE_F[1])
    def test_below_up_to_the_snap_slack(self, F, delta):
        # G(t) <= F(t + 1e-9*delta + 4*ulp(t)) + TOL; the tightest t is just
        # after each jump g of G
        for g, w in quantize(F, delta).breaks:
            assert value_after(F, g + 1e-9 * delta + 4 * math.ulp(g)) + TOL >= w

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="below 2*TOL snapped breakpoints chain within TOL onto the first, so a jump moves "
        "left by up to TOL + delta per merged breakpoint (ROADMAP item 5)",
    )
    def test_below_when_snapped_breakpoints_chain(self):
        # 60 jumps 1.01e-12 apart; leq_witness reports 0.50000000000303
        F = make_step_cdf([(0.5 + k * 1.01e-12, (k + 1) / 60) for k in range(60)])
        assert leq(quantize(F, 1e-12), F)

    @given(cdfs(), st.sampled_from([0.5, 0.25, 0.1]))
    def test_matches_direct_grid_formula(self, F, delta):
        # oracle: evaluate the defining cell formula on every grid cell
        Q = quantize(F, delta)
        kmax = int(math.floor(1.0 / delta**2 + 1e-9))
        for k in range(kmax + 1):
            want = min(math.floor((value_after(F, k * delta) + TOL) / delta) * delta, 1.0)
            assert abs(value_after(Q, k * delta) - want) <= TOL

    @given(cdfs(), st.sampled_from([0.5, 0.25, 0.1]))
    def test_breakpoints_on_grid(self, F, delta):
        for t, v in quantize(F, delta).breaks:
            assert abs(t / delta - round(t / delta)) < 1e-9
            assert abs(v / delta - round(v / delta)) < 1e-9
            assert t <= 1.0 / delta + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(dyadic_cdfs(), st.sampled_from([0.5, 0.1, 0.02]))
    def test_proximity_bound(self, F, delta):
        assert levy_distance(F, quantize(F, delta)) <= 2 * delta + 1e-9

    def test_proximity_bound_seeded_suite(self):
        from oracles import grid_levy_distance

        rng = random.Random(123)
        for k in range(1000):
            F = random_step_cdf(rng, grid=rng.random() < 0.5)
            delta = (0.5, 0.1, 0.02)[k % 3]
            assert levy_distance(F, quantize(F, delta)) <= 2 * delta + 1e-9
            if k < 30:  # brute-force cross-check on a prefix
                assert grid_levy_distance(F, quantize(F, delta)) <= 2 * delta + 1e-4


class TestRandomStepCdf:
    @pytest.mark.parametrize("max_breaks, grid", [(-1, True), (-1, False), (17, True), (20, True)])
    def test_out_of_range_rejected(self, max_breaks, grid):
        # the grid has 16 value levels; only some seeds draw more than 16 breaks
        for seed in range(1, 6):
            with pytest.raises(PreconditionViolated):
                random_step_cdf(random.Random(seed), max_breaks, grid)

    def test_range_edges(self):
        rng = random.Random(1)
        for _ in range(50):
            assert len(random_step_cdf(rng, 16).breaks) <= 16
            assert len(random_step_cdf(rng, 0).breaks) == 0
        assert len(random_step_cdf(rng, 40, grid=False).breaks) <= 40


class TestCanonicalUniqueness:
    @given(cdfs(), cdfs())
    def test_equal_sequences_iff_pointwise_equal(self, F, G):
        probes = sorted({t for t, _ in F.breaks} | {t for t, _ in G.breaks})
        probes = probes + [probes[-1] + 1.0] if probes else [1.0]
        pointwise = all(abs(evaluate(F, p) - evaluate(G, p)) <= TOL for p in probes)
        assert approx_equal(F, G) == pointwise

    def test_random_generator_yields_canonical_forms(self):
        rng = random.Random(5)
        for _ in range(200):
            F = random_step_cdf(rng, grid=rng.random() < 0.5)
            assert make_step_cdf(F.breaks) == F
