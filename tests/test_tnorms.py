"""t-norm axioms, sup-convolution exactness, and the triangle-function
validators."""

import random

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from pmspace import (
    H0,
    HINF,
    LUKASIEWICZ,
    MINIMUM,
    PRODUCT,
    STAR_LUKA,
    STAR_MIN,
    STAR_PROD,
    StepCdf,
    TriangleFunction,
    approx_equal,
    check_sup_continuity,
    check_triangle_axioms,
    check_weak_continuity,
    custom_tnorm,
    evaluate,
    heaviside,
    leq,
    make_step_cdf,
    pointwise_sup,
    random_triples,
    sup_convolution,
)
from pmspace.errors import EmptyFamily, PreconditionViolated, ValidationError
from pmspace.cdf import is_canonical
from pmspace.tnorms import BUILTIN_TNORMS, tnorm_axiom_failures

from oracles import convolution_probes, grid_convolution_bounds
from strategies import cdfs, dyadic_cdfs

ALL_TNORMS = [MINIMUM, PRODUCT, LUKASIEWICZ]
ALL_STARS = [STAR_MIN, STAR_PROD, STAR_LUKA]


class TestTNormEval:
    def test_product(self):
        assert PRODUCT.fn(0.5, 0.5) == 0.25

    @pytest.mark.parametrize("T", ALL_TNORMS)
    @given(st.floats(0, 1))
    def test_unit_boundary(self, T, x):
        assert T.fn(x, 1.0) == pytest.approx(x, abs=1e-12)

    def test_lukasiewicz_clips(self):
        assert LUKASIEWICZ.fn(0.3, 0.4) == 0.0

    UNIT_VALUES = st.one_of(st.floats(0, 1), st.integers(0, 64).map(lambda k: k / 64))

    @pytest.mark.parametrize("name", BUILTIN_TNORMS)
    @given(UNIT_VALUES, UNIT_VALUES)
    @example(0.1, 1.0)
    def test_below_min_within_half_an_ulp_of_one(self, name, v, w):
        # the row bound of spaces._events_below
        assert BUILTIN_TNORMS[name].fn(v, w) <= min(v, w) + 2**-53

    def test_rounded_lukasiewicz_sum_exceeds_min(self):
        # why the row bound needs its 2**-53: fl(0.1 + 1.0) rounds up, and
        # subtracting 1 is exact (Sterbenz); today's _lukasiewicz(0.1, 1.0)
        # is this value, the exact form of ROADMAP item 5 gives 0.1
        assert (0.1 + 1.0) - 1.0 == 0.10000000000000009 > 0.1
        assert LUKASIEWICZ.fn(0.1, 1.0) in (0.1, 0.10000000000000009)

    @pytest.mark.parametrize("T", ALL_TNORMS)
    def test_builtin_grid_axioms(self, T):
        assert tnorm_axiom_failures(T) == []

    def test_custom_rejected_when_not_commutative(self):
        with pytest.raises(ValidationError):
            custom_tnorm("first", lambda x, y: x)

    def test_custom_accepted(self):
        T = custom_tnorm("drastic-free-min", min)
        assert T.fn(0.25, 0.75) == 0.25


class TestSupConvolution:
    @pytest.mark.parametrize("T", ALL_TNORMS)
    @given(F=cdfs())
    def test_unit_step_neutral(self, T, F):
        assert approx_equal(sup_convolution(T, F, H0), F)

    @pytest.mark.parametrize("T", ALL_TNORMS)
    def test_heaviside_addition(self, T):
        assert sup_convolution(T, heaviside(1), heaviside(2)) == heaviside(3)

    @pytest.mark.parametrize("T", ALL_TNORMS)
    @given(st.integers(0, 16), st.integers(0, 16))
    def test_heaviside_addition_grid(self, T, i, j):
        a, b = i / 8.0, j / 8.0
        assert sup_convolution(T, heaviside(a), heaviside(b)) == heaviside(a + b)

    def test_two_step_product(self):
        F = make_step_cdf([(0, 0.5), (1, 1)])
        got = sup_convolution(PRODUCT, F, F)
        assert got.breaks == ((0.0, 0.25), (1.0, 0.5), (2.0, 1.0))

    @pytest.mark.parametrize("T", ALL_TNORMS)
    @given(F=cdfs(), L=cdfs())
    def test_absorbing_zero(self, T, F, L):
        assert sup_convolution(T, HINF, L) == HINF
        assert sup_convolution(T, F, HINF) == HINF

    @given(F=dyadic_cdfs(), L=dyadic_cdfs())
    def test_commutes_exactly(self, F, L):
        for T in ALL_TNORMS:
            assert sup_convolution(T, F, L) == sup_convolution(T, L, F)

    @settings(max_examples=30, deadline=None)
    @given(F=dyadic_cdfs(), L=dyadic_cdfs())
    def test_matches_grid_brute_force(self, F, L):
        for T in ALL_TNORMS:
            R = sup_convolution(T, F, L)
            for t in convolution_probes(F, L):
                lo, hi = grid_convolution_bounds(T.name, F, L, t)
                assert lo - 1e-9 <= evaluate(R, t) <= hi + 1e-9


class TestTriangleAxioms:
    @pytest.mark.parametrize("star", ALL_STARS)
    def test_builtins_pass(self, star):
        rng = random.Random(3)
        report = check_triangle_axioms(star, random_triples(rng, 100), tol=1e-9)
        assert report.all_ok and report.checked == 100

    def test_first_projection_fails_commutativity(self):
        proj = TriangleFunction("first-projection", lambda F, L: F)
        rng = random.Random(4)
        report = check_triangle_axioms(proj, random_triples(rng, 50))
        assert not report.commutativity
        assert "commutativity" in report.counterexamples

    def test_heaviside_associativity_exact(self):
        rng = random.Random(5)
        triples = [
            tuple(heaviside(rng.randint(0, 16) / 8.0) for _ in range(3)) for _ in range(50)
        ]
        report = check_triangle_axioms(STAR_PROD, triples, tol=0.0)
        assert report.associativity

    @given(cdfs(8), cdfs(8))
    def test_builtin_outputs_are_canonical(self, F, L):
        # so the closure test, now the canonical-form test, still passes them
        for T in ALL_TNORMS:
            assert is_canonical(sup_convolution(T, F, L))

    def test_jumps_within_tolerance_fail_closure(self):
        # two jumps 1e-13 apart are one canonical breakpoint; a strictly
        # increasing sequence is not enough to count as closed
        near = TriangleFunction("near", lambda F, L: StepCdf(((1.0, 0.5), (1.0 + 1e-13, 0.9))))
        report = check_triangle_axioms(near, [(H0, H0, H0)])
        assert not report.closure and report.counterexamples["closure"] == (H0, H0, H0)

    @pytest.mark.parametrize("tol", [float("nan"), -1e-9])
    def test_bad_tolerance_rejected(self, tol):
        # under NaN every tolerance comparison is false, which would report
        # `min` as neither commutative nor associative
        with pytest.raises(PreconditionViolated):
            check_triangle_axioms(STAR_MIN, random_triples(random.Random(1), 3), tol)


class TestSupContinuity:
    def test_singleton_family(self):
        F = make_step_cdf([(1, 0.5)])
        assert check_sup_continuity(STAR_MIN, [F], heaviside(2))

    def test_heaviside_family(self):
        # sup of the family is the earlier step; both sides land at its shift
        fam, L = [heaviside(1), heaviside(2)], heaviside(1)
        assert check_sup_continuity(STAR_MIN, fam, L)
        assert STAR_MIN(pointwise_sup(fam), L) == heaviside(2)
        assert pointwise_sup([STAR_MIN(F, L) for F in fam]) == heaviside(2)

    def test_empty_family(self):
        with pytest.raises(EmptyFamily):
            check_sup_continuity(STAR_MIN, [], H0)

    @pytest.mark.parametrize("star", ALL_STARS)
    def test_random_families(self, star):
        rng = random.Random(6)
        from pmspace import random_step_cdf

        for _ in range(30):
            fam = [random_step_cdf(rng) for _ in range(rng.randint(1, 5))]
            assert check_sup_continuity(star, fam, random_step_cdf(rng))


class TestWeakContinuity:
    def test_constant_sequences(self):
        F = make_step_cdf([(1, 0.5), (2, 1)])
        assert check_weak_continuity(STAR_MIN, [F] * 10, F, [F] * 10, F, tol=0.01, tail=5)

    def test_shrinking_heaviside(self):
        fseq = [heaviside(1 / n) for n in range(1, 41)]
        assert check_weak_continuity(STAR_MIN, fseq, H0, fseq, H0, tol=0.1, tail=10)

    def test_threshold_star_discontinuous(self):
        def fn(F, L):
            return H0 if evaluate(F, 1.0) >= 1.0 else HINF

        star = TriangleFunction("thresholded", fn)
        fseq = [heaviside(1 - 1 / n) for n in range(2, 42)]  # limit: step at 1
        lseq = [H0] * 40
        assert not check_weak_continuity(star, fseq, heaviside(1), lseq, H0, tol=0.1, tail=10)

    def test_divergent_inputs_rejected(self):
        fseq = [heaviside(1)] * 20
        with pytest.raises(PreconditionViolated):
            check_weak_continuity(STAR_MIN, fseq, H0, fseq, H0, tol=0.1, tail=10)


class TestLimitClosure:
    """Order relations survive weak limits of convolution inequalities."""

    def test_heaviside_sequences(self):
        for a, b in [(0.5, 1.0), (0.25, 0.25), (2.0, 0.125)]:
            fseq = [heaviside(a + 1 / n) for n in range(1, 31)]
            lseq = [heaviside(b + 1 / n) for n in range(1, 31)]
            kseq = [heaviside(a + b)] * 30
            for Fn, Ln, Kn in zip(fseq, lseq, kseq):
                assert leq(sup_convolution(MINIMUM, Fn, Ln), Kn)
            assert leq(
                sup_convolution(MINIMUM, heaviside(a), heaviside(b)), heaviside(a + b)
            )

    def test_two_step_sequences(self):
        rng = random.Random(8)
        from pmspace import quantize, random_step_cdf

        for _ in range(20):
            F = random_step_cdf(rng)
            L = random_step_cdf(rng)
            K = sup_convolution(MINIMUM, F, L)
            # approximants from below still satisfy the bound, and so do the limits
            for n in (2, 4, 8, 16):
                Fn, Ln = quantize(F, 1 / n), quantize(L, 1 / n)
                assert leq(sup_convolution(MINIMUM, Fn, Ln), K)
            assert leq(sup_convolution(MINIMUM, F, L), K)


class TestMonoidStructure:
    @given(F=dyadic_cdfs(), L=dyadic_cdfs(), K=dyadic_cdfs())
    def test_abelian_monoid_exact_on_dyadics(self, F, L, K):
        for star in ALL_STARS:
            assert star(F, L) == star(L, F)
            assert approx_equal(star(F, H0), F)
            assert approx_equal(star(star(F, L), K), star(F, star(L, K)), 1e-9)

    @given(F=cdfs(), L=cdfs(), K=cdfs())
    def test_monotone_in_each_slot(self, F, L, K):
        M = pointwise_sup([F, L])
        for star in ALL_STARS:
            assert leq(star(F, K), star(M, K))
