"""Certification, envelope extension, embeddings, rescaled spaces, and the
equicontinuity machinery."""

import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmspace import (
    H0,
    HINF,
    STAR_LUKA,
    STAR_MIN,
    STAR_PROD,
    LipschitzCheck,
    LipschitzMap,
    ProbMetricSpace,
    StepCdf,
    approx_equal,
    classical_lipschitz_embed,
    delta_embed,
    equicontinuity_bound,
    from_classical_metric,
    gen_space,
    gen_spaces,
    heaviside,
    is_one_lipschitz,
    leq,
    levy_distance,
    levy_to_h0,
    make_space,
    make_step_cdf,
    pointwise_sup,
    random_lipschitz_map,
    random_step_cdf,
    sup_convolution,
    uniform_distance,
    upper_envelope_extension,
)
from pmspace.errors import (
    DomainMismatch,
    EmptySubset,
    PreconditionViolated,
    TriangleViolation,
    UnknownPoint,
    ValidationError,
)
from pmspace.spaces import _exact_envelope
from pmspace.tnorms import MINIMUM, TriangleFunction, star_from_tnorm

from oracles import BudgetExhausted, ModulusEstimate, estimate_modulus, pairwise_lipschitz_scan
from strategies import cdfs, dyadic_cdfs, float_cdfs, window_cdfs
from test_spaces import counted_star_calls, heaviside_space, lower, shifted


PATH3 = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]


class TestCertification:
    def test_distance_embeddings_certified(self):
        for sp in gen_spaces(31, 12):
            for x in sp.points:
                assert is_one_lipschitz(sp, delta_embed(sp, x))

    def test_constant_maps_certified(self):
        sp = gen_space(1, 5, "repair")
        rng = random.Random(1)
        for _ in range(5):
            C = random_step_cdf(rng)
            assert is_one_lipschitz(sp, {p: C for p in sp.points})

    def test_witness_on_failure(self):
        sp = heaviside_space([[0.0, 1.0], [1.0, 0.0]])
        f = {"p0": heaviside(5), "p1": H0}
        check = is_one_lipschitz(sp, f)
        assert not check
        x, y, t = check.witness
        assert (x, y) == ("p0", "p1")

    def test_classical_lift_iff_classically_lipschitz(self):
        sp = heaviside_space(PATH3)
        good = {"p0": 0.0, "p1": 1.0, "p2": 2.0}  # slope exactly 1
        assert is_one_lipschitz(sp, classical_lipschitz_embed(sp, good))
        bad = {"p0": 0.0, "p1": 2.0, "p2": 2.0}  # jumps by 2 over distance 1
        assert not is_one_lipschitz(sp, classical_lipschitz_embed(sp, bad))

    def test_classical_iff_randomized(self):
        rng = random.Random(44)
        for seed in range(30):
            sp = gen_space(seed, rng.randint(2, 6), "metric")
            L = {p: rng.randint(0, 24) / 8.0 for p in sp.points}
            classical = all(
                abs(L[x] - L[y]) <= sp.dist(x, y).breaks[0][0]
                for x in sp.points
                for y in sp.points
                if x != y
            )
            assert bool(is_one_lipschitz(sp, classical_lipschitz_embed(sp, L))) == classical

    def test_missing_point_rejected(self):
        sp = heaviside_space(PATH3)
        with pytest.raises(DomainMismatch, match="^map not defined at point 'p1'$"):
            is_one_lipschitz(sp, {"p0": H0})

    def test_empty_space(self):
        sp = make_space([], [], STAR_MIN)
        assert is_one_lipschitz(sp, {}) == LipschitzCheck(True)


class TestMapValueLookup:
    """Functions that read map values raise DomainMismatch for a missing
    point, with their own message, and for a value that is not a StepCdf,
    not an AttributeError from inside a kernel."""

    @pytest.mark.parametrize("bad", [0.5, None, [[0.5, 1.0]]], ids=["float", "none", "pairs"])
    def test_is_one_lipschitz(self, bad):
        sp = heaviside_space(PATH3)
        with pytest.raises(DomainMismatch, match="not a step cdf"):
            is_one_lipschitz(sp, {p: bad for p in sp.points})

    def test_upper_envelope_extension(self):
        sp = heaviside_space(PATH3)
        with pytest.raises(DomainMismatch, match="not a step cdf"):
            upper_envelope_extension(sp, ["p0"], {"p0": [[0.5, 1.0]]})
        with pytest.raises(DomainMismatch, match="^partial map not defined at anchor 'p1'$"):
            upper_envelope_extension(sp, ["p0", "p1"], {"p0": H0})

    def test_lipschitz_map(self):
        sp = gen_space(0, 3, "metric")
        with pytest.raises(DomainMismatch, match="not a step cdf"):
            LipschitzMap(sp, {p: 0.5 for p in sp.points})
        with pytest.raises(DomainMismatch, match="^map not defined at point 'p1'$"):
            LipschitzMap(sp, {"p0": H0})

    def test_value_outside_the_space(self):
        # a map lives on the space's points only; the envelope's partial map
        # may still be defined beyond its anchors
        sp = heaviside_space(PATH3)
        f = {p: H0 for p in (*sp.points, "z")}
        with pytest.raises(UnknownPoint, match="^point 'z' is not in the space$"):
            is_one_lipschitz(sp, f)
        with pytest.raises(UnknownPoint, match="^point 'z' is not in the space$"):
            LipschitzMap(sp, f)
        assert set(upper_envelope_extension(sp, ["p0"], f).values) == set(sp.points)

    def test_uniform_distance(self):
        with pytest.raises(DomainMismatch, match="not a step cdf"):
            uniform_distance({"p0": H0}, {"p0": 0.5}, ["p0"])
        with pytest.raises(DomainMismatch, match="^map not defined at point 'p1'$"):
            uniform_distance({"p0": H0}, {"p0": H0}, ["p0", "p1"])


# two jumps that chain within TOL: star(H0, F) lifts F on (0.5, 0.5 + 1e-13]
NON_CANONICAL = StepCdf(((0.5, 0.25), (0.5 + 1e-13, 0.5)))
CUSTOM_MIN = star_from_tnorm(MINIMUM)  # the min operation, but not the shared instance


@st.composite
def spaces_and_maps(draw):
    """A generated space and a map on it: grid, float, unit-step, certified,
    or certified with one value replaced; sometimes one value is
    NON_CANONICAL."""
    star = draw(st.sampled_from([STAR_MIN, STAR_PROD, STAR_LUKA, CUSTOM_MIN]))
    n = draw(st.integers(1, 9))
    sp = gen_space(draw(st.integers(0, 99)), n, draw(st.sampled_from(["metric", "repair"])), star)
    kind = draw(st.sampled_from(["grid", "float", "unit", "certified", "broken"]))
    if kind in ("grid", "float", "unit"):
        value = {
            "grid": dyadic_cdfs(),
            "float": float_cdfs(),
            "unit": st.one_of(st.integers(0, 24).map(lambda a: a / 8.0), st.floats(0.0, 4.0)).map(heaviside),
        }[kind]
        values = draw(st.lists(value, min_size=n, max_size=n))
    else:
        values = list(random_lipschitz_map(sp, random.Random(draw(st.integers(0, 10**6)))).values.values())
        if kind == "broken":
            values[draw(st.integers(0, n - 1))] = draw(cdfs())
    if draw(st.booleans()):
        values[draw(st.integers(0, n - 1))] = NON_CANONICAL
    return sp, dict(zip(sp.points, values))


# a distance row with NON_CANONICAL at its center: only the pair (p0, p0),
# which a pruned scan would skip, fails
_R4 = gen_space(2, 4, "repair")
DIAGONAL_ONLY = (_R4, dict(delta_embed(_R4, "p0").values) | {"p0": NON_CANONICAL})


# D(x, y) and D(y, x) agree only within TOL: the map scan reads both, so it
# may not take the levels, whose guard reads the upper triangle alone
_XY, _YX = StepCdf(((0.125, 0.5), (2.0, 1.0))), StepCdf(((0.125, 0.5 + 1e-13), (2.0, 1.0)))
NEAR_SYMMETRIC = (
    make_space(("x", "y"), [[H0, _XY], [_YX, H0]], STAR_MIN),
    {"x": StepCdf(((0.125, 1.0),)), "y": StepCdf(((0.25, 0.5), (1.0, 1.0)))},
)


class TestScanAgreesWithPairwiseOracle:
    """The certificate is the triangle scan with the map as an added column;
    its verdict and witness, t included, must stay those of the pairwise
    loop it replaced."""

    @settings(max_examples=300)
    @given(case=spaces_and_maps())
    @example(case=DIAGONAL_ONLY)
    @example(case=NEAR_SYMMETRIC)
    def test_same_outcome(self, case):
        sp, f = case
        got, want = is_one_lipschitz(sp, f), pairwise_lipschitz_scan(sp, f)
        assert (got.ok, got.witness) == (want.ok, want.witness)

    def test_lowered_envelopes_on_min_repair_spaces(self, monkeypatch):
        # a min space on an exact grid decides the map column on its levels:
        # no star call for a valid map, one for a failure's witness
        rng = random.Random("level-certificate")
        checked = failed = 0
        for n in range(3, 13):
            for seed in range(10):
                sp = gen_space(seed, n, "repair")
                for _ in range(8):
                    f = dict(random_lipschitz_map(sp, rng).values)
                    x = rng.choice(sp.points)
                    f[x] = lower(rng, f[x])
                    want = pairwise_lipschitz_scan(sp, f)
                    with monkeypatch.context() as patch:
                        calls = counted_star_calls(patch)
                        got = is_one_lipschitz(sp, f)
                    assert (got.ok, got.witness) == (want.ok, want.witness)
                    assert len(calls) == (not want.ok)  # the level path ran
                    checked += 1
                    failed += not want.ok
        assert checked == 800 and failed >= 400 and checked - failed >= 100  # both verdicts occur


_MC_OFF_GRID = shifted(gen_space(0, 8, "repair", STAR_PROD))


class TestCertificationWork:
    """Star calls made by the certificate, counted as in TestPrunedTriangleScan."""

    @pytest.mark.parametrize("star", [STAR_MIN, STAR_PROD, STAR_LUKA], ids=["min", "prod", "luka"])
    def test_classical_lift_calls_the_star_only_for_a_witness(self, monkeypatch, star):
        sp = gen_space(3, 10, "metric", star)
        L = {x: sp.dist("p0", x).breaks[0][0] for x in sp.points}  # slope 1
        calls = counted_star_calls(monkeypatch)
        assert is_one_lipschitz(sp, classical_lipschitz_embed(sp, L))
        assert calls == []
        assert not is_one_lipschitz(sp, classical_lipschitz_embed(sp, {x: 2 * L[x] for x in L}))
        assert len(calls) == 1

    def test_certified_map_on_a_repair_space(self, monkeypatch):
        # the pair (x, x) cannot fail: n(n-1) calls, not n^2 (under product,
        # off the breakpoint grid; on it the event check passes pairs and min
        # decides grid maps on levels: TestScanAgreesWithPairwiseOracle)
        sp = shifted(gen_space(3, 10, "repair", STAR_PROD))
        f = random_lipschitz_map(sp, random.Random(3))
        calls = counted_star_calls(monkeypatch)
        assert is_one_lipschitz(sp, f)
        assert len(calls) == 10 * 9

    def test_map_cluster_draws(self, monkeypatch):
        # the 200 draws on the benchmark's map-cluster space: grid data, so
        # every envelope is certified by theorem and only built
        sp = gen_space(0, 8, "repair")
        calls = counted_star_calls(monkeypatch)
        for k in range(200):
            random_lipschitz_map(sp, random.Random(f"map-cluster:{k}"))
        assert len(calls) == 7176

    @pytest.mark.parametrize("space, scan_calls", [
        # an unvalidated copy under product, off the breakpoint grid: the
        # pruned scan, n(n-1) = 56 calls per draw (on the grid the event
        # check passes pairs, and under min the levels decide it with none)
        (ProbMetricSpace(_MC_OFF_GRID.points, _MC_OFF_GRID.matrix, _MC_OFF_GRID.star), 200 * 56),
        # a star that is not a shared built-in: the full scan, n^2 = 64
        (gen_space(0, 8, "repair", CUSTOM_MIN), 200 * 64),
    ], ids=["hand-built", "custom-star"])
    def test_guard_false_draws_are_scanned(self, monkeypatch, space, scan_calls):
        calls = counted_star_calls(monkeypatch)
        for k in range(200):
            random_lipschitz_map(space, random.Random(f"map-cluster:{k}"))
        assert len(calls) == 7176 + scan_calls


class TestEnvelope:
    def test_singleton_anchor_formula(self):
        sp = heaviside_space(PATH3)
        F = make_step_cdf([(0.5, 0.5), (2, 1)])
        f = upper_envelope_extension(sp, ["p1"], {"p1": F})
        for x in sp.points:
            assert approx_equal(f[x], sup_convolution(MINIMUM, F, sp.dist(x, "p1")))

    def test_restriction_equality_for_lipschitz_data(self):
        sp = heaviside_space(PATH3)
        g = delta_embed(sp, "p2")
        f = upper_envelope_extension(sp, sp.points, g.values)
        for x in sp.points:
            assert approx_equal(f[x], g[x])

    def test_dominates_on_anchors(self):
        rng = random.Random(9)
        for seed in range(20):
            sp = gen_space(seed, rng.randint(2, 6), "metric")
            A = rng.sample(list(sp.points), rng.randint(1, len(sp)))
            data = {a: random_step_cdf(rng) for a in A}
            f = upper_envelope_extension(sp, A, data)
            for a in A:
                assert leq(data[a], f[a])

    def test_restriction_differs_for_non_lipschitz_data(self):
        sp = heaviside_space([[0.0, 1.0], [1.0, 0.0]])
        data = {"p0": heaviside(5), "p1": H0}
        assert not is_one_lipschitz(sp, data | {})
        f = upper_envelope_extension(sp, ["p0", "p1"], data)
        assert not approx_equal(f["p0"], data["p0"])
        assert is_one_lipschitz(sp, f)

    def test_always_certified(self):
        rng = random.Random(10)
        for seed in range(30):
            sp = gen_space(seed, rng.randint(1, 6), "repair" if seed % 2 else "metric")
            A = rng.sample(list(sp.points), rng.randint(1, len(sp)))
            f = upper_envelope_extension(sp, A, {a: random_step_cdf(rng) for a in A})
            assert is_one_lipschitz(sp, f)

    @pytest.mark.xfail(
        strict=True,
        raises=ValidationError,
        reason="float addition is not associative: the composite jumps at "
        "fl(1.28 + fl(1.16 + 0.66)) = 3.0999999999999996, the envelope at fl(2.44 + 0.66) = 3.1",
    )
    def test_certified_on_float_distances(self):
        # a valid float metric (1.28 + 1.16 == 2.44 exactly in floats), one anchor
        d = [[0, 1.28, 2.44], [1.28, 0, 1.16], [2.44, 1.16, 0]]
        sp = from_classical_metric(("x", "y", "z"), d, STAR_MIN)
        f = upper_envelope_extension(sp, ["z"], {"z": make_step_cdf([(0.66, 0.5)])})
        assert is_one_lipschitz(sp, f)

    def test_empty_anchor_set(self):
        sp = heaviside_space(PATH3)
        with pytest.raises(EmptySubset):
            upper_envelope_extension(sp, [], {})


def _draws(sp, seed, count):
    """``count`` partial maps on sp: random anchors with grid values of up to
    four breaks, eighths and sixteenths, or up to 16 breaks."""
    rng = random.Random(f"theorem:{seed}:{len(sp)}")
    for _ in range(count):
        anchors = rng.sample(list(sp.points), rng.randint(1, len(sp)))
        yield anchors, {a: random_step_cdf(rng, rng.choice([4, 16])) for a in anchors}


class TestCertifiedByTheorem:
    """On exact-grid data the envelope skips its certificate scan; the scan
    stays as the oracle, and every guard condition can fail on its own."""

    @pytest.mark.parametrize("model", ["metric", "repair"])
    @pytest.mark.parametrize("star", [STAR_MIN, STAR_PROD, STAR_LUKA], ids=["min", "prod", "luka"])
    def test_scan_agrees(self, star, model):
        exact = 0
        for n in range(1, 13):
            for seed in range(3):
                sp = gen_space(seed, n, model, star)
                for anchors, f in _draws(sp, seed, 4):
                    exact += _exact_envelope(sp, list(f.values()))
                    assert is_one_lipschitz(sp, upper_envelope_extension(sp, anchors, f))
        assert exact >= 130  # of 144 draws; prod repair spaces fail the guard now and then

    SPACE = gen_space(5, 4, "repair")
    EIGHTH = StepCdf(((0.125, 0.5),))

    def test_grid_data_passes(self):
        assert self.SPACE._grid == (8, 4.375, 4, 4)
        assert _exact_envelope(self.SPACE, [self.EIGHTH, HINF, H0, StepCdf(((2.0**47 - 1, 0.5),))])

    @pytest.mark.parametrize("F", [
        StepCdf(((0.1, 0.5),)),  # breakpoint off every grid coarser than TOL
        StepCdf(((2.0**-40, 0.5),)),  # on the 2^-40 grid, finer than TOL
        StepCdf(((2.0**47, 0.5),)),  # not below 2^(50-e) on the space's eighths
        StepCdf(((0.5, 0.25), (0.5 + 1e-13, 0.5))),  # not canonical
    ], ids=["off-grid", "fine-grid", "too-large", "non-canonical"])
    def test_breakpoints(self, F):
        assert not _exact_envelope(self.SPACE, [F])

    @pytest.mark.parametrize("v", [(2**17 + 1) / 2**19, 3 / 2**20], ids=["18-bit-numerator", "finer-than-2^-19"])
    def test_value_grid_under_product(self, v):
        sp = gen_space(5, 4, "repair", STAR_PROD)
        assert _exact_envelope(sp, [StepCdf(((0.125, (2**16 + 1) / 2**19),))])
        assert not _exact_envelope(sp, [StepCdf(((0.125, v),))])
        assert _exact_envelope(self.SPACE, [StepCdf(((0.125, v),))])  # min takes either

    @pytest.mark.parametrize(
        "num, q, exact",
        [(1, 19, True), (1, 20, False), (2**17 - 1, 17, True), (2**18 - 1, 18, False)],
        ids=["q=19", "q=20", "b=17", "b=18"],
    )
    def test_value_rule_boundaries_under_product(self, num, q, exact):
        sp = gen_space(5, 4, "repair", STAR_PROD)
        assert _exact_envelope(sp, [StepCdf(((0.125, num / 2**q),))]) is exact

    @pytest.mark.parametrize("top, exact", [(2.0**11 - 2.0**-39, True), (2.0**11, False)], ids=["below", "at"])
    def test_breakpoint_bound_is_joint(self, top, exact):
        # one anchor value sets 2^e = 2^39, another the top: top * 2^e just
        # below 2^50, and at it
        values = [StepCdf(((2.0**-39, 0.5),)), StepCdf(((top, 0.5),))]
        assert _exact_envelope(self.SPACE, values) is exact

    @pytest.mark.parametrize("v", [1 / 3, 2.0**-45], ids=["not-dyadic", "finer-than-tol"])
    def test_value_grid_under_lukasiewicz(self, v):
        sp = gen_space(5, 4, "repair", STAR_LUKA)
        assert not _exact_envelope(sp, [StepCdf(((0.125, v),))])

    def test_values_finer_than_tol_keep_the_scan(self):
        # breakpoints in eighths, values 2^-43 apart: validation accepts
        # star(D(x,y), D(y,a)) = 0.5 + 10u above D(x,a) = 0.5 + 5u within TOL,
        # and the envelope drops the rise from 0.5 to 0.5 + 5u at x, so it
        # is not 1-Lipschitz; the value grid sends it to the scan
        u = 2.0**-43
        dist = {("x", "y"): (1, 1.0), ("y", "a"): (1, 0.5 + 10 * u), ("x", "a"): (2, 0.5 + 5 * u),
                ("x", "b"): (1.5, 0.5), ("y", "b"): (2.5, 0.5), ("a", "b"): (3.5, 0.5)}
        pts = ("x", "y", "a", "b")
        matrix = [[H0 if p == q else StepCdf((dist.get((p, q)) or dist[q, p],)) for q in pts] for p in pts]
        sp = make_space(pts, matrix, STAR_MIN)
        assert sp._grid is None
        with pytest.raises(ValidationError, match=r"^envelope failed certification at \('x', 'y', 3\.0\)$"):
            upper_envelope_extension(sp, ["a", "b"], {"a": H0, "b": H0})

    def test_custom_star(self):
        sp = gen_space(5, 4, "repair", CUSTOM_MIN)
        assert sp._grid is None and not _exact_envelope(sp, [self.EIGHTH])

    def test_hand_built_space_keeps_its_scan(self):
        # d(p0, p2) = 5 > 1 + 1 = d(p0, p1) + d(p1, p2): make_space rejects it,
        # and a space built by hand is scanned, as it always was
        d = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        matrix = tuple(tuple(heaviside(x) if x else H0 for x in row) for row in d)
        with pytest.raises(TriangleViolation):
            make_space(("p0", "p1", "p2"), matrix, STAR_MIN)
        sp = ProbMetricSpace(("p0", "p1", "p2"), matrix, STAR_MIN)
        assert sp._grid is None
        with pytest.raises(ValidationError, match=r"^envelope failed certification at \('p0', 'p1', 5\.0\)$"):
            upper_envelope_extension(sp, ["p2"], {"p2": H0})

    def test_validation_flag_is_invisible(self):
        built = gen_space(5, 4, "repair")
        by_hand = ProbMetricSpace(built.points, built.matrix, built.star)
        assert built == by_hand and repr(built) == repr(by_hand) and hash(built) == hash(by_hand)
        assert built._grid is not None and by_hand._grid is None
        assert dataclasses.replace(built)._grid is None


class TestDeltaEmbed:
    def test_vanishes_at_center(self):
        sp = heaviside_space(PATH3)
        assert delta_embed(sp, "p1")["p1"] == H0

    def test_is_distance_row(self):
        sp = gen_space(2, 5, "repair")
        f = delta_embed(sp, sp.points[2])
        for y in sp.points:
            assert f[y] == sp.dist(y, sp.points[2])


class TestRescale:
    def test_rescaled_space_certifies_steeper_maps(self):
        # doubling all distances turns a slope-2 assignment into a certified map
        sp = heaviside_space(PATH3)
        doubled = heaviside_space([[2 * v for v in row] for row in PATH3])
        steep = {"p0": 0.0, "p1": 2.0, "p2": 4.0}
        assert not is_one_lipschitz(sp, classical_lipschitz_embed(sp, steep))
        assert is_one_lipschitz(doubled, classical_lipschitz_embed(doubled, steep))


class TestEquicontinuity:
    def test_neutral_perturbation(self):
        F = make_step_cdf([(1, 0.5), (2, 1)])
        lhs, rhs = equicontinuity_bound(H0, F, F, STAR_MIN)
        assert lhs == 0.0 and rhs == 0.0

    def test_equal_values(self):
        F = make_step_cdf([(0.5, 0.25), (1.5, 1)])
        D = heaviside(0.25)
        if leq(sup_convolution(MINIMUM, D, F), F):
            lhs, rhs = equicontinuity_bound(D, F, F, STAR_MIN)
            assert lhs == 0.0 <= rhs

    def test_violated_relations_rejected(self):
        with pytest.raises(PreconditionViolated):
            equicontinuity_bound(heaviside(1), heaviside(5), H0, STAR_MIN)

    def test_bound_on_constructed_pairs(self):
        rng = random.Random(12)
        slack = 3e-10
        for _ in range(100):
            D = random_step_cdf(rng)
            G = random_step_cdf(rng)
            Fx = sup_convolution(MINIMUM, D, G)  # then star(D, G) <= G's partner holds
            lhs, rhs = equicontinuity_bound(D, Fx, G, STAR_MIN)
            assert lhs <= rhs + slack


@st.composite
def bumped_pairs(draw):
    """(D joined with a bump (r, 1 - r), F): D then lies within r of H0."""
    D, F = draw(cdfs()), draw(cdfs())
    r = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return pointwise_sup([D, make_step_cdf([(r, 1.0 - r)])]), F


# Every breakpoint below 1/8, where the Lukasiewicz star's rounding exceeds
# the slack: d_L(star(D, F), F) - d_L(D, H0) = 1.04e-16 against 5.9e-17.
LUKA_ROUNDING_PAIR = (
    make_step_cdf([(0.006429835674238833, 0.9935701643257612)]),
    make_step_cdf([(0.06348448247107095, 1.0)]),
)


class TestModulusTheorem:
    """d_L(star(D, F), F) <= d_L(D, H0) for every t-norm T >= W: the
    equicontinuity modulus is eta(eps) = eps (see equicontinuity_bound).  The
    slack is levy_distance's certificate bound, four ulps of the distance and
    four of the largest breakpoint, not a fitted constant.

    The Lukasiewicz star computes ``x + y - 1.0``, which rounds x + y first
    and can fall up to 2^-53 below W, more than the slack on
    LUKA_ROUNDING_PAIR.  Its case is a strict expected failure: it fails on
    that pair until the star is computed exactly, and then the marker must
    go."""

    @pytest.mark.parametrize("star", [
        pytest.param(STAR_MIN, id="min"),
        pytest.param(STAR_PROD, id="prod"),
        pytest.param(STAR_LUKA, id="luka", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason="tnorms._lukasiewicz rounds x + y before subtracting 1")),
    ])
    @settings(max_examples=200)
    @given(pair=st.one_of(st.tuples(cdfs(), cdfs()), st.tuples(cdfs(8), cdfs(8)),
                          st.tuples(window_cdfs(), window_cdfs()), bumped_pairs()))
    @example(pair=LUKA_ROUNDING_PAIR)
    def test_perturbation_within_distance_to_h0(self, star, pair):
        D, F = pair
        G = star(D, F)
        d = levy_distance(G, F)
        m = max([d] + [t for t, _ in G.breaks + F.breaks])
        assert d <= levy_to_h0(D) + 4 * math.ulp(d) + 4 * math.ulp(m)


class TestEstimateModulus:
    """The sampled modulus of tests/oracles.py."""

    @staticmethod
    def sampler(seed):
        rng = random.Random(seed)
        return lambda: random_step_cdf(rng)

    def test_trivial_scale(self):
        est = estimate_modulus(STAR_MIN, 1.0, self.sampler(1), budget=30)
        assert est == ModulusEstimate(eta=1.0, samples=60)

    def test_heaviside_sampler_passes_at_full_scale(self):
        eps = 0.25
        rng = random.Random(2)
        sampler = lambda: heaviside(eps * rng.uniform(0.05, 0.9))
        est = estimate_modulus(STAR_MIN, eps, sampler, budget=40)
        assert est.eta == eps

    def test_degenerate_star_ignores_perturbation(self):
        star = TriangleFunction("forgetful", lambda D, F: F)
        est = estimate_modulus(star, 0.5, self.sampler(3), budget=20)
        assert est.eta == 0.5

    def test_budget_exhaustion_on_adversarial_star(self):
        star = TriangleFunction("separator", lambda D, F: HINF)
        sampler = lambda: H0  # distance star(D, H0) = zero function stays 1 away
        with pytest.raises(BudgetExhausted):
            estimate_modulus(star, 0.5, sampler, budget=5, max_halvings=5)

    @pytest.mark.parametrize("star", [STAR_MIN, STAR_PROD, STAR_LUKA], ids=["min", "prod", "luka"])
    def test_oracle_finds_eta_equal_to_eps(self, star):
        for eps in (0.5, 0.2, 0.1, 0.05, 0.02):
            est = estimate_modulus(star, eps, self.sampler(f"{star.name}:{eps}"), budget=40)
            assert est == ModulusEstimate(eta=eps, samples=80)


class TestContinuityAtDeskScale:
    def test_lipschitz_maps_are_continuous_along_converging_sequences(self):
        # in a finite space a sequence converging to x is eventually x itself,
        # and the equicontinuity bound controls the other steps
        sp = gen_space(21, 5, "metric")
        rng = random.Random(21)
        f = random_lipschitz_map(sp, rng)
        x = sp.points[0]
        seq = [rng.choice(sp.points) for _ in range(5)] + [x] * 10
        for y in seq[-10:]:
            assert levy_distance(f[y], f[x]) == 0.0
        for y in sp.points:
            lhs, rhs = equicontinuity_bound(sp.dist(x, y), f[x], f[y], sp.star)
            assert lhs <= rhs + 3e-10


class TestPointwiseLimitClosure:
    def test_perturbed_sequences_have_certified_limits(self):
        # dyadic perturbation scales keep every breakpoint sum exact
        scales = [2.0**-k for k in range(1, 11)]
        rng = random.Random(33)
        for seed in range(20):
            sp = gen_space(seed, rng.randint(2, 5), "metric")
            g = random_lipschitz_map(sp, rng)
            fs = [
                LipschitzMap(
                    sp,
                    {x: sup_convolution(MINIMUM, heaviside(s), g[x]) for x in sp.points},
                )
                for s in scales
            ]
            for fn in fs:
                assert is_one_lipschitz(sp, fn)
            # pointwise limit of the sequence is g itself
            for x in sp.points:
                assert levy_distance(fs[-1][x], g[x]) <= scales[-1] + 1e-9
            assert is_one_lipschitz(sp, g)


class TestDeltaLowerBound:
    def test_uniform_distance_dominates_point_distance(self):
        slack = 2e-10
        for sp in gen_spaces(41, 10):
            embeds = {p: delta_embed(sp, p) for p in sp.points}
            for p in sp.points:
                for q in sp.points:
                    lower = levy_to_h0(sp.dist(p, q))
                    assert uniform_distance(embeds[p], embeds[q], sp.points) >= lower - slack
