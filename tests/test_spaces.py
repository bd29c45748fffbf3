"""Space construction, axiom validation, neighborhoods, covers and
generators."""

import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmspace import (
    H0,
    Document,
    STAR_LUKA,
    STAR_MIN,
    STAR_PROD,
    StepCdf,
    covering_net,
    from_classical_metric,
    gen_space,
    gen_spaces,
    heaviside,
    is_cauchy,
    leq,
    levy_to_h0,
    make_space,
    make_step_cdf,
    parse_document,
    random_lipschitz_map,
    random_step_cdf,
    serialize_document,
    strong_neighborhood,
    sup_convolution,
)
from pmspace.errors import (
    IdentityViolation,
    NotAMetric,
    PreconditionViolated,
    SpaceAxiomViolation,
    StarNotAdditiveOnHeaviside,
    SymmetryViolation,
    TriangleViolation,
    UnknownPoint,
)
from pmspace import spaces, tnorms
from pmspace.cli import run_command
from pmspace.spaces import validate_space_matrix
from pmspace.tnorms import LUKASIEWICZ, MINIMUM, PRODUCT, TriangleFunction, custom_tnorm, star_from_tnorm

from oracles import composed_scan_plan, full_triangle_scan, sweep_relax_to_triangle
from strategies import cdfs, dyadic_cdfs


def heaviside_space(d, star=STAR_MIN):
    labels = tuple(f"p{i}" for i in range(len(d)))
    return from_classical_metric(labels, d, star)


PATH3 = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]


def hamacher(x, y):
    return 0.0 if x == y == 0.0 else x * y / (x + y - x * y)


class TestMakeSpace:
    def test_one_point(self):
        sp = make_space(("a",), [[H0]], STAR_MIN)
        assert sp.dist("a", "a") == H0

    def test_identity_violation(self):
        with pytest.raises(IdentityViolation) as err:
            make_space(("a", "b"), [[H0, H0], [H0, H0]], STAR_MIN)
        assert err.value.witness == ("a", "b")

    def test_diagonal_must_be_unit_step(self):
        F = heaviside(1)
        with pytest.raises(IdentityViolation):
            make_space(("a", "b"), [[F, F], [F, H0]], STAR_MIN)

    def test_symmetry_violation(self):
        with pytest.raises(SymmetryViolation):
            make_space(
                ("a", "b"),
                [[H0, heaviside(1)], [heaviside(2), H0]],
                STAR_MIN,
            )

    def test_triangle_violation_carries_witness(self):
        # distances 1, 1, 3 cannot close: step at 1+1 beats step at 3
        d12, d23, d13 = heaviside(1), heaviside(1), heaviside(3)
        with pytest.raises(TriangleViolation) as err:
            make_space(
                ("a", "b", "c"),
                [[H0, d12, d13], [d12, H0, d23], [d13, d23, H0]],
                STAR_MIN,
            )
        assert len(err.value.witness) == 4  # (p, q, r, offending t)

    def test_classical_path_metric_valid(self):
        sp = heaviside_space(PATH3)
        assert sp.dist("p0", "p2") == heaviside(2)
        assert leq(
            sup_convolution(MINIMUM, sp.dist("p0", "p1"), sp.dist("p1", "p2")),
            sp.dist("p0", "p2"),
        )


def validation_outcome(points, matrix, star):
    try:
        validate_space_matrix(points, matrix, star)
    except SpaceAxiomViolation as exc:
        return type(exc), str(exc), exc.witness
    return None


def counted_star_calls(monkeypatch) -> list:
    """A list that gains one entry per ``tnorms.sup_convolution`` call."""
    calls = []
    real = tnorms.sup_convolution

    def counted(T, F, L):
        calls.append(1)
        return real(T, F, L)

    monkeypatch.setattr(tnorms, "sup_convolution", counted)
    return calls


def count_star_calls(monkeypatch, points, matrix, star) -> int:
    calls = counted_star_calls(monkeypatch)
    validate_space_matrix(points, matrix, star)
    return len(calls)


def equilateral(n, F=heaviside(1.0)):
    return [[H0 if i == k else F for k in range(n)] for i in range(n)]


def shifted(sp, delta=0.1):
    """sp validated again with every off-diagonal breakpoint moved right by
    delta: off the breakpoint grid, and valid with a margin of delta, since
    a star's sums move by 2 * delta and the entry they meet by delta."""
    m = [
        [F if i == k else StepCdf(tuple((t + delta, v) for t, v in F.breaks)) for k, F in enumerate(row)]
        for i, row in enumerate(sp.matrix)
    ]
    return make_space(sp.points, m, sp.star)


class TestPrunedTriangleScan:
    """Built-in stars scan only i < k, j not in {i, k}; the verdict, message
    and witness must stay those of the full n^3 scan."""

    @pytest.mark.parametrize("star", [STAR_MIN, STAR_PROD, STAR_LUKA], ids=["min", "prod", "luka"])
    def test_matches_full_scan(self, star):
        rng = random.Random(f"pruned:{star.name}")
        raised = 0
        for sp in gen_spaces(31, 40, max_points=7, star=star):
            cases = [[list(row) for row in sp.matrix]]
            for _ in range(6 if len(sp) > 1 else 0):
                m = [list(row) for row in sp.matrix]
                i, k = rng.sample(range(len(sp)), 2)
                m[i][k] = m[k][i] = random_step_cdf(rng, 4, grid=rng.random() < 0.7)
                cases.append(m)
            for m in cases:
                want = full_triangle_scan(sp.points, m, star)
                assert validation_outcome(sp.points, m, star) == want
                raised += want is not None
        assert raised > 60  # the corrupted copies do exercise the witness

    def test_call_count_builtin(self, monkeypatch):
        # repair entries have several jumps, so under product this is the
        # lattice scan; off the breakpoint grid no event check passes a triple
        # (TestEventCheck), and under min the level scan decides grid data
        # (TestLevelScan)
        sp = shifted(gen_space(3, 10, "repair", STAR_PROD))
        assert count_star_calls(monkeypatch, sp.points, sp.matrix, STAR_PROD) == 10 * 9 * 8 // 2

    def test_call_count_custom_star(self, monkeypatch):
        sp = gen_space(3, 10, "metric")
        custom = star_from_tnorm(MINIMUM)  # same operation, not a shared instance
        assert count_star_calls(monkeypatch, sp.points, sp.matrix, custom) == 10**3

    @pytest.mark.parametrize(
        "i, k, F",
        [(2, 1, heaviside(1.0 + 1e-13)), (3, 3, heaviside(1e-13))],  # both within TOL
        ids=["asymmetric", "diagonal"],
    )
    def test_inexact_matrix_gets_full_scan(self, monkeypatch, i, k, F):
        labels = ("a", "b", "c", "d")
        m = equilateral(4)
        m[i][k] = F
        assert count_star_calls(monkeypatch, labels, m, STAR_MIN) == 4**3

    def test_non_canonical_entry_gets_full_scan(self):
        # the two jumps chain within TOL, so star(H0, F) lifts F on (1, 1 + 1e-13]:
        # only the skipped triple (a, a, b) fails, and the full scan finds it
        F = StepCdf(((1.0, 0.5), (1.0 + 1e-13, 0.9)))
        labels = ("a", "b", "c")
        m = equilateral(3)
        m[0][1] = m[1][0] = F
        want = full_triangle_scan(labels, m, STAR_MIN)
        assert want is not None and want[2][:3] == ("a", "a", "b")
        assert validation_outcome(labels, m, STAR_MIN) == want


class TestUnitStepScan:
    """A pruned matrix of unit steps H(d) is scanned on the locations d with
    float sums; verdict, message and witness must stay those of the full
    lattice scan."""

    @staticmethod
    def corrupted(sp, rng):
        """Copies of a metric space's matrix with one symmetric pair moved,
        and one with a point moved to 1e308, where sums through it overflow."""
        n = len(sp)
        cases = []
        for move in (
            lambda a: math.nextafter(a, math.inf),
            lambda a: math.nextafter(a, 0.0),
            lambda a: a * 1.01,
            lambda a: a * 2.0,
            lambda a: 1e308,
        ):
            m = [list(row) for row in sp.matrix]
            i, k = rng.sample(range(n), 2)
            m[i][k] = m[k][i] = heaviside(move(m[i][k].breaks[0][0]))
            cases.append(m)
        m = [list(row) for row in sp.matrix]
        far = rng.randrange(n)
        for k in range(n):
            if k != far:
                m[far][k] = m[k][far] = heaviside(1e308)
        cases.append(m)
        return cases

    @pytest.mark.parametrize("star", [STAR_MIN, STAR_PROD, STAR_LUKA], ids=["min", "prod", "luka"])
    def test_matches_full_scan(self, star):
        rng = random.Random(f"unit-step:{star.name}")
        raised = 0
        for n in range(2, 13):
            for seed in range(3):
                sp = gen_space(seed, n, "metric", star)
                for m in [sp.matrix, *self.corrupted(sp, rng)]:
                    want = full_triangle_scan(sp.points, m, star)
                    assert validation_outcome(sp.points, m, star) == want
                    raised += want is not None
        assert raised > 60  # the corrupted copies do exercise the witness

    @pytest.mark.parametrize("star", [STAR_MIN, STAR_PROD, STAR_LUKA], ids=["min", "prod", "luka"])
    def test_no_star_call_on_a_metric(self, monkeypatch, star):
        # star_from_tnorm(MINIMUM) on the same space still makes 10^3 calls:
        # TestPrunedTriangleScan.test_call_count_custom_star
        sp = gen_space(3, 10, "metric", star)
        assert count_star_calls(monkeypatch, sp.points, sp.matrix, star) == 0

    def test_jump_below_one_takes_the_lattice_path(self, monkeypatch):
        # read as H(1), the entry would pass; the lattice sees H(2) above
        # ((1, 0.5),) past t = 2 and reports the probe t = 3 (under min the
        # level scan decides this matrix: TestLevelScan)
        labels = ("a", "b", "c", "d")
        m = equilateral(4)
        m[0][2] = m[2][0] = StepCdf(((1.0, 0.5),))
        want = full_triangle_scan(labels, m, STAR_PROD)
        assert want is not None and want[2][3] == 3.0
        calls = counted_star_calls(monkeypatch)
        assert validation_outcome(labels, m, STAR_PROD) == want
        assert calls

    def test_skips_the_diagonal(self):
        # d[j][j] = 0 makes (i, j, j) a check that never fails, so a spy on
        # the diagonal is the only way to see that the scan skips k == j
        added = []

        class Zero(float):
            def __radd__(self, other):
                added.append(other)
                return float(other)

        sp = gen_space(1, 6, "metric")
        m = [list(row) for row in sp.matrix]
        for i in range(len(m)):
            m[i][i] = StepCdf(((Zero(0.0), 1.0),))
        validate_space_matrix(sp.points, m, STAR_MIN)
        assert added == []


def lower(rng, F):
    """F lowered on the grid: its last jump dropped, or one jump moved right
    by 1/8 (dropped where it would reach the next)."""
    breaks = list(F.breaks)
    if breaks and rng.random() < 0.5:
        b = rng.randrange(len(breaks))
        t, v = breaks[b]
        if b + 1 < len(breaks) and breaks[b + 1][0] <= t + 0.125:
            del breaks[b]
        else:
            breaks[b] = (t + 0.125, v)
    elif breaks:
        breaks.pop()
    return StepCdf(tuple(breaks))


def lowered(rng, m):
    """A copy of m with one symmetric pair lowered by :func:`lower`."""
    m = [list(row) for row in m]
    i, k = rng.sample(range(len(m)), 2)
    m[i][k] = m[k][i] = lower(rng, m[i][k])
    return m


class TestLevelScan:
    """A min matrix on an exact grid is scanned on its quantiles, one
    classical check per value level, with one star call for the witness;
    verdict, message and witness must stay those of the full lattice scan."""

    def test_matches_full_scan_on_lowered_min_spaces(self, monkeypatch):
        rng = random.Random("level-scan")
        checked = raised = 0
        for n in range(3, 13):
            for seed in range(25):
                sp = gen_space(seed, n, "repair")
                for _ in range(8):
                    m = lowered(rng, sp.matrix)
                    want = full_triangle_scan(sp.points, m, STAR_MIN)
                    with monkeypatch.context() as patch:
                        calls = counted_star_calls(patch)
                        assert validation_outcome(sp.points, m, STAR_MIN) == want
                    assert len(calls) == (want is not None)  # the level path ran
                    checked += 1
                    raised += want is not None
        assert checked == 2000 and raised >= 1000 and checked - raised >= 200

    def test_star_calls(self, monkeypatch):
        sp = gen_space(3, 10, "repair")
        m = [list(row) for row in sp.matrix]
        m[0][1] = m[1][0] = StepCdf(m[0][1].breaks[:-1])
        calls = counted_star_calls(monkeypatch)
        assert validation_outcome(sp.points, sp.matrix, STAR_MIN) is None and calls == []
        assert validation_outcome(sp.points, m, STAR_MIN)[0] is TriangleViolation
        assert len(calls) == 1  # the witness of the first failing triple

    def test_first_failure_is_the_smallest_over_levels(self, monkeypatch):
        # level 1/2 first fails at (b, a, c), level 1 at (a, b, c): the scan
        # reports the lexicographic minimum, not the first failing level's
        D01 = StepCdf(((0.125, 0.5), (0.25, 1.0)))
        D02 = StepCdf(((0.125, 0.5), (1.0, 1.0)))
        D12 = StepCdf(((0.5, 1.0),))
        labels = ("a", "b", "c")
        m = [[H0, D01, D02], [D01, H0, D12], [D02, D12, H0]]
        q = spaces._scan_plan(m, STAR_MIN, 0)[1]
        assert [spaces._metric_failure(d, 0) for d in q] == [(1, 0, 2), (0, 1, 2)]
        want = full_triangle_scan(labels, m, STAR_MIN)
        assert want is not None and want[2] == ("a", "b", "c", 1.0)
        calls = counted_star_calls(monkeypatch)
        assert validation_outcome(labels, m, STAR_MIN) == want
        assert len(calls) == 1  # the level path ran

    @pytest.mark.parametrize("square", [True, False], ids=["square", "map-column"])
    def test_metric_failure_matches_the_textbook_loop(self, square):
        # the first failing triple in pruned order, on float, eighth and
        # +inf weights, closed (and so valid) or not
        rng = random.Random(f"metric-failure:{square}")
        failed = 0
        for n in range(1, 10):
            for _ in range(30):
                d = [[0.0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        d[i][j] = d[j][i] = rng.choice([math.inf, rng.uniform(0.1, 3.0), rng.randint(1, 24) / 8])
                if rng.random() < 0.3:
                    spaces._floyd_warshall(d)
                k0 = 0 if square else n
                if not square:
                    for row in d:
                        row.append(rng.choice([math.inf, rng.uniform(0.1, 6.0), rng.randint(1, 48) / 8]))
                want = next(
                    (
                        (i, j, k)
                        for i in range(n)
                        for j in range(n)
                        for k in range(k0, len(d[i]))
                        if k > i and j not in (i, k) and d[i][j] + d[j][k] < d[i][k]
                    ),
                    None,
                )
                assert spaces._metric_failure(d, k0) == want
                failed += want is not None
        assert 50 < failed < 9 * 30  # both verdicts occur

    @pytest.mark.parametrize(
        "F",
        [
            StepCdf(((0.1, 0.5), (0.3, 1.0))),  # off the breakpoint grid
            StepCdf(((1.0, 1 / 3), (2.0, 1.0))),  # off the value grid
        ],
        ids=["float-breakpoints", "float-values"],
    )
    def test_off_the_guard_takes_the_star_path(self, monkeypatch, F):
        labels = tuple(f"p{i}" for i in range(10))
        assert count_star_calls(monkeypatch, labels, equilateral(10, F), STAR_MIN) == 10 * 9 * 8 // 2


class TestEventCheck:
    """Under product and Lukasiewicz a pruned triple on an exact breakpoint
    grid is passed by spaces._events_below before any star call; verdict,
    message and witness must stay those of the full lattice scan, and the
    closure that of the pass without the check."""

    STARS = pytest.mark.parametrize("star", [STAR_PROD, STAR_LUKA], ids=["prod", "luka"])

    @STARS
    def test_matches_full_scan_on_lowered_spaces(self, monkeypatch, star):
        rng = random.Random(f"event-check:{star.name}")
        checked = raised = exact = 0
        for n in range(3, 13):
            for seed in range(10):
                sp = gen_space(seed, n, "repair", star)
                for _ in range(4):
                    m = lowered(rng, sp.matrix)
                    want = full_triangle_scan(sp.points, m, star)
                    with monkeypatch.context() as patch:
                        calls = counted_star_calls(patch)
                        assert validation_outcome(sp.points, m, star) == want
                    grid = spaces._exact_grid(F for i, row in enumerate(m) for F in row[i + 1 :])
                    if spaces._exact_on_grid(grid, 2, 2, star.tnorm):
                        # event values and entries on a grid coarser than TOL
                        assert len(calls) == (want is not None)
                        exact += 1
                    checked += 1
                    raised += want is not None
        assert checked == 400 and raised >= 250 and checked - raised >= 50 and exact >= 350

    @STARS
    def test_star_calls(self, monkeypatch, star):
        sp = gen_space(3, 10, "repair", star)
        m = [list(row) for row in sp.matrix]
        m[0][1] = m[1][0] = StepCdf(m[0][1].breaks[:-1])
        off = shifted(sp)  # off the breakpoint grid: every pruned triple calls the star
        calls = counted_star_calls(monkeypatch)
        assert validation_outcome(sp.points, sp.matrix, star) is None and calls == []
        assert validation_outcome(sp.points, m, star)[0] is TriangleViolation
        assert len(calls) == 1  # the witness of the first failing triple
        calls.clear()
        assert validation_outcome(off.points, off.matrix, star) is None
        assert len(calls) == 10 * 9 * 8 // 2

    @pytest.mark.parametrize("star", [STAR_MIN, STAR_PROD, STAR_LUKA], ids=["min", "prod", "luka"])
    @given(dyadic_cdfs(6), dyadic_cdfs(6), cdfs(), st.sampled_from([0.0, 1e-13, 1e-12, 2e-12, 1 / 16]),
           st.sampled_from([-0.125, 0.0, 0.125]))
    def test_a_pass_is_a_pass_of_the_star(self, star, F, G, K, dv, dt):
        # one-sided: True proves leq(star(F, G), H) on the breakpoint grid;
        # H is star(F, G) moved and lowered, or any cdf
        S = star(F, G)
        near = make_step_cdf((t + dt, v - dv) for t, v in S.breaks if t + dt >= 0 and v - dv > 0)
        for H in (near, K):
            if spaces._events_below(F, G, H, star.tnorm.fn):
                assert leq(S, H)

    @STARS
    def test_closure_matches_the_unchecked_pass(self, monkeypatch, star):
        # product at n >= 11 is past the closure theorem's value guard, and
        # gen_space validates what the checked pass returns
        close, closed = spaces._close_triangle, []

        def both(matrix, star):
            want = [list(row) for row in matrix]
            with monkeypatch.context() as patch:
                patch.setattr(spaces, "_events_below", lambda F, G, H, fn: False)
                close(want, star)
            close(matrix, star)
            assert matrix == want
            closed.append(len(matrix))

        monkeypatch.setattr(spaces, "_close_triangle", both)
        for n in (3, 4, 6, 8, 10, 11, 12, 14, 16):
            for seed in range(10):
                gen_space(seed, n, "repair", star)
        assert len(closed) == 90

    def test_closure_stops_checking_where_sums_may_round(self, monkeypatch):
        # raising (0, 2) puts a breakpoint at 2^52, past which sums of two
        # integers may round: (0, 1) through 2 then calls the star unchecked
        D = StepCdf(((2.0**51, 0.5),))
        m = [[H0, D, StepCdf()], [D, H0, D], [StepCdf(), D, H0]]
        calls = counted_star_calls(monkeypatch)
        spaces._close_triangle(m, STAR_PROD)
        assert len(calls) == 2 and m[0][2] == StepCdf(((2.0**52, 0.25),))

    @pytest.mark.parametrize("star, pinned", [(STAR_PROD, 150), (STAR_LUKA, 100)], ids=["prod", "luka"])
    def test_closure_star_calls(self, monkeypatch, star, pinned):
        # 360 without the check (TestClosureCertificate)
        calls = counted_star_calls(monkeypatch)
        gen_space(3, 10, "repair", star)
        assert len(calls) == pinned


class TestScanPlan:
    """spaces._scan_plan decides each triangle scan's path in one pass; it
    must give the plan the earlier helpers composed, and each kind of input
    its own plan."""

    @staticmethod
    def squares(sp, rng):
        """sp's matrix, its shifted copy, its breakpoints scaled so that sums
        of two just leave the exact range, and for n > 1 copies with: a pair
        lowered, one breakpoint moved by an ulp in one half only, a
        non-canonical pair, and a diagonal entry off H0."""
        n = len(sp)
        cases = [sp.matrix, shifted(sp).matrix]
        top = max((t for row in sp.matrix for F in row for t, _ in F.breaks), default=0.0)
        if top > 0.0:
            scale = 2.0 ** (52 - math.floor(math.log2(top)))  # top * scale in [2^52, 2^53)
            cases.append([[StepCdf(tuple((t * scale, v) for t, v in F.breaks)) for F in row] for row in sp.matrix])
        if n > 1:
            cases.append(lowered(rng, sp.matrix))
            i, k = rng.choice([(i, k) for i in range(n) for k in range(n) if i != k and sp.matrix[i][k].breaks])
            ulp, odd, diag = ([list(row) for row in sp.matrix] for _ in range(3))
            (t, v), *rest = ulp[i][k].breaks
            ulp[i][k] = StepCdf(((math.nextafter(t, math.inf), v), *rest))
            odd[i][k] = odd[k][i] = StepCdf(((1.0, 0.5), (1.0 + 1e-13, 0.9)))  # jumps chain within TOL
            diag[i][i] = heaviside(1e-13)
            cases += [ulp, odd, diag]
        return cases

    @staticmethod
    def columns(sp, rng):
        """Map columns: the distances to a point, a random certified map's
        values, and those values with one non-canonical entry."""
        n, p = len(sp), rng.randrange(len(sp))
        f = random_lipschitz_map(sp, rng)
        values = [f[x] for x in sp.points]
        bad = list(values)
        bad[rng.randrange(n)] = StepCdf(((1.0, 0.5), (1.0 + 1e-13, 0.9)))  # jumps chain within TOL
        return [[row[p] for row in sp.matrix], values, bad]

    def test_matches_the_composed_helpers(self):
        rng = random.Random("scan-plan")
        kinds = Counter()
        for star in [STAR_MIN, STAR_PROD, STAR_LUKA, star_from_tnorm(MINIMUM)]:
            for model in ("metric", "repair"):
                for n in (1, 2, 5, 8):
                    for seed in range(3):
                        sp = gen_space(seed, n, model, star)
                        cases = [(m, 0) for m in self.squares(sp, rng)]
                        cases += [
                            ([(*row, F) for row, F in zip(m, col)], n)
                            for m, _ in list(cases)
                            for col in self.columns(sp, rng)
                        ]
                        for m, k0 in cases:
                            prune, q, fn = spaces._scan_plan(m, star, k0)
                            want = composed_scan_plan(m, star, k0)
                            assert (prune, q) == want[:2] and fn is want[2]
                            kinds[prune, q is not None and min(len(q), 2), fn is not None] += 1
        # unpruned, one level, several levels, event check, pruned star scan
        assert len(kinds) == 5 and min(kinds.values()) >= 40

    @pytest.mark.parametrize("star", [STAR_MIN, STAR_PROD, STAR_LUKA], ids=["min", "prod", "luka"])
    def test_plan_per_input(self, star):
        metric, repair = gen_space(3, 10, "metric", star), gen_space(3, 10, "repair", star)
        prune, q, fn = spaces._scan_plan(metric.matrix, star, 0)
        assert prune and len(q) == 1 and fn is None
        prune, q, fn = spaces._scan_plan(repair.matrix, star, 0)
        if star is STAR_MIN:
            assert prune and len(q) > 1 and fn is None
        else:
            assert prune and q is None and fn is star.tnorm.fn
        assert spaces._scan_plan(shifted(repair).matrix, star, 0) == (True, None, None)
        assert spaces._scan_plan(repair.matrix, star_from_tnorm(star.tnorm), 0) == (False, None, None)


class TestTriangleClosure:
    """The repair generator closes its matrix with one Floyd-Warshall pass;
    the result must be the fixpoint of the repeated (i < j, q) sweeps it
    replaced, under the shared built-in stars and fresh instances alike."""

    SEEDS = random.Random("closure").sample(range(10**6), 6)

    @pytest.mark.parametrize(
        "star",
        [STAR_MIN, STAR_PROD, STAR_LUKA] + [star_from_tnorm(T) for T in (MINIMUM, PRODUCT, LUKASIEWICZ)],
        ids=["min", "prod", "luka", "fresh-min", "fresh-prod", "fresh-luka"],
    )
    def test_matches_sweep_oracle(self, monkeypatch, star):
        def sweep(matrix, star):
            assert sweep_relax_to_triangle(matrix, star, 10 * len(matrix) ** 3)

        for n in range(3, 11):
            for seed in self.SEEDS:
                got = gen_space(seed, n, "repair", star)
                with monkeypatch.context() as m:
                    m.setattr(spaces, "_close_triangle", sweep)
                    m.setattr(spaces, "_close_levels", lambda matrix: sweep(matrix, STAR_MIN))
                    want = gen_space(seed, n, "repair", star)
                assert got.matrix == want.matrix

    def test_one_pass_call_count(self, monkeypatch):
        # n(n-1)(n-2)/2 star calls per pass: every k, every pair i < j off k
        rng = random.Random("closure-count")
        n = 7
        draw = [[None] * n for _ in range(n)]
        for i in range(n):
            draw[i][i] = H0
            for j in range(i + 1, n):
                draw[i][j] = draw[j][i] = random_step_cdf(rng, 3)
        per_pass = n * (n - 1) * (n - 2) // 2
        calls = counted_star_calls(monkeypatch)
        builtin = [list(row) for row in draw]
        spaces._close_triangle(builtin, STAR_MIN)
        assert len(calls) == per_pass and builtin != draw
        # another instance of the same operation makes the same one pass
        calls.clear()
        custom = [list(row) for row in draw]
        spaces._close_triangle(custom, star_from_tnorm(MINIMUM))
        assert len(calls) == per_pass and custom == builtin

    def test_one_pass_closes_a_non_dyadic_tnorm(self):
        # the Hamacher product rounds on grid data, so one pass is the closure
        # only up to that rounding; gen_space validates what it returns
        star = star_from_tnorm(custom_tnorm("hamacher", hamacher))
        for n in range(3, 11):
            for seed in range(3):
                assert gen_space(seed, n, "repair", star).star is star


class TestLevelClosure:
    """Under STAR_MIN a guarded repair draw is closed level by level; the
    result must be the star pass's."""

    def test_matches_the_star_pass(self, monkeypatch):
        level, closed = spaces._close_levels, []

        def both(matrix):
            want = [list(row) for row in matrix]
            spaces._close_triangle(want, STAR_MIN)
            level(matrix)
            assert matrix == want
            closed.append(len(matrix))

        monkeypatch.setattr(spaces, "_close_levels", both)
        for n in (2, 3, 4, 6, 8, 10, 12, 14, 16):
            for seed in range(40):
                gen_space(seed, n, "repair")
        assert len(closed) == 360

    def test_no_star_call(self, monkeypatch):
        calls = counted_star_calls(monkeypatch)
        sp = gen_space(3, 10, "repair")
        assert sp._validated and calls == []

    def test_floyd_warshall_matches_the_full_relaxation(self):
        # the symmetric pass against the textbook loop over every (i, j)
        rng = random.Random("floyd-warshall")
        for n in range(1, 12):
            for _ in range(20):
                d = [[0.0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        w = rng.choice([math.inf, rng.uniform(0.1, 3.0), rng.randint(1, 24) / 8])
                        d[i][j] = d[j][i] = w
                want = [list(row) for row in d]
                for k in range(n):
                    for i in range(n):
                        for j in range(n):
                            want[i][j] = min(want[i][j], want[i][k] + want[k][j])
                spaces._floyd_warshall(d)
                assert d == want


class TestClosureCertificate:
    """A repair draw that passes spaces._exact_closure is certified by the
    closure theorem and not scanned; the scan stays as the oracle, and every
    other draw, custom star and parsed document is still scanned."""

    @pytest.mark.parametrize("star", [STAR_MIN, STAR_PROD, STAR_LUKA], ids=["min", "prod", "luka"])
    def test_certified_spaces_pass_the_scan(self, monkeypatch, star):
        guard, verdicts = spaces._exact_closure, []

        def spy(matrix, star):
            verdicts.append(guard(matrix, star))
            return verdicts[-1]

        monkeypatch.setattr(spaces, "_exact_closure", spy)
        certified = 0
        for n in range(1, 13):
            for seed in range(40):
                verdicts.clear()
                sp = gen_space(seed, n, "repair", star)
                assert sp._validated
                if verdicts == [True]:
                    validate_space_matrix(sp.points, sp.matrix, sp.star)
                    certified += 1
        # n = 1 returns before the draw; product keeps the scan at n >= 11
        assert certified == 40 * (9 if star is STAR_PROD else 11)

    def test_certified_draw_pays_for_the_closure_only(self, monkeypatch):
        # under min the closure runs on quantiles and makes no star call
        # (TestLevelClosure); product keeps the star pass.  Every draw lies
        # on the breakpoint grid, where the event check passes most triples
        # (TestEventCheck), so here it passes none and the pass is counted
        monkeypatch.setattr(spaces, "_events_below", lambda F, G, H, fn: False)
        calls = counted_star_calls(monkeypatch)
        gen_space(3, 10, "repair", STAR_PROD)
        assert len(calls) == 10 * 9 * 8 // 2

    @pytest.mark.parametrize(
        "n, star, scan",
        [
            (10, star_from_tnorm(MINIMUM), 10**3),  # not a shared instance: the full scan
            (11, STAR_PROD, 11 * 10 * 9 // 2),  # (n-1)q = 40 > 39 on sixteenths: the pruned scan
        ],
        ids=["fresh-min", "prod-11"],
    )
    def test_guard_false_draws_pay_for_the_scan(self, monkeypatch, n, star, scan):
        # as above, the event check passes no triple of the pass or the scan
        monkeypatch.setattr(spaces, "_events_below", lambda F, G, H, fn: False)
        calls = counted_star_calls(monkeypatch)
        gen_space(3, n, "repair", star)
        assert len(calls) == n * (n - 1) * (n - 2) // 2 + scan

    @pytest.mark.parametrize("star", [STAR_MIN, STAR_PROD, STAR_LUKA], ids=["min", "prod", "luka"])
    def test_guard_holds_on_sixteenths(self, star):
        F = StepCdf(((0.125, 1 / 16), (3.0, 15 / 16)))
        assert spaces._exact_closure(equilateral(10, F), star)
        assert spaces._exact_closure(equilateral(11, F), star) is (star is not STAR_PROD)

    @pytest.mark.parametrize(
        "F, star",
        [
            (StepCdf(((1.0, 1 / 3),)), STAR_MIN),  # off the value grid
            (StepCdf(((1 / 3, 0.5),)), STAR_LUKA),  # off the breakpoint grid
            (StepCdf(((1.0, (2**18 - 1) / 2**18),)), STAR_PROD),  # an 18-bit numerator
            (StepCdf(((1.0, 0.5),)), star_from_tnorm(custom_tnorm("hamacher", hamacher))),
            (StepCdf(((1.0, 0.5),)), star_from_tnorm(MINIMUM)),  # a custom star
        ],
        ids=["off-grid-value", "off-grid-breakpoint", "18-bit-numerator", "hamacher", "custom-star"],
    )
    def test_guard_false(self, F, star):
        assert not spaces._exact_closure(equilateral(3, F), star)

    @pytest.mark.parametrize(
        "n, num, q, exact",
        [
            (2, 1, 19, True), (2, 1, 20, False), (2, 2**17 - 1, 17, True), (2, 2**18 - 1, 18, False),
            (2, 1, 13, True), (2, 1, 14, True),
            (3, 1, 19, True), (3, 1, 20, False), (3, 2**17 - 1, 17, True), (3, 2**18 - 1, 18, False),
            (3, 1, 13, True), (3, 1, 14, True),
            (4, 1, 19, False), (4, 1, 20, False), (4, 2**17 - 1, 17, False), (4, 2**18 - 1, 18, False),
            (4, 1, 13, True), (4, 1, 14, False),
        ],
    )
    def test_value_rule_boundaries_under_product(self, n, num, q, exact):
        # products of pairs stay on a grid coarser than TOL (q <= 19) and of
        # triples exact (b <= 17), and products of n-1 values both
        F = StepCdf(((1.0, num / 2**q),))
        assert spaces._exact_closure(equilateral(n, F), STAR_PROD) is exact
        assert spaces._exact_closure(equilateral(n, F), STAR_MIN)

    def test_map_drawing_reads_the_grid(self):
        assert gen_space(0, 8, "repair")._grid is not None

    @pytest.mark.parametrize("tnorm", ["min", "prod", "luka"])
    def test_parsing_never_trusts_the_theorem(self, capsys, tmp_path, tnorm):
        # a repair document with one entry lowered by its last jump; under min
        # and Lukasiewicz the guard even holds on the lowered matrix (closed
        # product values are finer than the drawn sixteenths), and parsing
        # scans all the same
        sp = gen_space(0, 6, "repair", tnorms.BUILTIN_STARS[tnorm])
        obj = json.loads(serialize_document(Document("space", sp, {})))
        obj["dist"][0][1] = obj["dist"][1][0] = obj["dist"][0][1][:-1]
        m = [[StepCdf(tuple(map(tuple, e))) for e in row] for row in obj["dist"]]
        assert spaces._exact_closure(m, sp.star) is (tnorm != "prod")
        text = json.dumps(obj)
        with pytest.raises(TriangleViolation):
            parse_document(text)
        path = tmp_path / "lowered.pms"
        path.write_text(text)
        code = run_command(["check-space", str(path)])
        assert code == 1 and "TriangleViolation" in capsys.readouterr().err


class TestFromClassicalMetric:
    def test_euclidean_points_on_line(self):
        sp = heaviside_space([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        assert len(sp) == 3
        assert "p2" in sp and "p3" not in sp

    @pytest.mark.parametrize(
        "d, witness",
        [
            ([[0.0, 1.0], [1.0]], None),  # not n x n
            ([[0.0, 1.0], [1.0, 0.5]], ("p1",)),  # nonzero diagonal
            ([[0.0, 1.0], [2.0, 0.0]], ("p0", "p1")),  # asymmetric
        ],
        ids=["shape", "diagonal", "asymmetric"],
    )
    def test_not_a_metric_rejected(self, d, witness):
        with pytest.raises(NotAMetric) as err:
            heaviside_space(d)
        assert err.type is NotAMetric and err.value.witness == witness

    def test_triangle_failure_rejected(self):
        # validation is the triangle check: 1 + 1 < 3 fails at t = 3
        with pytest.raises(TriangleViolation) as err:
            heaviside_space([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        assert err.value.witness == ("p0", "p1", "p2", 3.0)

    def test_single_point(self):
        sp = heaviside_space([[0.0]])
        assert sp.matrix == ((H0,),)

    def test_zero_distance_rejected(self):
        with pytest.raises(NotAMetric):
            heaviside_space([[0.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("star", [STAR_MIN, STAR_PROD, STAR_LUKA], ids=["min", "prod", "luka"])
    def test_no_star_call_under_a_builtin_star(self, monkeypatch, star):
        # a built-in star adds step locations, so the additivity check is
        # left to operations of other kinds
        calls = counted_star_calls(monkeypatch)
        gen_space(0, 24, "metric", star)
        assert calls == []

    def test_non_additive_star_rejected(self):
        # an operation that forgets the second distance cannot embed a metric
        bogus = TriangleFunction("left", lambda F, L: F)
        with pytest.raises(StarNotAdditiveOnHeaviside):
            heaviside_space([[0.0, 1.0], [1.0, 0.0]], bogus)


class TestStrongNeighborhood:
    def test_contains_center(self):
        sp = heaviside_space(PATH3)
        for t in (0.1, 0.5, 2.0):
            assert "p0" in strong_neighborhood(sp, "p0", t)

    def test_heaviside_membership_is_metric_ball(self):
        sp = heaviside_space(PATH3)
        for t in (0.3, 0.9, 1.0):
            got = set(strong_neighborhood(sp, "p1", t))
            want = {p for p in sp.points if (sp.dist("p1", p).breaks or ((0, 1),))[0][0] < t}
            assert got == want

    @pytest.mark.parametrize("t", [1e-320, 1e-17])
    def test_contains_center_when_one_minus_t_rounds_to_one(self, t):
        sp = heaviside_space(PATH3)
        assert strong_neighborhood(sp, "p0", t) == ("p0",)
        assert covering_net(sp, t) == sp.points

    def test_contains_center_below_a_diagonal_jump_within_tol(self):
        # the identity axiom accepts a diagonal jump within TOL after 0
        near_h0 = StepCdf(((5e-13, 1.0),))
        sp = make_space(("a", "b"), [[near_h0, heaviside(1.0)], [heaviside(1.0), H0]], STAR_MIN)
        assert strong_neighborhood(sp, "a", 1e-13) == ("a",)

    def test_radius_above_one_covers_everything(self):
        sp = heaviside_space(PATH3)
        assert strong_neighborhood(sp, "p0", 1.5) == sp.points

    def test_unknown_point(self):
        sp = heaviside_space(PATH3)
        with pytest.raises(UnknownPoint):
            strong_neighborhood(sp, "zz", 0.5)

    def test_nan_radius_rejected(self, tmp_path):
        # a NaN radius once yielded empty neighborhoods, so covering_net and
        # `pms net --t nan` looped forever
        sp = heaviside_space(PATH3)
        with pytest.raises(PreconditionViolated):
            strong_neighborhood(sp, "p0", math.nan)
        path = tmp_path / "s.pms"
        path.write_text(serialize_document(Document("space", sp, {})))
        assert run_command(["net", str(path), "--t", "nan"]) == 1


class TestIsCauchy:
    def test_eventually_constant(self):
        sp = heaviside_space(PATH3)
        seq = ["p0", "p1", "p2", "p2", "p2", "p2"]
        assert is_cauchy(sp, seq, tol=0.1, tail=3)

    def test_alternating_fails(self):
        sp = heaviside_space([[0.0, 1.0], [1.0, 0.0]])
        assert not is_cauchy(sp, ["p0", "p1"] * 10, tol=0.99, tail=6)

    def test_shrinking_cluster(self):
        d = [[0.0, 0.125, 2.0], [0.125, 0.0, 2.0], [2.0, 2.0, 0.0]]
        sp = heaviside_space(d)
        seq = ["p2", "p2", "p0", "p1", "p0", "p1", "p0"]
        assert is_cauchy(sp, seq, tol=0.25, tail=4)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -0.1])
    def test_tolerance_validation(self, tol):
        # no distance compares >= NaN, so a NaN tolerance would accept any sequence
        sp = gen_space(0, 4, "repair")
        assert not is_cauchy(sp, sp.points, tol=0.01, tail=4)
        with pytest.raises(PreconditionViolated, match="tolerance must be positive"):
            is_cauchy(sp, sp.points, tol=tol, tail=4)


class TestCoveringNet:
    def test_large_radius_gives_singleton(self):
        sp = heaviside_space(PATH3)
        assert len(covering_net(sp, 3.0)) == 1

    def test_separated_points_need_themselves(self):
        d = [[0.0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(4):
                if i != j:
                    d[i][j] = 1.0
        sp = heaviside_space(d)
        assert set(covering_net(sp, 0.5)) == set(sp.points)

    def test_single_point(self):
        sp = heaviside_space([[0.0]])
        assert covering_net(sp, 0.5) == ("p0",)

    def test_cover_property_on_generated_spaces(self):
        for k, sp in enumerate(gen_spaces(17, 10)):
            t = 0.1 + 0.2 * (k % 4)
            covered = set()
            for a in covering_net(sp, t):
                covered.update(strong_neighborhood(sp, a, t))
            assert covered == set(sp.points)


class TestGenSpace:
    def test_single_point_any_model(self):
        for model in ("metric", "repair"):
            sp = gen_space(42, 1, model)
            assert len(sp) == 1

    def test_metric_model_valid(self):
        sp = gen_space(42, 6, "metric")
        make_space(sp.points, sp.matrix, sp.star)  # revalidates

    def test_repair_model_valid(self):
        sp = gen_space(7, 5, "repair")
        make_space(sp.points, sp.matrix, sp.star)

    def test_deterministic_in_seed(self):
        assert gen_space(3, 5, "repair").matrix == gen_space(3, 5, "repair").matrix
        assert gen_space(3, 5, "metric").matrix != gen_space(4, 5, "metric").matrix

    def test_repair_under_product(self):
        sp = gen_space(11, 4, "repair", STAR_PROD)
        make_space(sp.points, sp.matrix, sp.star)

    def test_bad_arguments(self):
        with pytest.raises(PreconditionViolated):
            gen_space(1, 0)
        with pytest.raises(PreconditionViolated):
            gen_space(1, 3, "bogus")

    def test_repair_reports_unrecoverable_identity(self):
        # an operation that collapses everything onto the maximum pushes every
        # off-diagonal entry there, which validation reports with a witness
        collapse = TriangleFunction("collapse", lambda F, L: H0)
        with pytest.raises(IdentityViolation) as err:
            gen_space(1, 3, "repair", collapse)
        assert err.value.witness == ("p0", "p1")

    def test_generated_stream_validates(self):
        for sp in gen_spaces(23, 20):
            make_space(sp.points, sp.matrix, sp.star)


class TestEmbeddingFidelity:
    def test_distance_to_unit_step_recovers_metric(self):
        rng = random.Random(2)
        for seed in range(10):
            sp = gen_space(seed, rng.randint(2, 7), "metric")
            for p in sp.points:
                for q in sp.points:
                    if p == q:
                        continue
                    d = sp.dist(p, q).breaks[0][0]
                    assert levy_to_h0(sp.dist(p, q)) == pytest.approx(min(d, 1.0), abs=2e-10)

    def test_neighborhood_membership_matches_distance_threshold(self):
        rng = random.Random(13)
        for sp in gen_spaces(13, 15):
            for _ in range(5):
                t = rng.uniform(0.05, 0.95)
                x = rng.choice(sp.points)
                for y in sp.points:
                    d = levy_to_h0(sp.dist(x, y))
                    if abs(d - t) <= 1e-6:
                        continue  # margin from the boundary
                    member = y in strong_neighborhood(sp, x, t)
                    assert member == (d < t)


class TestPigeonholeCompactness:
    def test_every_sequence_has_constant_subsequence(self):
        sp = gen_space(5, 4, "metric")
        rng = random.Random(5)
        seq = [rng.choice(sp.points) for _ in range(50)]
        point, count = Counter(seq).most_common(1)[0]
        assert count >= len(seq) // len(sp)
        sub = [i for i, p in enumerate(seq) if p == point]
        assert all(levy_to_h0(sp.dist(seq[i], seq[j])) == 0.0 for i in sub for j in sub)
