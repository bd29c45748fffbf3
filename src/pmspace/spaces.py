"""Finite probabilistic metric spaces.

A space is a finite point set with a symmetric matrix of distribution-valued
distances: the diagonal is the unit step at 0 (and nothing off the diagonal
is), the matrix is symmetric, and the triangle inequality
``star(D(p,q), D(q,r)) <= D(p,r)`` holds for every triple.  Finite spaces
are automatically complete and compact, which is the regime where the
compactness machinery downstream is machine-checkable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .cdf import (
    H0,
    INF,
    TOL,
    StepCdf,
    approx_equal,
    evaluate,
    heaviside,
    is_canonical,
    leq,
    leq_witness,
    pointwise_sup,
    random_step_cdf,
)
from .errors import (
    DomainMismatch,
    IdentityViolation,
    NotAMetric,
    PreconditionViolated,
    StarNotAdditiveOnHeaviside,
    SymmetryViolation,
    TriangleViolation,
    UnknownPoint,
)
from .levy import _tail, levy_to_h0
from .tnorms import PRODUCT, STAR_LUKA, STAR_MIN, STAR_PROD, TNorm, TriangleFunction


@dataclass(frozen=True)
class ProbMetricSpace:
    points: tuple
    matrix: tuple[tuple[StepCdf, ...], ...]
    star: TriangleFunction

    # True only for spaces whose axioms are certified: by validation in
    # make_space, or by the closure theorem in gen_space (see
    # _exact_closure).  Not a field, so equality, repr and
    # dataclasses.replace ignore it.
    _validated = False

    @cached_property
    def _index(self) -> dict:
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def _grid(self) -> tuple[int, float, int, int] | None:
        """:func:`_exact_grid` of the entries of a certified space under a
        built-in star; None for any other space."""
        if not (self._validated and _is_builtin(self.star)):
            return None
        return _exact_grid(F for row in self.matrix for F in row)

    def index(self, p) -> int:
        try:
            return self._index[p]
        except KeyError as exc:
            raise UnknownPoint(f"point {p!r} is not in the space") from exc

    def dist(self, p, q) -> StepCdf:
        return self.matrix[self.index(p)][self.index(q)]

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p) -> bool:
        return p in self._index


def _is_builtin(star: TriangleFunction) -> bool:
    """True for the shared built-in stars: exactly commutative operations
    with H0 as neutral element that distribute over finite sups."""
    return any(star is S for S in (STAR_MIN, STAR_PROD, STAR_LUKA))


# 2^-39 is the finest grid coarser than TOL: distinct points on it never chain
# within TOL in _envelope, and values on it never rise by TOL or less.
_GRID_BITS = int(-math.log2(TOL))


def _exact_grid(cdfs: Iterable[StepCdf]) -> tuple[int, float, int, int] | None:
    """``(2**e, top, q, b)`` when every cdf is canonical, every breakpoint is
    a multiple of 2^-e and at most top, and every value a multiple of 2^-q
    with an odd numerator of at most b bits, where 2^-e and 2^-q are at
    least 2^-39, coarser than TOL; None otherwise."""
    top, t_dens, v_dens, nums = 0.0, 1, 1, 0
    for F in cdfs:
        if not is_canonical(F):
            return None
        for t, v in F.breaks:
            t_dens |= t.as_integer_ratio()[1]
            num, den = v.as_integer_ratio()
            v_dens |= den
            nums |= num
        if (t_dens | v_dens) >> _GRID_BITS > 1:  # powers of two: the or's top bit is the largest one
            return None
        if F.breaks and F.breaks[-1][0] > top:
            top = F.breaks[-1][0]
    return 1 << (t_dens.bit_length() - 1), top, v_dens.bit_length() - 1, nums.bit_length()


def _exact_on_grid(grid: tuple[int, float, int, int], sums: int, products: int, tnorm: TNorm) -> bool:
    """The lemma of both theorem certificates: on data with
    :func:`_exact_grid` ``(2**e, top, q, b)``, a built-in star,
    ``_envelope`` and ``leq`` compute in real arithmetic, for sums of
    ``sums`` breakpoints and products of ``products`` values.

    Sums are :func:`_exact_sums`.  Under min and Lukasiewicz values
    stay on the 2^-q grid, so no increment of TOL or less is dropped and
    ``leq`` decides the real order.  Under product a product of k values
    has at most ``k*b`` bits and lies on the 2^-(kq) grid: exact when
    ``k*b <= 53``, and coarser than TOL when ``k*q <= 39``.  Both guards ask
    that of pairs, and exactness of triples, at least.
    """
    if not _exact_sums(grid, sums):
        return False
    q, b = grid[2:]
    return tnorm is not PRODUCT or (max(products, 2) * q <= _GRID_BITS and max(products, 3) * b <= 53)


def _exact_sums(grid: tuple[int, float, int, int], k: int) -> bool:
    """The sums half of :func:`_exact_on_grid`, and alone the guard of the
    level scan and of :func:`_events_below`: on data with
    :func:`_exact_grid` ``(2**e, top, q, b)`` a sum of k breakpoints is a
    multiple of 2^-e of at most ``k * top``, exact when
    ``k * top * 2**e < 2^53``, and distinct sums lie 2^-e > TOL apart, so no
    events chain in ``_envelope``."""
    den, top = grid[:2]
    return k * top * den < 2.0**53


def _exact_envelope(space: ProbMetricSpace, values: Sequence[StepCdf]) -> bool:
    """The guard of :func:`lipschitz.upper_envelope_extension`'s theorem: a
    certified space under a built-in star (``space._grid``, read once per
    space), and :func:`_exact_on_grid` on its entries and the anchor values
    jointly, for sums of 8 breakpoints and products of 2 values."""
    grid, mine = space._grid, _exact_grid(values)
    if grid is None or mine is None:
        return False
    return _exact_on_grid(tuple(map(max, grid, mine)), 8, 2, space.star.tnorm)


def _exact_closure(matrix: Sequence[Sequence[StepCdf]], star: TriangleFunction) -> bool:
    """The guard of :func:`gen_space`'s closure theorem, read on the drawn
    matrix: a built-in star, and :func:`_exact_on_grid` on the drawn entries
    for sums of 2(n-1) breakpoints and products of n-1 values."""
    if not _is_builtin(star):
        return False
    n = len(matrix)
    grid = _exact_grid(F for i, row in enumerate(matrix) for F in row[i + 1 :])
    return grid is not None and _exact_on_grid(grid, 2 * (n - 1), n - 1, star.tnorm)


def _quantile_table(m: Sequence[Sequence[StepCdf]]) -> tuple[list[float], list[list[list[float]]]]:
    """The levels of m, its distinct values ascending, and the table
    ``q[l][i][k]``: the quantile ``Q_v`` of ``m[i][k]`` at ``v = levels[l]``,
    the first breakpoint at which the entry reaches v, or +inf where it never
    does.  A cdf F reads at least v exactly at ``t > Q_v(F)``."""
    levels = sorted({v for row in m for F in row for _, v in F.breaks})
    q = [[[] for _ in m] for _ in levels]
    for i, row in enumerate(m):
        for F in row:
            breaks, b = F.breaks, 0
            for q_l, v in zip(q, levels):
                while b < len(breaks) and breaks[b][1] < v:
                    b += 1
                q_l[i].append(breaks[b][0] if b < len(breaks) else INF)
    return levels, q


def _scan_plan(m: Sequence[Sequence[StepCdf]], star: TriangleFunction, k0: int) -> tuple:
    """How :func:`_triangle_failure` scans m: ``(prune, q, fn)``, decided in
    one pass over the upper triangle and the appended columns.

    prune holds for a built-in star, an exact H0 diagonal, an exactly
    symmetric square, and canonical entries in the columns from k0 on.  The
    scan then visits only ``k > i`` with j not in ``{i, k}``: n(n-1)(n-2)/2
    star calls, not n^3, for a space and n(n-1), not n^2, for a map.  The
    skipped triples cannot fail: ``star(H0, F)`` reproduces a canonical F
    (within one rounding under Lukasiewicz), H0 bounds everything, and for
    k < i in the square ``(k, j, i)`` computes bit for bit the same check,
    so the first failure of the full scan is kept.  As the square is then
    exactly symmetric with an H0 diagonal, the entries this pass reads hold
    every entry and every breakpoint of a pruned triple, in a space's scan
    and a map column's alike.  Unpruned, q and fn are None.

    q is the quantile table (:func:`_quantile_table`) on whose levels
    :func:`_metric_failure` decides the pruned scan exactly, or None.  For
    T = min, ``tau_min(F, G)(t) >= v`` exactly when ``t > Q_v(F) + Q_v(G)``
    (Schweizer & Sklar, ch. 7), so a triple fails exactly when
    ``Q_v[i][j] + Q_v[j][k] < Q_v[i][k]`` at some level v.  In floating
    point that holds in two cases:

    - one level, every entry a unit step H(d), as lifted classical metrics
      and maps are, under any built-in star: T(1, 1) = 1 for every t-norm,
      so ``star(H(a), H(b))`` is H(fl(a + b)), or empty when the sum
      overflows, and ``H(s) <= H(c)`` fails exactly when s < c.  The table
      holds ``Q_1``, the locations d;
    - several levels under STAR_MIN, when the entries read hold
      :func:`_exact_sums` for pairs: the star, ``_envelope`` and ``leq``
      then compute in real arithmetic, as values stay on their grid under
      min.

    fn is the t-norm of :func:`_events_below` under product and Lukasiewicz
    where that guard holds, or None.  The check runs before each pruned
    star call, and a triple it passes cannot fail, so the scan goes on
    without the call.  A triple it does not pass is decided by the star call
    as before, so the verdict, the first failing triple and its witness are
    unchanged.  On a grid of values coarser than TOL (:func:`_exact_on_grid`
    for pairs) it passes every triple that holds, and a valid matrix makes
    no call.
    """
    if not _is_builtin(star):
        return False, None, None
    n, read = len(m), []
    for i, row in enumerate(m):
        if row[i] != H0:
            return False, None, None
        for k in range(i + 1, len(row)):
            F = row[k]
            if (k < n and F != m[k][i]) or (k >= k0 and not is_canonical(F)):
                return False, None, None
            read.append(F)
    if all(len(F.breaks) == 1 and F.breaks[0][1] == 1.0 for F in read):
        return True, [[[F.breaks[0][0] for F in row] for row in m]], None
    grid = _exact_grid(read)
    if grid is None or not _exact_sums(grid, 2):
        return True, None, None
    if star is STAR_MIN:
        return True, _quantile_table(m)[1], None
    return True, None, star.tnorm.fn


def _events_below(F: StepCdf, G: StepCdf, H: StepCdf, fn) -> bool:
    """True only when every jump pair (a, v) of F and (b, w) of G has
    ``fn(v, w) <= value_after(H, a + b) + TOL``: one forward walk into H per
    row of the pairs, with no sort and no :func:`cdf._envelope`.

    The star is the running maximum of these events (Schweizer & Sklar,
    ch. 7), so where its sums are exact and distinct ones lie more than TOL
    apart (:func:`_exact_sums` for pairs) True proves
    ``leq(star(F, G), H)``: ``_envelope`` then groups only equal sums and
    emits each group's running maximum or less, since it defers increments
    of TOL or less, so ``star(F, G)(t) <= max{fn(v, w) : a + b < t} <=
    H(t) + TOL`` and ``leq_witness`` finds nothing.  No condition on the
    values is needed.  False proves nothing: the caller decides by the star.

    The row bound: the built-in t-norms lie below min (Klement, Mesiar &
    Pap), and in floats ``fn(v, w) <= min(v, w) + 2**-53``.  Min is exact;
    ``fl(v*w) <= min(v, w)``; and ``fl(fl(v + w) - 1) <= min(v, w) + 2**-53``,
    as the subtraction is exact by Sterbenz (``_lukasiewicz(0.1, 1.0)`` is
    0.10000000000000009).  So a pair with ``w <= value_after(H, a + b)``
    needs no ``fn`` call, and a row ends once that value reaches v, since it
    only grows along the row.
    """
    h = H.breaks
    last = len(h)
    for a, v in F.breaks:
        i, hv = 0, 0.0
        for b, w in G.breaks:
            s = a + b
            while i < last and h[i][0] <= s:
                hv = h[i][1]
                i += 1
            if hv >= v:
                break
            if w > hv and fn(v, w) > hv + TOL:
                return False
    return True


def _metric_failure(d: Sequence[Sequence[float]], k0: int) -> tuple[int, int, int] | None:
    """The first ``(i, j, k)`` in :func:`_triangle_failure`'s pruned order
    with ``d[i][j] + d[j][k] < d[i][k]``, or None: the classical triangle
    check of one float matrix, +inf for no edge."""
    n = len(d)
    for i in range(n):
        d_i = d[i]
        ks = range(max(k0, i + 1), len(d_i))
        for j in range(n):
            if j == i:
                continue
            d_ij, d_j = d_i[j], d[j]
            for k in ks:
                if k != j and d_ij + d_j[k] < d_i[k]:
                    return i, j, k
    return None


def _triangle_failure(m: Sequence[Sequence[StepCdf]], star: TriangleFunction, k0: int) -> tuple | None:
    """The first ``(i, j, k, t)`` in lexicographic order with
    ``star(m[i][j], m[j][k]) <= m[i][k]`` failing at t, or None.

    m is n x (n + c); i and j index the square block, k the columns from k0
    on.  Validation scans k0 = 0.  The Lipschitz certificate appends f as
    column n, a point * with ``D(x, *) = f(x)``, and scans k0 = n.

    The plan is :func:`_scan_plan`'s.  Pruned, only ``k > i`` with j not in
    ``{i, k}`` is visited.  With a level table, the pruned triples are
    decided on quantiles with float sums: :func:`_metric_failure` on each
    level, and the first failing triple is the lexicographically smallest
    over levels, since the scan order is lexicographic.  Its witness t comes
    from one star call, so a valid matrix makes none.  Otherwise, with an
    event-check t-norm, :func:`_events_below` runs before each pruned star
    call and the scan skips the call for a triple it passes.
    """
    n = len(m)
    prune, q, fn = _scan_plan(m, star, k0)
    if q is not None:
        failure = min(filter(None, (_metric_failure(d, k0) for d in q)), default=None)
        if failure is None:
            return None
        i, j, k = failure
        return i, j, k, leq_witness(star(m[i][j], m[j][k]), m[i][k])
    for i in range(n):
        row_i = m[i]
        ks = range(max(k0, i + 1) if prune else k0, len(row_i))
        for j in range(n):
            if prune and j == i:
                continue
            row_j, d_ij = m[j], row_i[j]
            for k in ks:
                if prune and k == j:
                    continue
                d_jk, d_ik = row_j[k], row_i[k]
                if fn is not None and _events_below(d_ij, d_jk, d_ik, fn):
                    continue
                t = leq_witness(star(d_ij, d_jk), d_ik)
                if t is not None:
                    return i, j, k, t
    return None


def validate_space_matrix(
    points: Sequence,
    matrix: Sequence[Sequence[StepCdf]],
    star: TriangleFunction,
) -> None:
    """Raise the first violated axiom with a witness; return None when valid.
    The triangle inequality is the scan :func:`_triangle_failure` with k0 = 0."""
    n = len(points)
    if len(set(points)) != n:
        raise DomainMismatch("point labels must be distinct")
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise DomainMismatch(f"distance matrix must be {n}x{n}")
    for i, p in enumerate(points):
        if not approx_equal(matrix[i][i], H0):
            raise IdentityViolation(f"distance of {p!r} to itself is not the unit step at 0", witness=(p,))
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            if i < j and approx_equal(matrix[i][j], H0):
                raise IdentityViolation(
                    f"distinct points {p!r}, {q!r} at the unit step at 0", witness=(p, q)
                )
            if i < j and not (matrix[i][j] is matrix[j][i] or approx_equal(matrix[i][j], matrix[j][i])):
                raise SymmetryViolation(f"distance between {p!r} and {q!r} is asymmetric", witness=(p, q))
    failure = _triangle_failure(matrix, star, 0)
    if failure is not None:
        i, j, k, t = failure
        p, q, r = points[i], points[j], points[k]
        raise TriangleViolation(
            f"triangle inequality fails for ({p!r}, {q!r}, {r!r}) at t={t}", witness=(p, q, r, t)
        )


def _certified(
    points: Sequence,
    matrix: Sequence[Sequence[StepCdf]],
    star: TriangleFunction,
) -> ProbMetricSpace:
    """The space with ``_validated`` set; the caller has certified it."""
    space = ProbMetricSpace(tuple(points), tuple(tuple(row) for row in matrix), star)
    object.__setattr__(space, "_validated", True)
    return space


def make_space(
    points: Sequence,
    matrix: Sequence[Sequence[StepCdf]],
    star: TriangleFunction,
) -> ProbMetricSpace:
    """Validated construction; raises DomainMismatch for duplicate labels or
    a matrix that is not n x n, and Identity/Symmetry/TriangleViolation for
    the first violated axiom."""
    validate_space_matrix(points, matrix, star)
    return _certified(points, matrix, star)


def from_classical_metric(
    points: Sequence,
    d: Sequence[Sequence[float]],
    star: TriangleFunction,
) -> ProbMetricSpace:
    """Embed a classical finite metric as unit steps at the distances.

    Checks the shape, the zero diagonal, exact symmetry and positivity of d
    here; validation in :func:`make_space` is the triangle check, which on
    unit steps under a built-in star is ``d[i][j] + d[j][k] < d[i][k]`` in
    floating point and raises TriangleViolation.  A built-in star adds step
    locations (``star(H(a), H(b))`` is H(fl(a + b)), see
    :func:`validate_space_matrix`); any other operation must do so on the
    distance values that occur.
    """
    n = len(points)
    if len(d) != n or any(len(row) != n for row in d):
        raise NotAMetric(f"metric matrix must be {n}x{n}")
    for i in range(n):
        if d[i][i] != 0.0:
            raise NotAMetric(f"d({points[i]!r},{points[i]!r}) must be 0", witness=(points[i],))
        for j in range(n):
            if d[i][j] != d[j][i]:
                raise NotAMetric("metric is asymmetric", witness=(points[i], points[j]))
            if i != j and not d[i][j] > 0.0:
                raise NotAMetric("distinct points at distance 0", witness=(points[i], points[j]))
    if not _is_builtin(star):
        values = sorted({d[i][j] for i in range(n) for j in range(n) if i != j})
        for a in values:
            for b in values:
                if not approx_equal(star(heaviside(a), heaviside(b)), heaviside(a + b)):
                    raise StarNotAdditiveOnHeaviside(
                        f"operation does not add step locations at ({a}, {b})"
                    )
    matrix = [[heaviside(d[i][j]) if i != j else H0 for j in range(n)] for i in range(n)]
    return make_space(points, matrix, star)


def strong_neighborhood(space: ProbMetricSpace, x, t: float) -> tuple:
    """Points y with D(x,y)(t) > 1 - t, in point order.

    Always contains x, whose distance to itself is the unit step at 0 by the
    identity axiom; the float test would miss it for a diagonal entry that
    jumps within TOL after 0, and for every t at which ``1.0 - t`` rounds to 1.
    """
    if not (t > 0.0):  # also rejects NaN
        raise PreconditionViolated(f"neighborhood radius must be positive, got {t}")
    i = space.index(x)
    row = space.matrix[i]
    return tuple(y for j, y in enumerate(space.points) if j == i or evaluate(row[j], t) > 1.0 - t)


def is_cauchy(space: ProbMetricSpace, seq: Sequence, tol: float, tail: int) -> bool:
    """True iff all pairwise distances over the last ``tail`` entries are
    within ``tol`` of the unit step at 0 (measured by the exact distance to
    it, which is what weak convergence to the zero-distance reduces to)."""
    window = _tail(seq, tol, tail)
    for a in window:
        for b in window:
            if levy_to_h0(space.dist(a, b)) >= tol:
                return False
    return True


def covering_net(space: ProbMetricSpace, t: float) -> tuple:
    """Greedy subset whose strong t-neighborhoods cover the space.

    Each round picks the point covering the most uncovered points (ties go to
    the earliest point), so the result is deterministic and minimal under the
    greedy order, though not necessarily globally minimal.
    """
    n = len(space.points)
    cover = {
        i: {space.index(y) for y in strong_neighborhood(space, p, t)}
        for i, p in enumerate(space.points)
    }
    remaining = set(range(n))
    chosen = []
    while remaining:
        best = max(range(n), key=lambda i: (len(cover[i] & remaining), -i))
        chosen.append(best)
        remaining -= cover[best]
    return tuple(space.points[i] for i in chosen)


def _floyd_warshall(d: list[list[float]]) -> None:
    """Shortest paths in place over a symmetric matrix of weights with a
    zero diagonal, +inf for no edge.  Row and column k do not change in
    round k, so each pair i < j is relaxed once and written to both
    halves."""
    n = len(d)
    for k in range(n):
        d_k = d[k]
        for i in range(n):
            d_i = d[i]
            dik = d_i[k]
            if dik == INF:
                continue
            for j in range(i + 1, n):
                alt = dik + d_k[j]
                if alt < d_i[j]:
                    d_i[j] = d[j][i] = alt


def _random_metric(rng: random.Random, n: int) -> list[list[float]]:
    # Dyadic edge weights (multiples of 1/8) keep shortest-path sums exact in
    # floating point, so the induced step-function triangle checks are exact.
    inf = math.inf
    d = [[0.0 if i == j else inf for j in range(n)] for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for k in range(1, n):
        a, b = order[k], order[rng.randrange(k)]
        w = rng.randint(2, 24) / 8.0
        d[a][b] = d[b][a] = min(d[a][b], w)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                w = rng.randint(2, 24) / 8.0
                d[i][j] = d[j][i] = min(d[i][j], w)
    _floyd_warshall(d)
    return d


def _close_triangle(matrix: list[list[StepCdf]], star: TriangleFunction) -> None:
    """Raise entries to the triangle closure in one Floyd-Warshall pass.

    For each intermediate point k, every pair i < j off k takes
    ``sup(m[i][j], star(m[i][k], m[k][j]))``, written to both halves.  For an
    associative, sup-continuous star, which every t-norm star is, one pass is
    the closure (see the README, "Numerical conventions").  The caller
    certifies the result (see :func:`gen_space`), so an operation for which
    one pass is not enough fails there.

    Under product and Lukasiewicz, on a matrix with :func:`_exact_grid`
    ``(2**e, top, q, b)``, :func:`_events_below` runs before each star call,
    and a pair it passes keeps its entry, as ``leq`` would hold.  Its guard
    is :func:`_exact_sums` for pairs, followed through the pass: every
    breakpoint the pass makes is then an exact sum, a multiple of 2^-e, and
    top is the largest so far, so the check runs while
    ``2 * top * 2**e < 2^53``.  That needs no bound on the breakpoints
    ahead, as the k = 2(n-1) of :func:`_exact_closure` does: that bound
    rests on exact values, which product loses past n = 10.  Under min,
    :func:`gen_space` closes guarded draws by :func:`_close_levels`, and this
    pass, unchecked, is their oracle.
    """
    n = len(matrix)
    grid = None
    if star is STAR_PROD or star is STAR_LUKA:
        grid = _exact_grid(F for i, row in enumerate(matrix) for F in row[i + 1 :])
    top, cap = (grid[1], 2.0**52 / grid[0]) if grid is not None else (INF, 0.0)
    for k in range(n):
        row_k = matrix[k]
        for i in range(n):
            if i == k:
                continue
            row_i = matrix[i]
            d_ik = row_i[k]
            for j in range(i + 1, n):
                if j == k:
                    continue
                d_kj = row_k[j]
                if top < cap and _events_below(d_ik, d_kj, row_i[j], star.tnorm.fn):
                    continue
                cand = star(d_ik, d_kj)
                if not leq(cand, row_i[j]):
                    row_i[j] = matrix[j][i] = pointwise_sup([row_i[j], cand])
                    top = max(top, cand.breaks[-1][0])


def _close_levels(matrix: list[list[StepCdf]]) -> None:
    """:func:`_close_triangle` under STAR_MIN, level by level: one
    :func:`_floyd_warshall` per value level on the quantiles
    (:func:`_quantile_table`), then each entry rebuilt from its own.

    ``Q_v(tau_min(F, G)) = Q_v(F) + Q_v(G)`` and
    ``Q_v(sup(F, G)) = min(Q_v(F), Q_v(G))``, so at every level v the closure
    is the classical shortest-path closure of Q_v (Lehmann 1977).  The
    closed entry jumps to v at its Q_v, and takes the highest level where
    several share a breakpoint.  Where :func:`_exact_closure` holds the sums
    are exact, so this is the real closure, as the star pass is there.
    """
    levels, q = _quantile_table(matrix)
    for d in q:
        _floyd_warshall(d)
    n = len(matrix)
    for i in range(n):
        for j in range(i + 1, n):
            breaks: list[tuple[float, float]] = []
            for d, v in zip(q, levels):
                t = d[i][j]
                if t == INF:  # quantiles rise with the level
                    break
                if breaks and breaks[-1][0] == t:
                    breaks[-1] = (t, v)
                else:
                    breaks.append((t, v))
            matrix[i][j] = matrix[j][i] = StepCdf(tuple(breaks))


def gen_space(
    seed: int,
    n: int,
    model: str = "metric",
    star: TriangleFunction | None = None,
) -> ProbMetricSpace:
    """Seeded random valid space on points ``p0 .. p{n-1}``.

    model="metric": random connected weighted graph, shortest-path metric,
    embedded as unit steps at the distances.
    model="repair": random symmetric matrix of grid step cdfs other than the
    unit step at 0, raised to the triangle inequality by one Floyd-Warshall
    closure pass over (sup, star).  Under a t-norm star no entry reaches the
    unit step at 0: a drawn entry is at most 15/16 just after 0, and T <= min.

    The result is certified by a theorem when :func:`_exact_closure` holds
    on the drawn matrix, and by validation in :func:`make_space` otherwise.
    Under the guard every star call and every ``leq`` decision in the pass is
    the real-arithmetic one, so the result is the real closure (Lehmann
    1977), and its triangle inequality holds exactly.  The lemma
    :func:`_exact_on_grid` applies with k = 2(n-1) for sums, since a kept
    breakpoint sums at most n-1 drawn ones and a star call adds two, and
    with k = n-1 for products, since a kept value is attained by a simple
    path.  A walk through a cycle loses to the path with the cycle
    removed: its value is smaller by a factor of at least 1/(1 - 2^-q) (16/15
    on the drawn sixteenths), or equal with a later breakpoint, so rounding
    its product never changes a sup or a ``leq`` decision.  Validation's own
    star stays within 2^-53 of the real star, below TOL, so its triangle
    scan cannot fail; identity and symmetry hold by construction.  So the
    scan is skipped.  On the drawn grid the guard holds for n <= 10 under
    product and for every n under min and Lukasiewicz.  Under STAR_MIN the
    guarded pass runs level by level (:func:`_close_levels`): each of its
    sums adds two simple paths, at most 2(n-1) drawn breakpoints, so it is
    exact too and gives the same closure.  Under product and Lukasiewicz the
    pass skips the star call for each pair that :func:`_events_below`
    passes (see :func:`_close_triangle`), which leaves the same closure, and
    the validation of a product draw past n = 10 does so per triple.

    Custom stars and draws off the guard are validated: an operation for
    which the pass is not the closure raises TriangleViolation, and one that
    pushes an entry onto the unit step at 0 raises IdentityViolation.
    """
    if n < 1:
        raise PreconditionViolated(f"need at least one point, got n={n}")
    if star is None:
        star = STAR_MIN
    labels = tuple(f"p{i}" for i in range(n))
    if model == "metric":
        rng = random.Random(f"space:metric:{seed}:{n}")
        if n == 1:
            return make_space(labels, [[H0]], star)
        return from_classical_metric(labels, _random_metric(rng, n), star)
    if model != "repair":
        raise PreconditionViolated(f"unknown model {model!r}")
    rng = random.Random(f"space:repair:{seed}:{n}")
    if n == 1:
        return make_space(labels, [[H0]], star)

    def draw() -> StepCdf:
        while True:
            F = random_step_cdf(rng, max_breaks=3)
            if not approx_equal(F, H0):
                return F

    matrix: list[list[StepCdf]] = [[H0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = draw()
    exact = _exact_closure(matrix, star)
    if exact and star is STAR_MIN:
        _close_levels(matrix)
    else:
        _close_triangle(matrix, star)
    if exact:
        return _certified(labels, matrix, star)
    return make_space(labels, matrix, star)


def gen_spaces(
    seed: int, count: int, max_points: int = 8, star: TriangleFunction | None = None
) -> Iterable[ProbMetricSpace]:
    """Seeded stream mixing both generator models; used by property suites."""
    rng = random.Random(f"spaces:{seed}")
    for k in range(count):
        n = rng.randint(1, max_points)
        model = "metric" if rng.random() < 0.5 else "repair"
        yield gen_space(seed + 1000 * k, n, model, star)
