"""Independent oracles used to cross-check the exact library paths.

The brute-force oracles deliberately avoid the library's decision
procedures: the distance oracle scans a dense probe-radius grid and checks
the defining condition with vectorized evaluation, and the convolution
oracle maximizes over a dense splitting grid.

The bisection distance is the library's earlier Levy search, kept as a
cross-check for the closed form: it halves [0, 1] on the probe-list
decision below until the bracket is below ``tol`` and returns the valid end.

The probe-list decision and the bisecting closed form are the library's
earlier Levy kernels, kept as cross-checks for the forward walks: the
decision lists every candidate probe pair and evaluates both functions at
each by bisection, and the closed form finds each jump's scan start and its
skip test by bisection.

The probe-based lattice kernels below are the library's earlier exact
implementations, kept as cross-checks for the sorted-sweep envelope: they
read each interval value by evaluating the inputs at one probe per
candidate cluster.  Their final probe ``last + 1.0`` is only valid for
breakpoints below 2**53.

The full triangle scan is the library's earlier space validator, kept as a
cross-check for the pruned scan: it checks every one of the n^3 triples in
lexicographic order, whatever the star and the matrix.

The scan-plan helpers are the library's earlier way of choosing a triangle
scan's path, kept as a cross-check for the one-pass plan: ``_prunable``,
``_level_table`` and ``_exact_scan`` each walk the matrix again, and
``composed_scan_plan`` composes them as the scan did.

The pairwise Lipschitz scan is the library's earlier map certificate, kept
as a cross-check for the triangle scan with the map as an added column: it
checks every ordered pair (x, y) in point order, whatever the star and the
values.

The sweep relaxation is the repair generator's earlier closure, kept as a
cross-check for the Floyd-Warshall pass: it repeats full (i < j, q) sweeps
until one changes nothing.

The modulus sampler is the library's earlier equicontinuity estimate, kept
as a cross-check for the theorem that the modulus is exactly eta = eps for
every t-norm T >= W: it halves eta from eps until a budget of sampled
perturbations passes.

The entrywise matrix reader is the library's earlier space-document reader,
kept as a cross-check for mirror reuse: it type-checks every entry of
``dist`` with nested generators and parses all n^2 of them, so validation
compares both halves of every pair.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from pmspace import (
    H0,
    LipschitzCheck,
    TOL,
    StepCdf,
    TNorm,
    approx_equal,
    evaluate,
    leq,
    leq_witness,
    levy_distance,
    levy_to_h0,
    make_step_cdf,
    pointwise_sup,
    value_after,
)
from pmspace.errors import (
    DomainMismatch,
    IdentityViolation,
    ParseError,
    PreconditionViolated,
    ProbeOutOfRange,
    SpaceAxiomViolation,
    SymmetryViolation,
    TriangleViolation,
    ValidationError,
)
from pmspace.cdf import is_canonical
from pmspace.spaces import _exact_grid, _exact_sums, _is_builtin, _quantile_table
from pmspace.tnorms import STAR_MIN, TriangleFunction


def np_eval(F: StepCdf, pts: np.ndarray) -> np.ndarray:
    """Vectorized left-continuous evaluation."""
    ts = np.asarray([t for t, _ in F.breaks])
    vs = np.concatenate(([0.0], [v for _, v in F.breaks]))
    return vs[np.searchsorted(ts, pts, side="left")]


def grid_levy_distance(F: StepCdf, G: StepCdf, step: float = 1e-4) -> float:
    """Smallest probe radius on the grid {step, 2*step, ..., 1} for which the
    two-sided condition holds; the condition at each radius is checked on
    every candidate probe time (both break sets, their shifts, and the window
    end)."""
    hs = np.arange(1, int(round(1.0 / step)) + 1) * step
    win = 1.0 / hs

    def one_side(A: StepCdf, B: StepCdf) -> np.ndarray:
        # B(t) <= A(t+h) + h for all t in (0, 1/h); both probe coordinates are
        # carried exactly so jump sides are read correctly
        t_cols = [win]
        th_cols = [win + hs]
        for b, _ in B.breaks:
            t_cols.append(np.full_like(hs, b))
            th_cols.append(b + hs)
        for a, _ in A.breaks:
            t_cols.append(a - hs)
            th_cols.append(np.full_like(hs, a))
        t = np.stack(t_cols, axis=1)
        th = np.stack(th_cols, axis=1)
        bad = (t <= 0.0) | (t > win[:, None])
        t = np.where(bad, win[:, None], t)
        th = np.where(bad, (win + hs)[:, None], th)
        lhs = np_eval(B, t)
        rhs = np_eval(A, th) + hs[:, None]
        return np.all(lhs <= rhs, axis=1)

    ok = one_side(F, G) & one_side(G, F)
    return float(hs[int(np.argmax(ok))])


def probe_condition_a(F: StepCdf, G: StepCdf, h: float) -> bool:
    """``G(t) <= F(t+h) + h`` on (0, 1/h), checked at a list of candidate
    probe pairs ``(t, t+h)``, each read by bisecting evaluation."""
    if not (0.0 < h <= 1.0):
        raise ProbeOutOfRange(f"probe radius must lie in (0, 1], got {h}")
    window = 1.0 / h
    pairs = [(window, window + h)]
    for b, _ in G.breaks:
        if 0.0 < b <= window:
            pairs.append((b, b + h))
    for a, _ in F.breaks:
        c = a - h
        if 0.0 < c <= window:
            pairs.append((c, a))
    for t, th in pairs:
        if evaluate(G, t) > evaluate(F, th) + h:
            return False
    return True


def bisect_side(F: StepCdf, G: StepCdf) -> float:
    """The sided closed form with one ``value_after`` skip test and one
    ``bisect_right`` scan start per jump of G."""
    ts = tuple(t for t, _ in F.breaks)
    vs = tuple(v for _, v in F.breaks)
    n = len(ts)
    best = 0.0
    for b, v in G.breaks:
        cap = 1.0 / b if b > 1.0 else 1.0
        if best >= cap or value_after(F, b + best) + best >= v:
            continue
        k = bisect_right(ts, b)
        h = v - (vs[k - 1] if k else 0.0)
        while k < n:
            gap = ts[k] - b
            if h < gap or gap >= cap:
                break
            h = max(gap, v - vs[k])
            k += 1
        best = max(best, min(h, cap))
    return best


def probe_levy_distance(F: StepCdf, G: StepCdf) -> float:
    """The closed-form distance from :func:`bisect_side`, certified by
    :func:`probe_condition_a` with the library's bounds: four ulps of h, then
    four ulps of the largest breakpoint inside the window."""
    if approx_equal(F, G):
        return 0.0

    def accepts(h: float) -> bool:
        return probe_condition_a(F, G, h) and probe_condition_a(G, F, h)

    d = max(bisect_side(F, G), bisect_side(G, F))
    for _ in range(4):
        if d == 0.0 or accepts(d):
            return d
        d = math.nextafter(d, 1.0)
    step = math.ulp(max([d] + [t for t, _ in F.breaks + G.breaks if t <= 1.0 / d]))
    for _ in range(5):
        if accepts(d):
            return d
        d = min(d + step, 1.0)
    raise ValidationError(f"closed-form Levy distance failed certification near {d}")


def bisection_levy_distance(F: StepCdf, G: StepCdf, tol: float = 1e-10) -> float:
    """Valid probe radius at most ``tol`` above the least one, found by
    bisection over [0, 1]; exactly 0 for canonically equal inputs."""
    if approx_equal(F, G):
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if probe_condition_a(F, G, mid) and probe_condition_a(G, F, mid):
            hi = mid
        else:
            lo = mid
    return hi


_NP_TNORMS = {
    "minimum": np.minimum,
    "product": lambda x, y: x * y,
    "lukasiewicz": lambda x, y: np.maximum(x + y - 1.0, 0.0),
}


def grid_convolution_bounds(tnorm_name, F, L, t, step=1e-3, shift=2e-3):
    """Sandwich for the sup-convolution value at t: returns (lo, hi) with
    lo <= exact(t) <= hi.

    lo maximizes over the splitting grid at t itself (a sub-supremum);
    hi maximizes at t + shift, where some grid splitting dominates the exact
    optimum whenever the grid is finer than the shift.
    """
    T = _NP_TNORMS[tnorm_name]
    smax = (F.breaks[-1][0] if F.breaks else 0.0) + (L.breaks[-1][0] if L.breaks else 0.0) + 1.0
    s = np.arange(0.0, max(smax, t) + 2.0 * step, step)
    Fs = np_eval(F, s)
    lo = float(np.max(T(Fs, np_eval(L, t - s)))) if len(s) else 0.0
    hi = float(np.max(T(Fs, np_eval(L, t + shift - s)))) if len(s) else 0.0
    return lo, hi


def convolution_probes(F: StepCdf, L: StepCdf) -> list[float]:
    """One probe inside every constancy interval of the exact convolution:
    midpoints between consecutive jump-sum candidates plus flanks."""
    cands = sorted({a + b for a, _ in F.breaks for b, _ in L.breaks})
    if not cands:
        return [0.5, 1.0]
    probes = [cands[0] / 2.0] if cands[0] > 0 else []
    probes += [(a + b) / 2.0 for a, b in zip(cands, cands[1:])]
    probes.append(cands[-1] + 1.0)
    return probes


def _cluster(cands: Sequence[float]) -> list[tuple[float, float]]:
    """Group sorted candidate breakpoints within TOL of each other into
    (first, last) clusters; each cluster is one canonical breakpoint."""
    clusters: list[tuple[float, float]] = []
    for c in cands:
        if clusters and c - clusters[-1][1] <= TOL:
            clusters[-1] = (clusters[-1][0], c)
        else:
            clusters.append((c, c))
    return clusters


def _from_interval_values(cands: Sequence[float], value_at: Callable[[float], float]) -> StepCdf:
    """Canonical StepCdf from sorted, deduplicated candidate breakpoints and
    a left-continuous reader of the target, probed at the first member of
    the next cluster (and one unit past the last)."""
    clusters = _cluster(cands)
    breaks: list[tuple[float, float]] = []
    prev = 0.0
    for k, (first, last) in enumerate(clusters):
        probe = clusters[k + 1][0] if k + 1 < len(clusters) else last + 1.0
        v = value_at(probe)
        if v > prev + TOL:
            breaks.append((first, min(v, 1.0)))
            prev = v
    return StepCdf(tuple(breaks))


def probe_pointwise_sup(family: Sequence[StepCdf]) -> StepCdf:
    """Pointwise maximum of a nonempty family, read at probes."""
    if len(family) == 1:
        return family[0]
    cands = sorted({t for F in family for t, _ in F.breaks})
    return _from_interval_values(cands, lambda t: max(evaluate(F, t) for F in family))


def bisect_sup_convolution(T: TNorm, F: StepCdf, L: StepCdf) -> StepCdf:
    """Sup-convolution with one maximum over F's rows per candidate cluster,
    each row reading L by counting sums ``a_i + b_m`` at or below the
    cluster's last member (m^3 log m)."""
    if not F.breaks or not L.breaks:
        return StepCdf()
    sums = [tuple(a + b for b, _ in L.breaks) for a, _ in F.breaks]
    clusters = _cluster(sorted({s for row in sums for s in row}))
    lvs = (0.0,) + tuple(w for _, w in L.breaks)
    breaks: list[tuple[float, float]] = []
    prev = 0.0
    for first, last in clusters:
        v = max(T.fn(vi, lvs[bisect_right(row, last)]) for (_, vi), row in zip(F.breaks, sums))
        if v > prev + TOL:
            breaks.append((first, min(v, 1.0)))
            prev = v
    return StepCdf(tuple(breaks))


def probe_leq_witness(F: StepCdf, G: StepCdf, tol: float = TOL) -> float | None:
    """First union breakpoint (or the probe one unit past the last) where
    F exceeds G by more than tol."""
    cands = sorted({t for t, _ in F.breaks} | {t for t, _ in G.breaks})
    for c in cands + [cands[-1] + 1.0 if cands else 1.0]:
        if evaluate(F, c) > evaluate(G, c) + tol:
            return c
    return None


def cell_quantize(F: StepCdf, delta: float) -> StepCdf:
    """Grid quantization by folding breaks into a dict of grid cells, the
    last break of a cell giving its right-limit value."""
    kmax = int(math.floor(1.0 / (delta * delta) + 1e-9))
    cells: dict[int, float] = {}
    for t, v in F.breaks:
        k = math.ceil(t / delta - 1e-9)
        if k > kmax:
            break
        cells[k] = min(math.floor((v + TOL) / delta) * delta, 1.0)
    breaks: list[tuple[float, float]] = []
    prev = 0.0
    for k in sorted(cells):
        if cells[k] > prev + TOL:
            breaks.append((k * delta, cells[k]))
            prev = cells[k]
    return StepCdf(tuple(breaks))


def full_triangle_scan(points, matrix, star) -> tuple | None:
    """Outcome of validating a space with every triple checked:
    ``(exception type, message, witness)`` for the first violated axiom, or
    None when the space is valid."""
    try:
        n = len(points)
        if len(set(points)) != n:
            raise DomainMismatch("point labels must be distinct")
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise DomainMismatch(f"distance matrix must be {n}x{n}")
        for i, p in enumerate(points):
            if not approx_equal(matrix[i][i], H0):
                raise IdentityViolation(
                    f"distance of {p!r} to itself is not the unit step at 0", witness=(p,)
                )
        for i, p in enumerate(points):
            for j, q in enumerate(points):
                if i < j and approx_equal(matrix[i][j], H0):
                    raise IdentityViolation(
                        f"distinct points {p!r}, {q!r} at the unit step at 0", witness=(p, q)
                    )
                if i < j and not approx_equal(matrix[i][j], matrix[j][i]):
                    raise SymmetryViolation(
                        f"distance between {p!r} and {q!r} is asymmetric", witness=(p, q)
                    )
        for i, p in enumerate(points):
            for j, q in enumerate(points):
                for k, r in enumerate(points):
                    t = leq_witness(star(matrix[i][j], matrix[j][k]), matrix[i][k])
                    if t is not None:
                        raise TriangleViolation(
                            f"triangle inequality fails for ({p!r}, {q!r}, {r!r}) at t={t}",
                            witness=(p, q, r, t),
                        )
    except (DomainMismatch, SpaceAxiomViolation) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return None


def _prunable(m: Sequence[Sequence[StepCdf]], star: TriangleFunction, k0: int) -> bool:
    """True when :func:`_triangle_failure` may skip triples: a built-in star,
    an exact H0 diagonal, an exactly symmetric square, and canonical entries
    in the scanned columns ``k >= max(k0, i + 1)``: the level guard reads
    the upper triangle, and a map column's scan reads both halves."""
    if not _is_builtin(star):
        return False
    n = len(m)
    for i in range(n):
        if m[i][i] != H0:
            return False
        for k in range(i + 1, len(m[i])):
            F = m[i][k]
            if (k < n and F != m[k][i]) or (k >= k0 and not is_canonical(F)):
                return False
    return True


def _level_table(m: Sequence[Sequence[StepCdf]], star: TriangleFunction) -> list | None:
    """The quantile table on whose levels :func:`_metric_failure` decides the
    triangle scan of a prunable m exactly, or None where it would not.

    For T = min, ``tau_min(F, G)(t) >= v`` exactly when
    ``t > Q_v(F) + Q_v(G)`` (Schweizer & Sklar, ch. 7), so a triple fails
    exactly when ``Q_v[i][j] + Q_v[j][k] < Q_v[i][k]`` at some level v.  In
    floating point that holds in two cases:

    - one level, every entry a unit step H(d), as lifted classical metrics
      and maps are, under any built-in star: T(1, 1) = 1 for every t-norm,
      so ``star(H(a), H(b))`` is H(fl(a + b)), or empty when the sum
      overflows, and ``H(s) <= H(c)`` fails exactly when s < c.  The table
      holds ``Q_1``, the locations d;
    - several levels under STAR_MIN, when :func:`_exact_scan` holds: the
      star, ``_envelope`` and ``leq`` then compute in real arithmetic, as
      values stay on their grid under min.  A space's scan and a map
      column's take it alike.
    """
    if all(len(F.breaks) == 1 and F.breaks[0][1] == 1.0 for row in m for F in row):
        return [[[F.breaks[0][0] for F in row] for row in m]]
    if star is not STAR_MIN or not _exact_scan(m):
        return None
    return _quantile_table(m)[1]


def _exact_scan(m: Sequence[Sequence[StepCdf]]) -> bool:
    """The guard of the level path under min and of :func:`_events_below`
    under product and Lukasiewicz: :func:`_exact_sums` for pairs, read on
    the upper triangle and the appended columns, as in
    :func:`_exact_closure`.  A prunable square is exactly symmetric with an
    H0 diagonal, so these hold every breakpoint that a pruned triple adds."""
    grid = _exact_grid(F for i, row in enumerate(m) for F in row[i + 1 :])
    return grid is not None and _exact_sums(grid, 2)


def composed_scan_plan(m: Sequence[Sequence[StepCdf]], star: TriangleFunction, k0: int) -> tuple:
    """``(prune, q, fn)`` as the triangle scan composed them from the three
    helpers above: fn only where no level table decides the scan."""
    prune = _prunable(m, star, k0)
    q = _level_table(m, star) if prune else None
    fn = star.tnorm.fn if prune and q is None and star is not STAR_MIN and _exact_scan(m) else None
    return prune, q, fn


def _is_number(x) -> bool:
    # JSON true/false load as bool, which is a subclass of int
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _entrywise_cdf(obj, where: str) -> StepCdf:
    if not isinstance(obj, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(_is_number(c) for c in p) for p in obj
    ):
        raise ParseError(f"{where}: expected a list of [breakpoint, value] pairs")
    return make_step_cdf(obj)


def entrywise_space_matrix(dist: list) -> list[list[StepCdf]]:
    """The matrix of a space document's ``dist`` list, every entry parsed on
    its own; raises the reader's ParseError or ValidationError."""
    matrix = []
    for i, row in enumerate(dist):
        if not isinstance(row, list):
            raise ParseError(f"dist[{i}] is not a list")
        matrix.append([_entrywise_cdf(entry, f"dist[{i}][{j}]") for j, entry in enumerate(row)])
    return matrix


def pairwise_lipschitz_scan(space, f) -> LipschitzCheck:
    """Certificate of ``star(D(x,y), f(y)) <= f(x)`` over every ordered pair."""
    vals = f if isinstance(f, Mapping) else f.values
    for p in space.points:
        if p not in vals:
            raise DomainMismatch(f"map not defined at point {p!r}")
    star = space.star
    for x in space.points:
        fx = vals[x]
        for y in space.points:
            t = leq_witness(star(space.dist(x, y), vals[y]), fx)
            if t is not None:
                return LipschitzCheck(False, (x, y, t))
    return LipschitzCheck(True)


def sweep_relax_to_triangle(matrix: list[list[StepCdf]], star, max_sweeps: int) -> bool:
    """Raise entries until the triangle inequality holds; True on fixpoint."""
    n = len(matrix)
    for _ in range(max_sweeps):
        changed = False
        for i in range(n):
            for j in range(i + 1, n):
                for q in range(n):
                    if q == i or q == j:
                        continue
                    cand = star(matrix[i][q], matrix[q][j])
                    if not leq(cand, matrix[i][j]):
                        merged = pointwise_sup([matrix[i][j], cand])
                        matrix[i][j] = matrix[j][i] = merged
                        changed = True
        if not changed:
            return True
    return False


@dataclass(frozen=True)
class ModulusEstimate:
    eta: float
    samples: int


class BudgetExhausted(Exception):
    pass


def estimate_modulus(
    star,
    eps: float,
    sampler: Callable[[], StepCdf],
    budget: int,
    max_halvings: int = 20,
) -> ModulusEstimate:
    """Empirical uniform-continuity modulus: the largest eta in {eps/2^k}
    such that every sampled pair (D, F) with the perturbation D within eta of
    the unit step at 0 kept ``star(D, F)`` within eps of F.

    An estimate backed by ``budget`` samples per grid value, not a
    certificate.  Sampled perturbations that are not already small enough are
    shrunk by joining a near-origin bump, which preserves the rest of their
    shape.
    """
    if not (0.0 < eps <= 1.0):
        raise PreconditionViolated(f"eps must lie in (0, 1], got {eps}")
    if budget < 1:
        raise PreconditionViolated(f"budget must be positive, got {budget}")
    total = 0
    eta = eps
    for _ in range(max_halvings):
        ok = True
        for i in range(budget):
            base = sampler()
            F = sampler()
            total += 2
            if levy_to_h0(base) < eta:
                D = base
            else:
                r = eta * (0.1 + 0.8 * (i + 1) / (budget + 1))
                D = pointwise_sup([base, make_step_cdf([(r, 1.0 - r)])])
            if levy_distance(star(D, F), F) >= eps:
                ok = False
                break
        if ok:
            return ModulusEstimate(eta, total)
        eta *= 0.5
    raise BudgetExhausted(f"no grid value down to {eta} passed {budget} samples")
