"""The modified Levy distance on step distribution functions, the uniform
distance between function-valued maps, and weak-convergence checks.

The distance between F and G is the least probe radius h in (0, 1] such that
both sided conditions ``G(t) <= F(t+h) + h`` and ``F(t) <= G(t+h) + h`` hold
for every t in the window (0, 1/h).  Each side has a closed form.  On the
interval of G that starts at a jump (b, v) the worst probe is t -> b+, so the
side holds exactly when every jump has ``F((b+h)+) + h >= v`` or lies past
the window (``h >= 1/b``).  The left side is right-continuous and strictly
increasing in h, so each jump's least radius is attained and is read off
F's right-limit constancy intervals; the side is the largest of them and the
distance the larger side.  The per-radius decision :func:`condition_a`
certifies the result.

Both kernels are forward walks over the ``breaks`` pairs with no bisection:
every probe coordinate they read (``b + best`` and b in the closed form,
``b + h`` and ``a - h`` in the decision) is nondecreasing along the walk, so
a pointer into the other function that only moves forward reads the same
value a search would.  When the window end 1/h overflows to +inf, both
functions read 1 there and the decision skips that probe.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Iterable, Sequence

from .cdf import H0, INF, StepCdf, approx_equal
from .errors import DomainMismatch, PreconditionViolated, ProbeOutOfRange, ValidationError


def _values_at(f, points: Sequence, missing: str) -> list[StepCdf]:
    """f's values at ``points``; f is a mapping point -> StepCdf or carries one
    under ``.values`` (dict.values is a method, so Mapping is tested first).
    DomainMismatch otherwise, and ``f"{missing} {x!r}"`` for a point x with no value."""
    vals = f if isinstance(f, Mapping) else getattr(f, "values", None)
    if not isinstance(vals, Mapping):
        raise DomainMismatch(f"expected a mapping point -> cdf, got {type(f).__name__}")
    values = []
    for x in points:
        if x not in vals:
            raise DomainMismatch(f"{missing} {x!r}")
        values.append(vals[x])
        if not isinstance(values[-1], StepCdf):
            raise DomainMismatch(f"value at {x!r} is not a step cdf, got {type(values[-1]).__name__}")
    return values


def condition_a(F: StepCdf, G: StepCdf, h: float) -> bool:
    """Exact decision of ``G(t) <= F(t+h) + h`` for all t in (0, 1/h).

    The defect ``G(t) - F(t+h)`` is a left-continuous step function of t whose
    jumps sit at G's breakpoints and at F's breakpoints shifted by -h.  Its
    supremum over the window is therefore attained among the interval values
    read (left-continuously) at those points and at the window end ``1/h``.

    Two forward walks read them.  The walk over G's jumps b in (0, 1/h)
    takes G(b) as the value before b and reads F at ``b+h`` through a pointer
    that only moves forward; the window end is its last probe, at the same
    pair ``(1/h, 1/h+h)`` as a jump at b = 1/h.  The walk over F's jumps a
    with ``0 < a-h <= 1/h`` takes F(a) as the value before a and reads G at
    ``a-h`` the same way.  Each probe keeps both coordinates exact: re-deriving
    a from ``(a-h) + h`` can round past the jump at a and misread F by the
    whole jump height.  When 1/h overflows to +inf (h <= 1/DBL_MAX) the window
    end reads 1 for both functions and always passes, so it is skipped.
    """
    if not (0.0 < h <= 1.0):
        raise ProbeOutOfRange(f"probe radius must lie in (0, 1], got {h}")
    window = 1.0 / h
    fb, gb = F.breaks, G.breaks
    nf, ng = len(fb), len(gb)
    i = 0
    fv = gv = 0.0  # F left of the pointer, G on the interval ending at b
    for b, v in gb:
        if b >= window:
            break
        if b > 0.0:
            th = b + h
            while i < nf and fb[i][0] < th:
                fv = fb[i][1]
                i += 1
            if gv > fv + h:
                return False
        gv = v
    if window < INF:
        th = window + h
        while i < nf and fb[i][0] < th:
            fv = fb[i][1]
            i += 1
        if gv > fv + h:
            return False
    j = 0
    fv = gv = 0.0  # F on the interval ending at a, G left of the pointer
    for a, v in fb:
        c = a - h
        if c > window:
            break
        if c > 0.0:
            while j < ng and gb[j][0] < c:
                gv = gb[j][1]
                j += 1
            if gv > fv + h:
                return False
        fv = v
    return True


def _both_sides(F: StepCdf, G: StepCdf, h: float) -> bool:
    return condition_a(F, G, h) and condition_a(G, F, h)


def _side(F: StepCdf, G: StepCdf) -> float:
    """inf{h in (0, 1] : G(t) <= F(t+h) + h on (0, 1/h)}, in closed form.

    A jump (b, v) of G needs the least h with ``F((b+h)+) + h >= v``, capped
    at the window edge 1/b and at 1.  On a right-limit constancy interval of
    F with value w starting at offset ``gap`` from b the candidate is
    ``max(gap, v-w)``; the scan stops at the first interval containing its
    candidate, or once the next interval starts past the cap.  A jump the
    running maximum already satisfies is skipped.  Two forward pointers into
    F replace the lookups: one past the breakpoints at or below ``b + best``
    and one past those at or below b, since both probes only grow.
    """
    fb = F.breaks
    n = len(fb)
    p = q = 0  # F's breakpoints at or below b + best, at or below b
    best = 0.0
    for b, v in G.breaks:
        cap = 1.0 / b if b > 1.0 else 1.0
        if best >= cap:
            continue
        tb = b + best
        while p < n and fb[p][0] <= tb:
            p += 1
        if (fb[p - 1][1] if p else 0.0) + best >= v:
            continue
        while q < n and fb[q][0] <= b:
            q += 1
        k = q
        h = v - (fb[k - 1][1] if k else 0.0)
        while k < n:
            t, w = fb[k]
            gap = t - b
            if h < gap or gap >= cap:
                break
            h = max(gap, v - w)
            k += 1
        best = max(best, min(h, cap))
    return best


def levy_distance(F: StepCdf, G: StepCdf) -> float:
    """The least radius at which both sided conditions hold.

    Exactly 0 when F and G are canonically equal.  Otherwise the closed form
    of each side, moved up until :func:`condition_a` accepts it on both
    sides, so the result is always a valid probe radius: by at most four
    ulps of h, then by at most four ulps of the largest breakpoint inside
    the window.  Symmetric by construction, and always <= 1 since both
    conditions hold at h = 1.
    """
    if approx_equal(F, G):
        return 0.0
    d = max(_side(F, G), _side(G, F))
    # probe coordinates such as ``fl(a - h)`` round, so the float decision can
    # reject the exact infimum.  An ulp or two of h usually fixes that, but a
    # probe at a breakpoint a moves in ulps of a, which near a = 2 and
    # h = 0.09 is nine ulps of h; so the later steps are ulps of the largest
    # breakpoint inside the window.
    for _ in range(4):
        if d == 0.0 or _both_sides(F, G, d):
            return d
        d = math.nextafter(d, 1.0)
    window = 1.0 / d
    step = math.ulp(max([d] + [t for t, _ in F.breaks + G.breaks if t <= window]))
    for _ in range(5):
        if _both_sides(F, G, d):
            return d
        d = min(d + step, 1.0)
    raise ValidationError(f"closed-form Levy distance failed certification near {d}")


def levy_to_h0(F: StepCdf) -> float:
    """Exact distance from F to the unit step at 0.

    Against the maximal element the condition ``F(t) <= H0(t+h) + h`` always
    holds, and the other side collapses to ``F(h+) >= 1 - h``: the single
    jump of H0 at 0, so one scan of F's right-limit intervals.
    """
    return _side(F, H0)


def uniform_distance(f, g, points: Sequence) -> float:
    """Largest per-point distance between two maps into the lattice, each a
    plain mapping point -> StepCdf or anything with a ``values`` mapping."""
    points = list(points)
    fs = _values_at(f, points, "map not defined at point")
    gs = _values_at(g, points, "map not defined at point")
    return max([0.0] + [levy_distance(F, G) for F, G in zip(fs, gs)])


def _tail(seq: Iterable, tol: float, tail: int) -> list:
    """The window of the convergence checks; PreconditionViolated unless
    ``0 < tail <= len(seq)`` and ``tol > 0``, which also rejects NaN."""
    seq = list(seq)
    if not (0 < tail <= len(seq)):
        raise PreconditionViolated(f"tail must lie in [1, {len(seq)}], got {tail}")
    if not (tol > 0.0):
        raise PreconditionViolated(f"tolerance must be positive, got {tol}")
    return seq[-tail:]


def is_weak_limit(seq: Iterable[StepCdf], F: StepCdf, tol: float, tail: int) -> bool:
    """True iff the last ``tail`` members of the sequence are within ``tol``
    of F in the modified Levy distance.  This is the finite-sequence reading
    of weak convergence: the distance metrizes it."""
    return all(levy_distance(Fn, F) < tol for Fn in _tail(seq, tol, tail))
