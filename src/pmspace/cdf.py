"""Exact finite representation of distance distribution functions.

The value lattice consists of nondecreasing, left-continuous step functions
on the reals that vanish on (-inf, 0] and carry the implicit value 1 at
+inf.  A function is stored as its canonical jump sequence
``((t1, v1), ..., (tn, vn))``: strictly increasing breakpoints ``t_i >= 0``,
strictly increasing values ``v_i`` in (0, 1].  The function equals 0 on
(-inf, t1], equals ``v_i`` on (t_i, t_{i+1}], and ``v_n`` on (t_n, +inf).
The empty sequence encodes the function that is identically 0 on the reals
(the lattice minimum); the unit step at 0 is the maximum.

Everything here is exact: evaluation, the pointwise order, lattice suprema
and grid quantization are decided from the jump sequences alone, never by
sampling.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import (
    EmptyFamily,
    InvalidDelta,
    NegativeBreakpoint,
    NonMonotoneValue,
    PreconditionViolated,
    ValueOutOfRange,
)

# Absolute tolerance for breakpoint/value comparisons during canonicalization.
# The product t-norm introduces rounding at the 1e-16 scale; 1e-12 keeps
# canonical forms stable without masking real differences.
TOL = 1e-12

INF = math.inf


@dataclass(frozen=True)
class StepCdf:
    """A canonical jump sequence.  Instances are immutable and hashable;
    ``==`` is exact structural equality, use :func:`approx_equal` for the
    tolerance-based canonical equality used throughout the package."""

    breaks: tuple[tuple[float, float], ...] = ()

    def __call__(self, t: float) -> float:
        return evaluate(self, t)


def make_step_cdf(points: Iterable[Sequence[float]]) -> StepCdf:
    """Canonicalizing constructor.

    Sorts the given (breakpoint, value) pairs, drops exact duplicates and
    redundant breakpoints (a value within TOL of the one before, or of 0 for
    the first), so the result is canonical, and rejects anything
    that cannot be a member of the lattice: negative breakpoints, values
    outside (0, 1], or values that decrease as breakpoints increase.
    Idempotent: feeding back ``F.breaks`` reproduces ``F``.
    """
    cleaned = []
    for t, v in points:
        try:
            t = float(t)
            v = float(v)
        except OverflowError:  # an integer past the float range
            if isinstance(t, float):
                raise ValueOutOfRange("value must lie in (0, 1], got an integer past 1e308") from None
            raise NegativeBreakpoint("breakpoint must be finite, got an integer past 1e308") from None
        if not math.isfinite(t) or t < 0:
            raise NegativeBreakpoint(f"breakpoint must be a finite nonnegative real, got {t}")
        if not math.isfinite(v) or not (0.0 < v <= 1.0):
            raise ValueOutOfRange(f"value must lie in (0, 1], got {v}")
        cleaned.append((t, v))
    cleaned.sort()
    breaks = [(-INF, 0.0)]  # the function is 0 before its first breakpoint
    for t, v in cleaned:
        pt, pv = breaks[-1]
        if t - pt <= TOL:
            # same breakpoint within tolerance
            if abs(v - pv) <= TOL:
                continue
            raise NonMonotoneValue(f"two distinct values ({pv}, {v}) at breakpoint {t}")
        if v <= pv + TOL:
            if v < pv - TOL:
                raise NonMonotoneValue(f"value decreases from {pv} to {v} at breakpoint {t}")
            continue  # redundant breakpoint, same value
        breaks.append((t, v))
    return StepCdf(tuple(breaks[1:]))


def heaviside(a: float) -> StepCdf:
    """The unit step jumping just after ``a``; the empty function for a = +inf."""
    a = float(a)
    if a == INF:
        return StepCdf()
    if not math.isfinite(a) or a < 0:
        raise NegativeBreakpoint(f"step location must be a nonnegative real or +inf, got {a}")
    return StepCdf(((a, 1.0),))


H0 = heaviside(0.0)
HINF = StepCdf()


def evaluate(F: StepCdf, t: float) -> float:
    """Left-continuous evaluation: the value ``v_i`` for the largest ``t_i < t``,
    0 when there is none, and 1 at t = +inf."""
    if t == INF:
        return 1.0
    # (t,) sorts before every pair at t, so this counts the breakpoints < t
    i = bisect_left(F.breaks, (t,))
    return F.breaks[i - 1][1] if i else 0.0


def value_after(F: StepCdf, t: float) -> float:
    """Right limit F(t+): the value ``v_i`` for the largest ``t_i <= t``."""
    # (t, INF) sorts after every pair at t, so this counts the breakpoints <= t
    i = bisect_right(F.breaks, (t, INF))
    return F.breaks[i - 1][1] if i else 0.0


def leq(F: StepCdf, G: StepCdf, tol: float = TOL) -> bool:
    """Pointwise order F <= G, decided exactly at the union of breakpoints."""
    return leq_witness(F, G, tol) is None


def leq_witness(F: StepCdf, G: StepCdf, tol: float = TOL) -> float | None:
    """First probe t with F(t) > G(t) + tol, or None when F <= G everywhere.

    Both functions are constant between consecutive union breakpoints, and the
    left-continuous read at each breakpoint returns the value of the interval
    ending there, so one merged walk over both jump lists visits every
    interval.  One extra probe past the last breakpoint covers the final
    interval; above 2**53, where ``last + 1.0 == last``, it is the next float.
    """
    a = F.breaks + ((INF, 0.0),)  # sentinels end the walk
    b = G.breaks + ((INF, 0.0),)
    i = j = 0
    fv = gv = 0.0  # values on the interval ending at the next breakpoint
    while True:
        ta, tb = a[i][0], b[j][0]
        c = ta if ta <= tb else tb
        if c == INF:
            break
        if fv > gv + tol:
            return c
        if ta == c:
            fv = a[i][1]
            i += 1
        if tb == c:
            gv = b[j][1]
            j += 1
    if fv > gv + tol:
        last = max(a[-2][0] if i else 0.0, b[-2][0] if j else 0.0)
        probe = last + 1.0
        return probe if probe > last else math.nextafter(last, INF)
    return None


def approx_equal(F: StepCdf, G: StepCdf, tol: float = TOL) -> bool:
    """Canonical equality: same number of jumps, breakpoints and values agree
    componentwise within ``tol``."""
    a, b = F.breaks, G.breaks
    if len(a) != len(b):
        return False
    return all(
        abs(t1 - t2) <= tol and abs(v1 - v2) <= tol
        for (t1, v1), (t2, v2) in zip(a, b)
    )


def _envelope(events: Iterable[tuple[float, float]]) -> StepCdf:
    """Running upper envelope of ``(t, v)`` jump events sorted by ``t``.

    The target function jumps to at least ``v`` just after ``t``, so its
    value right of a breakpoint is the maximum ``v`` seen so far.  Events
    chaining within TOL of each other are one canonical breakpoint, placed
    at the first of them, and only increments above TOL become jumps, which
    canonicalizes away float noise.
    """
    breaks: list[tuple[float, float]] = []
    prev = best = 0.0
    first = last = -INF
    for t, v in events:
        if t - last > TOL:
            if best > prev + TOL:
                breaks.append((first, min(best, 1.0)))
                prev = best
            first = t
        last = t
        if v > best:
            best = v
    if best > prev + TOL:
        breaks.append((first, min(best, 1.0)))
    return StepCdf(tuple(breaks))


def is_canonical(F) -> bool:
    """True when F is a StepCdf that :func:`_envelope` could have built:
    finite breakpoints >= 0 more than TOL apart, values in (0, 1] that each
    rise by more than TOL (the gap and increment tests are ``_envelope``'s
    own)."""
    if not isinstance(F, StepCdf):
        return False
    prev_t, prev_v = -INF, 0.0
    for t, v in F.breaks:
        if not (0.0 <= t < INF and t - prev_t > TOL and prev_v + TOL < v <= 1.0):
            return False
        prev_t, prev_v = t, v
    return True


def pointwise_sup(family: Iterable[StepCdf]) -> StepCdf:
    """Exact pointwise maximum of a nonempty finite family."""
    fams = list(family)
    if not fams:
        raise EmptyFamily("pointwise_sup needs at least one function")
    if len(fams) == 1:
        return fams[0]
    return _envelope(sorted([jump for F in fams for jump in F.breaks], key=itemgetter(0)))


def quantize(F: StepCdf, delta: float) -> StepCdf:
    """Snap ``F`` onto the delta-grid from below.

    The result G has breakpoints on ``{k*delta : k >= 0}`` capped at the time
    horizon ``1/delta``; on each grid cell (k*delta, (k+1)*delta] it takes the
    value ``floor(F(k*delta+)/delta) * delta``.  Consequences: G lies below F
    up to the float slack of the snap (below), the map is idempotent on its
    image, and the image for a fixed delta is finite, which is what makes
    grid keys usable as cluster buckets.  A delta whose horizon is not a
    finite float (below about 7.5e-155) is rejected.

    The slack that absorbs float dirt on coordinates already on the grid
    makes the order weaker than G <= F.  A value may exceed F's by TOL.  A
    breakpoint up to ``1e-9*delta`` above a grid point snaps down onto it,
    and ``k*delta`` rounds, so G may jump before F by ``1e-9*delta`` plus
    a few ulps.  For ``delta >= 2*TOL`` distinct grid breakpoints never
    chain, and ``G(t) <= F(t + 1e-9*delta + 4*ulp(t)) + TOL`` for every t.
    Below that, breakpoints snapped within TOL of each other merge onto the
    first, which moves a jump further left.
    """
    if not (0.0 < delta <= 1.0):
        raise InvalidDelta(f"delta must lie in (0, 1], got {delta}")
    sq = delta * delta
    horizon = 1.0 / sq if sq else INF
    if horizon == INF:
        raise InvalidDelta(f"delta {delta} is too small: the horizon 1/delta**2 is not a finite float")
    kmax = int(math.floor(horizon + 1e-9))
    # absorbs float dirt when v is already a grid multiple; capped at half a
    # grid step so that it never lifts v into the next cell
    slack = min(TOL, 0.5 * delta)

    def cells():
        for t, v in F.breaks:
            x = t / delta - 1e-9
            if x > kmax:  # ceil(x) > kmax, and also an x that overflowed to +inf
                return
            k = math.ceil(x)
            yield k * delta, min(math.floor((v + slack) / delta) * delta, 1.0)

    return _envelope(cells())


def random_step_cdf(rng: random.Random, max_breaks: int = 4, grid: bool = True) -> StepCdf:
    """Seeded random lattice member.

    With ``grid=True`` breakpoints live on the 1/8 grid in [0, 3] and values
    on the 1/16 grid, so downstream sums, minima and products stay exact in
    floating point.  With ``grid=False`` coordinates are uniform floats, which
    exercises canonicalization instead.  Zero breaks (the lattice minimum) and
    full unit mass both occur.  The grid has 16 value levels, so
    ``max_breaks`` must lie in [0, 16] there; otherwise it must be
    nonnegative.
    """
    cap = 16 if grid else INF
    if not (0 <= max_breaks <= cap):
        raise PreconditionViolated(f"max_breaks must lie in [0, {cap}], got {max_breaks}")
    n = rng.randint(0, max_breaks)
    if n == 0:
        return HINF
    if grid:
        ts = sorted(rng.sample(range(0, 25), n))
        vs = sorted(rng.sample(range(1, 17), n))
        return StepCdf(tuple((t / 8.0, v / 16.0) for t, v in zip(ts, vs)))
    ts, t = [], 0.0
    for _ in range(n):
        t += rng.uniform(0.01, 1.2)
        ts.append(t)
    incs = [rng.uniform(0.02, 0.5) for _ in range(n)]
    total = sum(incs)
    scale = 1.0 / total if total > 1.0 or rng.random() < 0.5 else 1.0
    vs, acc = [], 0.0
    for inc in incs:
        acc += inc
        vs.append(min(acc * scale, 1.0))
    return make_step_cdf(zip(ts, vs))
