"""Hypothesis strategies for step cdfs.

The dyadic strategy keeps every coordinate a small binary fraction so
lattice and convolution arithmetic is exact; the float strategy exercises
canonicalization on arbitrary coordinates.  The window-edge strategy puts
every breakpoint in (1, 6), where the Levy window edge 1/b and the shifted
window end h + 1/h fall on probe radii inside (0, 1].  The near-tie
strategy pairs a cdf with a copy whose jumps sit within or just beyond the
canonical tolerance of the original ones.  The shifted-copy strategy pairs a
float cdf with a copy moved right and scaled down a little, where a probe
``fl(a - h)`` lands an ulp of a, not of h, from the jump it should reach.
"""

import hypothesis.strategies as st

from pmspace import StepCdf, make_step_cdf


@st.composite
def dyadic_cdfs(draw, max_breaks: int = 4) -> StepCdf:
    n = draw(st.integers(0, max_breaks))
    if n == 0:
        return StepCdf()
    ts = sorted(draw(st.lists(st.integers(0, 24), min_size=n, max_size=n, unique=True)))
    vs = sorted(draw(st.lists(st.integers(1, 16), min_size=n, max_size=n, unique=True)))
    return StepCdf(tuple((t / 8.0, v / 16.0) for t, v in zip(ts, vs)))


@st.composite
def float_cdfs(draw, max_breaks: int = 4) -> StepCdf:
    n = draw(st.integers(0, max_breaks))
    if n == 0:
        return StepCdf()
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    ts, t = [], 0.0
    for g in gaps:
        t += g
        ts.append(t)
    return make_step_cdf(zip(ts, draw(_float_values(n))))


@st.composite
def _float_values(draw, n: int) -> list[float]:
    incs = draw(st.lists(st.floats(0.02, 0.5), min_size=n, max_size=n))
    full = draw(st.booleans())
    total = sum(incs)
    scale = 1.0 / total if full or total > 1.0 else 1.0
    vs, acc = [], 0.0
    for inc in incs:
        acc += inc
        vs.append(min(acc * scale, 1.0))
    return vs


@st.composite
def window_cdfs(draw, max_breaks: int = 4) -> StepCdf:
    n = draw(st.integers(0, max_breaks))
    if n == 0:
        return StepCdf()
    if draw(st.booleans()):  # eighths in (1, 6), sixteenths as values
        ts = sorted(draw(st.lists(st.integers(9, 47), min_size=n, max_size=n, unique=True)))
        vs = sorted(draw(st.lists(st.integers(1, 16), min_size=n, max_size=n, unique=True)))
        return StepCdf(tuple((t / 8.0, v / 16.0) for t, v in zip(ts, vs)))
    t = draw(st.floats(1.0, 2.0, exclude_min=True))
    ts = [t]
    for g in draw(st.lists(st.floats(0.01, 1.3), min_size=n - 1, max_size=n - 1)):
        t += g
        ts.append(t)
    return make_step_cdf(zip(ts, draw(_float_values(n))))


def cdfs(max_breaks: int = 4):
    return st.one_of(dyadic_cdfs(max_breaks), float_cdfs(max_breaks))


# shifts around the canonical tolerance 1e-12: equal, chained within it, and
# just beyond it
SHIFTS = [0.0, 1e-13, 5e-13, 2e-12]


@st.composite
def near_ties(draw, max_breaks: int = 4) -> tuple[StepCdf, StepCdf]:
    """A cdf and a copy whose jumps are each shifted by one of SHIFTS and
    whose values are scaled, so breakpoints and their sums tie within TOL."""
    F = draw(cdfs(max_breaks))
    shifts = draw(st.lists(st.sampled_from(SHIFTS), min_size=len(F.breaks), max_size=len(F.breaks)))
    scale = draw(st.sampled_from([1.0, 0.75, 0.5]))
    G = make_step_cdf((t + s, v * scale) for (t, v), s in zip(F.breaks, shifts))
    return F, G


@st.composite
def shifted_copies(draw, max_breaks: int = 6) -> tuple[StepCdf, StepCdf]:
    """A float cdf and its copy shifted right by s in (0, 0.5), with values
    scaled by 1 or 0.97."""
    F = draw(float_cdfs(max_breaks))
    s = draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
    scale = draw(st.sampled_from([1.0, 0.97]))
    return F, make_step_cdf((t + s, v * scale) for t, v in F.breaks)
