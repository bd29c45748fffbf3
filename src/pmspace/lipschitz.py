"""Probabilistic 1-Lipschitz maps on finite spaces.

A map f into the distribution lattice is 1-Lipschitz when
``star(D(x,y), f(y)) <= f(x)`` for every ordered pair; on a finite space the
certificate is an exhaustive pair check.  The sup-envelope of any partial
assignment is always 1-Lipschitz and restricts exactly to assignments that
were already 1-Lipschitz on their subset, which is the constructive
extension device used by the compactness machinery.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Sequence

from .cdf import (
    StepCdf,
    heaviside,
    leq,
    pointwise_sup,
    random_step_cdf,
)
from .errors import (
    EmptySubset,
    PreconditionViolated,
    ValidationError,
)
from .levy import _values_at, levy_distance
from .spaces import ProbMetricSpace, _exact_envelope, _triangle_failure
from .tnorms import TriangleFunction


def _map_values(space: ProbMetricSpace, f) -> list[StepCdf]:
    """f's values in point order; DomainMismatch for a point with no value,
    and UnknownPoint for a value at a point outside the space."""
    values = _values_at(f, space.points, "map not defined at point")
    for x in f if isinstance(f, Mapping) else f.values:
        space.index(x)  # raises UnknownPoint at a stray
    return values


@dataclass(frozen=True, eq=False)
class LipschitzMap:
    """A total assignment point -> StepCdf on exactly a space's points."""

    space: ProbMetricSpace
    values: dict

    def __post_init__(self):
        _map_values(self.space, self.values)

    def __getitem__(self, p) -> StepCdf:
        return self.values[p]


@dataclass(frozen=True)
class LipschitzCheck:
    """Certificate result; ``witness`` is (x, y, t) where the defining
    inequality first failed."""

    ok: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_one_lipschitz(space: ProbMetricSpace, f) -> LipschitzCheck:
    """Exhaustive ordered-pair certificate: the triangle scan
    :func:`_triangle_failure` at a point * added with ``D(x, *) = f(x)``."""
    values = _map_values(space, f)
    m = [(*row, F) for row, F in zip(space.matrix, values)]
    failure = _triangle_failure(m, space.star, len(m))
    if failure is None:
        return LipschitzCheck(True)
    i, j, _, t = failure
    return LipschitzCheck(False, (space.points[i], space.points[j], t))


def upper_envelope_extension(space: ProbMetricSpace, A: Sequence, f) -> LipschitzMap:
    """Extend a partial assignment on A to the whole space by
    ``e(x) = sup over a in A of star(f(a), D(x,a))``.

    The result dominates f on A, is 1-Lipschitz, and agrees with f on A
    exactly when f was 1-Lipschitz on the restricted space.  In exact
    arithmetic e is 1-Lipschitz on any space: by associativity, commutativity
    and sup-continuity of the star, and the triangle inequality of D,
    ``star(D(x,y), e(y)) = sup_a star(star(D(x,y), D(y,a)), f(a))
    <= sup_a star(D(x,a), f(a)) = e(x)``.

    That proof holds in floating point when every operation it uses is
    exact, and then the certificate scan :func:`is_one_lipschitz` is
    skipped.  The guard, :func:`spaces._exact_envelope`: a built-in star; a
    certified space, by validation in ``make_space`` or by the closure
    theorem in ``gen_space``, so D's triangle inequality was decided; and
    the lemma :func:`spaces._exact_on_grid` on D and the anchor values
    jointly, with k = 8 for sums (the proof adds three breakpoints) and k = 2
    for products.  Then validation's TOL slack hides no violation, so D's
    triangle inequality holds exactly; e is computed exactly; and the scan's
    own star can only drop an increment of at most TOL, which lowers its
    side, so the scan cannot fail.  Any other input is scanned, and a
    failure raises ValidationError: float addition is not associative, so
    on float distances star(D(x,y), star(f(a), D(y,a))) can jump an ulp
    before star(f(a), D(x,a)).
    """
    anchors = list(A)
    if not anchors:
        raise EmptySubset("extension needs a nonempty anchor set")
    for a in anchors:
        space.index(a)  # raises UnknownPoint for strays
    values = _values_at(f, anchors, "partial map not defined at anchor")
    star = space.star
    extended = {
        x: pointwise_sup([star(F, space.dist(x, y)) for y, F in zip(anchors, values)])
        for x in space.points
    }
    result = LipschitzMap(space, extended)
    if not _exact_envelope(space, values):
        check = is_one_lipschitz(space, result)
        if not check:
            raise ValidationError(f"envelope failed certification at {check.witness}")
    return result


def delta_embed(space: ProbMetricSpace, x) -> LipschitzMap:
    """The distance row ``y -> D(y, x)``; 1-Lipschitz because the space's
    triangle inequality is exactly the required estimate."""
    i = space.index(x)
    return LipschitzMap(space, {y: space.matrix[space.index(y)][i] for y in space.points})


def equicontinuity_bound(
    Dxy: StepCdf,
    Fx: StepCdf,
    Fy: StepCdf,
    star: TriangleFunction,
) -> tuple[float, float]:
    """The two sides of the equicontinuity estimate for a Lipschitz pair.

    Requires both relations ``star(Dxy, Fy) <= Fx`` and ``star(Dxy, Fx) <= Fy``;
    returns (distance between the values, max of the two perturbation
    distances).  The first never exceeds the second.

    The perturbation distances are bounded by the distance itself: for every
    t-norm T >= W, the Lukasiewicz t-norm, which holds for min, product and W
    itself, ``d_L(star(D, F), F) <= d_L(D, H0)`` for all D and F.  So the
    equicontinuity modulus of the 1-Lipschitz maps is exactly eta(eps) = eps.
    Proof: D <= H0 gives star(D, F) <= F, so one side holds at every radius.
    For the other, let h be the attained radius, with D(h+) >= 1 - h; letting
    s decrease to h and u increase to t gives
    ``star(D, F)(t + h) >= T(D(s), F(u)) >= D(s) + F(u) - 1``, which tends to
    at least F(t) - h.  In floating point :func:`levy_distance`'s certificate
    steps add a few ulps, and the Lukasiewicz star as computed adds up to
    2^-53 more: it rounds x + y before subtracting 1, so it can fall below W
    by that much, and then the bound fails by that rounding.
    """
    if not leq(star(Dxy, Fy), Fx) or not leq(star(Dxy, Fx), Fy):
        raise PreconditionViolated("both Lipschitz relations must hold for the pair")
    lhs = levy_distance(Fx, Fy)
    rhs = max(
        levy_distance(star(Dxy, Fx), Fx),
        levy_distance(star(Dxy, Fy), Fy),
    )
    return lhs, rhs


def classical_lipschitz_embed(space: ProbMetricSpace, L: Mapping) -> LipschitzMap:
    """Lift a nonnegative real-valued map to unit steps at its values.
    The lift is 1-Lipschitz exactly when L is classically 1-Lipschitz for the
    distances underlying a unit-step space."""
    return LipschitzMap(space, {x: heaviside(L[x]) for x in space.points})


def random_lipschitz_map(space: ProbMetricSpace, rng: random.Random) -> LipschitzMap:
    """Seeded certified map: the envelope of a random partial assignment of
    grid cdfs with at most 3 breaks on a random anchor set."""
    pts = list(space.points)
    anchors = rng.sample(pts, rng.randint(1, len(pts)))
    partial = {a: random_step_cdf(rng, 3) for a in anchors}
    return upper_envelope_extension(space, anchors, partial)
