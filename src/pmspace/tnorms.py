"""Triangular norms on [0, 1] and the triangle functions they induce.

A left-continuous t-norm T lifts to a binary operation on the lattice of
step distribution functions via the sup-convolution
``(F * L)(t) = sup over s+u=t of T(F(s), L(u))``, which is commutative,
associative, monotone, has the unit step at 0 as neutral element, and is
both continuous and sup-continuous.  For step functions the supremum
collapses to a finite maximum over jumps, so the operation is computed
exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .cdf import (
    H0,
    INF,
    TOL,
    StepCdf,
    _envelope,
    approx_equal,
    is_canonical,
    leq,
    pointwise_sup,
    random_step_cdf,
)
from .errors import EmptyFamily, PreconditionViolated, ValidationError
from .levy import is_weak_limit, levy_distance


@dataclass(frozen=True)
class TNorm:
    """A named binary operation on [0, 1].  Built-ins are left-continuous and
    satisfy the four t-norm axioms exactly on dyadic inputs."""

    name: str
    fn: Callable[[float, float], float]


def _minimum(x: float, y: float) -> float:
    return x if x <= y else y


def _product(x: float, y: float) -> float:
    return x * y


def _lukasiewicz(x: float, y: float) -> float:
    z = x + y - 1.0
    return z if z > 0.0 else 0.0


MINIMUM = TNorm("minimum", _minimum)
PRODUCT = TNorm("product", _product)
LUKASIEWICZ = TNorm("lukasiewicz", _lukasiewicz)


TNORM_AXIOMS = ("closure", "commutativity", "associativity", "monotonicity", "boundary")


def tnorm_axiom_failures(T: TNorm) -> list[str]:
    """Grid check of the t-norm axioms; returns the names of failed axioms,
    in :data:`TNORM_AXIOMS` order.

    The grid {k/64} is dyadic, so the built-ins pass with exact arithmetic;
    comparisons allow TOL.
    """
    grid = [k / 64 for k in range(65)]
    closure_ok = commut_ok = boundary_ok = True
    for x in grid:  # the grid ends at 1, so y covers closure at the boundary
        if abs(T.fn(x, 1.0) - x) > TOL:
            boundary_ok = False
        for y in grid:
            v = T.fn(x, y)
            if not (0.0 <= v <= 1.0):
                closure_ok = False
            if abs(v - T.fn(y, x)) > TOL:
                commut_ok = False
    assoc_ok = mono_ok = True
    for x in grid:
        prev = None
        for z in grid:  # z ascends, so T(x, z) must not descend
            v = T.fn(x, z)
            if prev is not None and v < prev - TOL:
                mono_ok = False
            prev = v
        for y in grid:
            txy = T.fn(x, y)
            for z in grid:
                if abs(T.fn(x, T.fn(y, z)) - T.fn(txy, z)) > TOL:
                    assoc_ok = False
    oks = (closure_ok, commut_ok, assoc_ok, mono_ok, boundary_ok)
    return [name for name, ok in zip(TNORM_AXIOMS, oks) if not ok]


def custom_tnorm(name: str, fn: Callable[[float, float], float]) -> TNorm:
    """Wrap a user-supplied operation after a grid check of the axioms."""
    T = TNorm(name, fn)
    failed = tnorm_axiom_failures(T)
    if failed:
        raise ValidationError(f"operation {name!r} fails t-norm axioms on the grid: {failed}")
    return T


@dataclass(frozen=True)
class TriangleFunction:
    """A binary operation on step cdfs.  Canonical instances come from
    :func:`star_from_tnorm`; arbitrary operations may be wrapped for the
    axiom validators."""

    name: str
    fn: Callable[[StepCdf, StepCdf], StepCdf]
    tnorm: TNorm | None = None

    def __call__(self, F: StepCdf, L: StepCdf) -> StepCdf:
        return self.fn(F, L)


def sup_convolution(T: TNorm, F: StepCdf, L: StepCdf) -> StepCdf:
    """Exact sup-convolution of two step functions under a left-continuous
    t-norm.

    Every pair of jumps (a_i, v_i) of F and (b_m, w_m) of L forces the
    result up to ``T(v_i, w_m)`` just after ``a_i + b_m``; by monotonicity
    and left-continuity of T nothing else contributes, so the result is the
    running maximum of these m^2 events swept in order of their sums.  The
    rows ``a_i + b_*`` are already sorted, so the sort merges them in
    m^2 log m.  Events are placed at the float sums themselves, never by
    subtracting coordinates: re-deriving ``t - a_i`` in floating point can
    round across a jump of L and poison a whole interval.  Sums chaining
    within TOL are one breakpoint, so summation order never decides whether
    two near-tied sums become one jump or two.  A sum that overflows to +inf
    lies beyond every float and is never reached.
    """
    fn = T.fn
    events = [(a + b, fn(v, w)) for a, v in F.breaks for b, w in L.breaks]
    events.sort(key=itemgetter(0))
    while events and events[-1][0] == INF:
        events.pop()
    return _envelope(events)


def star_from_tnorm(T: TNorm) -> TriangleFunction:
    def fn(F: StepCdf, L: StepCdf) -> StepCdf:
        return sup_convolution(T, F, L)

    return TriangleFunction(f"sup_convolution[{T.name}]", fn, T)


# Shared instances so reloading a document yields identity-equal operations.
STAR_MIN = star_from_tnorm(MINIMUM)
STAR_PROD = star_from_tnorm(PRODUCT)
STAR_LUKA = star_from_tnorm(LUKASIEWICZ)

# the names that space documents and ``--tnorm`` carry; the only list of them
BUILTIN_STARS = {"min": STAR_MIN, "prod": STAR_PROD, "luka": STAR_LUKA}
BUILTIN_TNORMS = {name: star.tnorm for name, star in BUILTIN_STARS.items()}


@dataclass
class AxiomReport:
    """Outcome of the five triangle-function axioms over a sample of triples.
    ``counterexamples`` maps a failed axiom name to the first offending
    triple."""

    closure: bool = True
    commutativity: bool = True
    associativity: bool = True
    neutrality: bool = True
    monotonicity: bool = True
    checked: int = 0
    counterexamples: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return all(getattr(self, axiom) for axiom in STAR_AXIOMS)


# the boolean fields of AxiomReport, in declaration order
STAR_AXIOMS = tuple(f.name for f in fields(AxiomReport) if f.type == "bool")


def check_triangle_axioms(
    star: TriangleFunction,
    samples: Iterable[tuple[StepCdf, StepCdf, StepCdf]],
    tol: float = 1e-9,
) -> AxiomReport:
    """Test closure, commutativity, associativity, neutrality of the unit
    step at 0, and monotonicity on the given triples.

    Monotonicity is exercised by lifting the first component to the pointwise
    supremum with the second, which supplies a comparable pair.  ``tol``
    must be nonnegative: under NaN every comparison would fail.
    """
    if not (tol >= 0.0):  # also rejects NaN
        raise PreconditionViolated(f"tolerance must be nonnegative, got {tol}")
    report = AxiomReport()

    def fail(axiom: str, triple) -> None:
        if getattr(report, axiom):
            setattr(report, axiom, False)
            report.counterexamples[axiom] = triple

    for triple in samples:
        F, L, K = triple
        report.checked += 1
        FL = star(F, L)
        if not is_canonical(FL):
            fail("closure", triple)
            continue
        if not approx_equal(FL, star(L, F), tol):
            fail("commutativity", triple)
        if not approx_equal(star(F, star(L, K)), star(FL, K), tol):
            fail("associativity", triple)
        if not approx_equal(star(F, H0), F, tol):
            fail("neutrality", triple)
        M = pointwise_sup([F, L])
        if not leq(star(F, K), star(M, K), tol):
            fail("monotonicity", triple)
    return report


def check_sup_continuity(
    star: TriangleFunction,
    family: Iterable[StepCdf],
    L: StepCdf,
    tol: float = 1e-9,
) -> bool:
    """True iff the supremum commutes with the operation on this family:
    sup_i star(F_i, L) equals star(sup_i F_i, L) canonically within tol."""
    fams = list(family)
    if not fams:
        raise EmptyFamily("sup-continuity check needs a nonempty family")
    lhs = pointwise_sup([star(Fi, L) for Fi in fams])
    rhs = star(pointwise_sup(fams), L)
    return approx_equal(lhs, rhs, tol)


def check_weak_continuity(
    star: TriangleFunction,
    fseq: Sequence[StepCdf],
    f_limit: StepCdf,
    lseq: Sequence[StepCdf],
    l_limit: StepCdf,
    tol: float,
    tail: int = 10,
) -> bool:
    """Finite-sequence continuity of the operation at the pair of limits.

    Requires both input sequences to converge at tolerance ``tol`` over the
    given tail; the outputs must then stay within ``3*tol`` of the operation
    applied to the limits.
    """
    fseq, lseq = list(fseq), list(lseq)
    if len(fseq) != len(lseq):
        raise PreconditionViolated("input sequences must have equal length")
    if not is_weak_limit(fseq, f_limit, tol, tail):
        raise PreconditionViolated("first sequence does not converge at the stated tolerance")
    if not is_weak_limit(lseq, l_limit, tol, tail):
        raise PreconditionViolated("second sequence does not converge at the stated tolerance")
    target = star(f_limit, l_limit)
    return all(
        levy_distance(star(Fn, Ln), target) < 3.0 * tol
        for Fn, Ln in zip(fseq[-tail:], lseq[-tail:])
    )


def random_triples(rng: random.Random, count: int) -> list[tuple[StepCdf, StepCdf, StepCdf]]:
    """Seeded triples of grid cdfs for the axiom validators."""
    return [(random_step_cdf(rng), random_step_cdf(rng), random_step_cdf(rng)) for _ in range(count)]
