"""Constructive compactness for spaces of 1-Lipschitz maps.

The distribution lattice with the modified Levy distance is totally bounded:
grid quantization at delta sends every member within 2*delta of a finite key
set.  Bucketing a sequence by its quantization key therefore extracts a
subsequence with pairwise distance at most 4*delta, and refining point by
point over a finite space yields a subsequence of maps that is uniformly
clustered at any requested scale, with a legal (certified 1-Lipschitz)
cluster representative.  The converse direction runs the same machinery on
the distance embeddings and reads metric clustering of the points off the
uniform clustering of their embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cdf import StepCdf, quantize
from .errors import DomainMismatch, IndexOutOfRange, InsufficientSequence, PreconditionViolated
from .levy import levy_distance, levy_to_h0, uniform_distance
from .lipschitz import LipschitzMap, delta_embed, is_one_lipschitz
from .spaces import ProbMetricSpace


@dataclass(frozen=True)
class ExtractionReport:
    """Outcome of a subsequence extraction.

    ``selected`` indexes the input sequence (strictly increasing), ``limit``
    is the cluster representative (the last selected map), ``pairwise_dinf``
    is the largest uniform distance among selected maps, and the report is
    successful when that stays within ``eps`` and the representative is
    certified.
    """

    selected: tuple[int, ...]
    limit: LipschitzMap
    pairwise_dinf: float
    lipschitz_ok: bool
    eps: float

    @property
    def success(self) -> bool:
        return self.lipschitz_ok and self.pairwise_dinf <= self.eps


def select_cauchy_subsequence(cdfs: Sequence[StepCdf], eps: float) -> list[int]:
    """Indices of the largest quantization bucket at scale eps/4.

    Two members sharing a key are each within 2*(eps/4) of the common
    quantization, hence within eps of each other.  Ties between buckets go to
    the one seen first.
    """
    cdfs = list(cdfs)
    if not (0.0 < eps <= 1.0):
        raise PreconditionViolated(f"eps must lie in (0, 1], got {eps}")
    if not cdfs:
        raise InsufficientSequence("cannot select from an empty sequence")
    buckets: dict[tuple, list[int]] = {}
    for i, F in enumerate(cdfs):
        buckets.setdefault(quantize(F, eps / 4.0).breaks, []).append(i)
    return max(buckets.values(), key=lambda idx: (len(idx), -idx[0]))


def extract_uniform_subsequence(
    space: ProbMetricSpace,
    maps: Sequence[LipschitzMap],
    eps: float,
) -> ExtractionReport:
    """Diagonal refinement over the finite point list at scale eps/2 per
    point, then a full re-measurement of what was extracted.

    Raises InsufficientSequence when the input is empty (a nonempty largest
    bucket can never empty, so longer inputs only help cluster sizes; the
    useful length scales like the bucket count to the power of the point
    count).
    """
    maps = list(maps)
    if not (0.0 < eps <= 1.0):
        raise PreconditionViolated(f"eps must lie in (0, 1], got {eps}")
    if not maps:
        raise InsufficientSequence("cannot extract from an empty sequence of maps")
    for f in maps:
        if f.space.points != space.points:
            raise DomainMismatch("all maps must live on the given space")
    selected = list(range(len(maps)))
    for x in space.points:
        sub = select_cauchy_subsequence([maps[i].values[x] for i in selected], eps / 2.0)
        selected = [selected[k] for k in sub]
    limit = maps[selected[-1]]
    return ExtractionReport(
        selected=tuple(selected),
        limit=limit,
        pairwise_dinf=_pairwise_dinf(space, maps, selected),
        lipschitz_ok=bool(is_one_lipschitz(space, limit)),
        eps=eps,
    )


def _pairwise_dinf(
    space: ProbMetricSpace,
    maps: Sequence[LipschitzMap],
    selected: Sequence[int],
) -> float:
    # max over pairs of the uniform distance == max over points of the
    # per-point pairwise distance; collapsing duplicates per point keeps the
    # quadratic pass small.
    worst = 0.0
    for x in space.points:
        distinct = list({maps[i].values[x].breaks: maps[i].values[x] for i in selected}.values())
        for a in range(len(distinct)):
            for b in range(a + 1, len(distinct)):
                worst = max(worst, levy_distance(distinct[a], distinct[b]))
    return worst


def verify_uniform_convergence(
    space: ProbMetricSpace,
    maps: Sequence[LipschitzMap],
    selected: Sequence[int],
    limit,
    eps: float,
) -> bool:
    """True iff the tail half of the selected maps stays within eps of the
    limit in uniform distance."""
    maps = list(maps)
    selected = list(selected)
    for i in selected:
        if not (0 <= i < len(maps)):
            raise IndexOutOfRange(f"selected index {i} out of range for {len(maps)} maps")
    tail = selected[len(selected) // 2 :]
    return all(uniform_distance(maps[i], limit, space.points) <= eps for i in tail)


def converse_compactness_witness(
    space: ProbMetricSpace,
    pts: Sequence,
    eps: float,
) -> tuple[tuple[int, ...], bool]:
    """Run the extraction on the distance embeddings of a point sequence.

    Returns the selected indices and whether the underlying points are
    mutually within eps of each other in distance-to-the-unit-step terms:
    uniform clustering of the embeddings forces metric clustering of the
    points, because the embedding of p evaluated at q is exactly D(q, p).
    """
    pts = list(pts)
    maps = [delta_embed(space, p) for p in pts]
    report = extract_uniform_subsequence(space, maps, eps)
    selected = report.selected
    labels = sorted({pts[i] for i in selected}, key=space.index)
    cauchy_ok = all(
        levy_to_h0(space.dist(a, b)) <= eps
        for ai, a in enumerate(labels)
        for b in labels[ai + 1 :]
    )
    return selected, cauchy_ok
