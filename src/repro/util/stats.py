"""Small statistics toolkit used across the audit analyses.

Implements exactly what the paper's analyses need — medians and percentiles
(frequency-cap inter-arrival times), logarithmic rank buckets (the Alexa
distribution of Figure 2), and two-decimal fraction formatting for the
tables — without pulling in numpy for the core library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence (average of middle pair when even)."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def log_buckets(max_value: int, base: int = 10, first_edge: int = 100) -> list[int]:
    """Logarithmic bucket edges ``[first_edge, first_edge*base, ...]``.

    The paper buckets Alexa ranks logarithmically; with the defaults this
    yields edges 100, 1K, 10K, 100K, ... up to (and covering) *max_value*.
    The returned edges are upper bounds: bucket *i* holds values in
    ``(edges[i-1], edges[i]]`` and bucket 0 holds ``[1, edges[0]]``.
    """
    if max_value <= 0:
        raise ValueError("max_value must be positive")
    if base < 2:
        raise ValueError("base must be at least 2")
    if first_edge < 1:
        raise ValueError("first_edge must be at least 1")
    edges = [first_edge]
    while edges[-1] < max_value:
        edges.append(edges[-1] * base)
    return edges


def bucket_index(value: int, edges: Sequence[int],
                 clamp: bool = False) -> int:
    """Index of the log bucket containing *value*.

    A value above the last edge is an *error* by default: silently folding
    it into the last bucket would misreport the distribution's tail (the
    last bucket would quietly absorb out-of-range mass).  Callers that
    genuinely want open-ended top buckets opt in with ``clamp=True``.
    """
    if value < 1:
        raise ValueError("value must be at least 1")
    if not edges:
        raise ValueError("edges must be non-empty")
    for index, edge in enumerate(edges):
        if value <= edge:
            return index
    if clamp:
        return len(edges) - 1
    raise ValueError(
        f"value {value} exceeds the last bucket edge {edges[-1]}")


def histogram(values: Iterable[int], edges: Sequence[int],
              clamp: bool = False) -> list[int]:
    """Counts of *values* per log bucket defined by *edges*.

    Raises :class:`ValueError` on values above the last edge unless
    ``clamp=True`` folds them into the last bucket.
    """
    counts = [0] * len(edges)
    for value in values:
        counts[bucket_index(value, edges, clamp=clamp)] += 1
    return counts


@dataclass(frozen=True)
class Fraction2:
    """A ratio rendered as a two-decimal percentage — the papers' table unit.

    Keeps numerator/denominator so downstream code can re-aggregate, while
    ``str()`` gives the display form (``'57.00 %'``).  Immutable, so the
    memoised audit results that hold one can be shared.
    """

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator < 0 or self.numerator < 0:
            raise ValueError("counts must be non-negative")
        if self.numerator > self.denominator:
            raise ValueError("numerator cannot exceed denominator")

    @property
    def value(self) -> float:
        """The ratio as a float in [0, 1]; 0.0 when the denominator is 0."""
        if self.denominator == 0:
            return 0.0
        return self.numerator / self.denominator

    @property
    def pct(self) -> float:
        """The ratio as a percentage in [0, 100]."""
        return 100.0 * self.value

    def __str__(self) -> str:
        return f"{self.pct:.2f} %"

    def __repr__(self) -> str:
        return f"Fraction2({self.numerator}/{self.denominator} = {self})"
