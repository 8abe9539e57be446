"""Deterministic metrics: counters, gauges, fixed-edge histograms.

The pipeline's own measurement layer.  The paper's contribution is an
*independent count* that can be reconciled against the vendor's report;
this module gives our collector/auction/audit pipeline the same property
— every stage counts what it did, and a dropped frame or a silently
clamped bucket shows up as a counter instead of a silent table
divergence.

Two hard rules keep the metrics as reproducible as the experiment
itself:

* **Domain separation.**  Every instrument lives in one of two domains:
  ``sim`` (facts about the simulated world — frames decoded, bids
  evaluated, spend) or ``wall`` (facts about the host machine — decode
  wall time).  Sim-domain metrics are a pure function of (config, seed)
  and are byte-identical between serial and parallel runs; wall-domain
  metrics are explicitly excluded from that contract.  Nothing in the
  sim domain may ever read ``time.time()`` or ``time.perf_counter()``.

* **Canonical merge.**  A :class:`MetricsSnapshot` is an immutable,
  name-sorted projection of a registry, and :func:`merge_snapshots`
  folds any number of them with commutative reductions (sum for
  counters and histograms, max for gauges) — exactly the contract
  :func:`repro.adnetwork.reporting.merge_aggregates` follows, so the
  shard merge produces identical metrics however the shards were
  scheduled.

No dependencies beyond the standard library, and none on the rest of
``repro`` — every other package may import ``repro.obs``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

#: The two metric domains (see module docstring).
SIM = "sim"
WALL = "wall"
_DOMAINS = (SIM, WALL)


class MetricsError(ValueError):
    """Inconsistent instrument registration or snapshot merge."""


def _check_name(name: str) -> None:
    if not name or any(ch.isspace() for ch in name):
        raise MetricsError(f"metric names must be non-empty and "
                           f"whitespace-free: {name!r}")


def _check_domain(domain: str) -> None:
    if domain not in _DOMAINS:
        raise MetricsError(f"domain must be one of {_DOMAINS}: {domain!r}")


class Counter:
    """A monotonically increasing count (int or float, e.g. EUR spend)."""

    __slots__ = ("name", "domain", "value")

    def __init__(self, name: str, domain: str = SIM) -> None:
        self.name = name
        self.domain = domain
        self.value: float = 0

    def inc(self, amount: "int | float" = 1) -> None:
        if amount < 0:
            raise MetricsError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """A point-in-time value; merges as the maximum across snapshots."""

    __slots__ = ("name", "domain", "value")

    def __init__(self, name: str, domain: str = SIM) -> None:
        self.name = name
        self.domain = domain
        self.value: float = 0.0

    def set(self, value: "int | float") -> None:
        self.value = value


class Histogram:
    """Fixed-edge histogram with an explicit overflow bucket.

    ``edges`` are inclusive upper bounds: bucket *i* holds values
    ``<= edges[i]`` (and above ``edges[i-1]``); values beyond the last
    edge land in the dedicated overflow bucket rather than being
    silently clamped.  Edges are fixed at registration so histograms
    from different shards are always mergeable bucket-for-bucket.
    """

    __slots__ = ("name", "domain", "edges", "counts", "overflow", "total",
                 "sum")

    def __init__(self, name: str, edges: Sequence[float],
                 domain: str = SIM) -> None:
        if not edges:
            raise MetricsError(f"histogram {name} needs at least one edge")
        ordered = tuple(float(edge) for edge in edges)
        if any(a >= b for a, b in zip(ordered, ordered[1:])):
            raise MetricsError(
                f"histogram {name} edges must be strictly increasing")
        self.name = name
        self.domain = domain
        self.edges = ordered
        self.counts = [0] * len(ordered)
        self.overflow = 0
        self.total = 0
        self.sum: float = 0.0

    def observe(self, value: "int | float") -> None:
        self.total += 1
        self.sum += value
        for index, edge in enumerate(self.edges):
            if value <= edge:
                self.counts[index] += 1
                return
        self.overflow += 1

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable, mergeable projection of one :class:`Histogram`."""

    name: str
    domain: str
    edges: tuple[float, ...]
    counts: tuple[int, ...]
    overflow: int
    total: int
    sum: float


@dataclass(frozen=True)
class MetricsSnapshot:
    """Name-sorted, immutable projection of a registry.

    Designed to cross a process boundary (plain frozen dataclasses of
    tuples) and to merge deterministically — the shard runners ship one
    per shard and the experiment merge folds them in canonical plan
    order, mirroring ``ReportAggregate``.
    """

    counters: tuple[tuple[str, str, float], ...] = ()
    gauges: tuple[tuple[str, str, float], ...] = ()
    histograms: tuple[HistogramSnapshot, ...] = ()

    def restrict(self, domain: str) -> "MetricsSnapshot":
        """The snapshot limited to one domain's instruments."""
        _check_domain(domain)
        return MetricsSnapshot(
            counters=tuple(entry for entry in self.counters
                           if entry[1] == domain),
            gauges=tuple(entry for entry in self.gauges
                         if entry[1] == domain),
            histograms=tuple(entry for entry in self.histograms
                             if entry.domain == domain),
        )

    def sim_only(self) -> "MetricsSnapshot":
        """The deterministic half: identical for serial/parallel runs."""
        return self.restrict(SIM)

    def counter_value(self, name: str) -> float:
        """Value of one counter (0 when the counter never registered)."""
        for entry_name, _, value in self.counters:
            if entry_name == name:
                return value
        return 0

    def gauge_value(self, name: str) -> float:
        for entry_name, _, value in self.gauges:
            if entry_name == name:
                return value
        return 0.0

    def histogram_named(self, name: str) -> Optional[HistogramSnapshot]:
        for histogram in self.histograms:
            if histogram.name == name:
                return histogram
        return None

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """Strict-JSON-safe dictionary, grouped by domain.

        Non-finite values are emitted as ``None`` — the export contract
        of the whole repository is that no JSON artifact ever contains a
        bare ``Infinity``/``NaN`` token.
        """
        out: dict = {SIM: _domain_dict(), WALL: _domain_dict()}
        for name, domain, value in self.counters:
            out[domain]["counters"][name] = _finite(value)
        for name, domain, value in self.gauges:
            out[domain]["gauges"][name] = _finite(value)
        for histogram in self.histograms:
            out[histogram.domain]["histograms"][histogram.name] = {
                "edges": [_finite(edge) for edge in histogram.edges],
                "counts": list(histogram.counts),
                "overflow": histogram.overflow,
                "total": histogram.total,
                "sum": _finite(histogram.sum),
            }
        return out

    def to_json(self, indent: int = 2) -> str:
        """Strict JSON rendering (raises rather than emit Infinity/NaN)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          allow_nan=False)


def _domain_dict() -> dict:
    return {"counters": {}, "gauges": {}, "histograms": {}}


def _finite(value: float) -> Optional[float]:
    """JSON-safe number: None for inf/-inf/nan, the value otherwise."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class MetricsRegistry:
    """Factory and container for a pipeline stage's instruments.

    One registry per shard (and one per standalone component that is not
    handed a shared one): components call :meth:`counter` /
    :meth:`gauge` / :meth:`histogram` at construction, which create-or-
    return the named instrument — two components naming the same metric
    share the instrument, mismatched re-registrations raise.  A name is
    validated when it is first registered; a lookup of an existing
    instrument skips the check.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- registration -------------------------------------------------- #

    def counter(self, name: str, domain: str = SIM) -> Counter:
        _check_domain(domain)
        existing = self._counters.get(name)
        if existing is not None:
            if existing.domain != domain:
                raise MetricsError(
                    f"counter {name} re-registered in domain {domain!r} "
                    f"(was {existing.domain!r})")
            return existing
        _check_name(name)
        self._claim(name)
        instrument = Counter(name, domain=domain)
        self._counters[name] = instrument
        return instrument

    def gauge(self, name: str, domain: str = SIM) -> Gauge:
        _check_domain(domain)
        existing = self._gauges.get(name)
        if existing is not None:
            if existing.domain != domain:
                raise MetricsError(
                    f"gauge {name} re-registered in domain {domain!r} "
                    f"(was {existing.domain!r})")
            return existing
        _check_name(name)
        self._claim(name)
        instrument = Gauge(name, domain=domain)
        self._gauges[name] = instrument
        return instrument

    def histogram(self, name: str, edges: Sequence[float],
                  domain: str = SIM) -> Histogram:
        _check_domain(domain)
        existing = self._histograms.get(name)
        if existing is not None:
            if existing.domain != domain \
                    or existing.edges != tuple(float(e) for e in edges):
                raise MetricsError(
                    f"histogram {name} re-registered with different "
                    f"edges/domain")
            return existing
        _check_name(name)
        self._claim(name)
        instrument = Histogram(name, edges, domain=domain)
        self._histograms[name] = instrument
        return instrument

    def _claim(self, name: str) -> None:
        if name in self._counters or name in self._gauges \
                or name in self._histograms:
            raise MetricsError(
                f"metric name {name} already registered as another kind")

    # -- projection ---------------------------------------------------- #

    def snapshot(self) -> MetricsSnapshot:
        """Immutable name-sorted projection of the current values."""
        return MetricsSnapshot(
            counters=tuple((c.name, c.domain, c.value)
                           for c in sorted(self._counters.values(),
                                           key=lambda c: c.name)),
            gauges=tuple((g.name, g.domain, g.value)
                         for g in sorted(self._gauges.values(),
                                         key=lambda g: g.name)),
            histograms=tuple(
                HistogramSnapshot(
                    name=h.name, domain=h.domain, edges=h.edges,
                    counts=tuple(h.counts), overflow=h.overflow,
                    total=h.total, sum=h.sum)
                for h in sorted(self._histograms.values(),
                                key=lambda h: h.name)),
        )

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        """Fold a snapshot's values into this registry's instruments.

        Creates missing instruments on the fly; merge rules match
        :func:`merge_snapshots` (sum / max / bucket-wise sum).
        """
        for name, domain, value in snapshot.counters:
            self.counter(name, domain=domain).inc(value)
        for name, domain, value in snapshot.gauges:
            gauge = self.gauge(name, domain=domain)
            gauge.set(max(gauge.value, value))
        for incoming in snapshot.histograms:
            histogram = self.histogram(incoming.name, incoming.edges,
                                       domain=incoming.domain)
            for index, count in enumerate(incoming.counts):
                histogram.counts[index] += count
            histogram.overflow += incoming.overflow
            histogram.total += incoming.total
            histogram.sum += incoming.sum


def merge_snapshots(snapshots: Iterable[MetricsSnapshot]) -> MetricsSnapshot:
    """Fold snapshots into one, in the iteration order given.

    Counters and histogram buckets sum, gauges take the maximum, and the
    result is name-sorted — so for a fixed input order (the canonical
    shard plan order) the merge is byte-deterministic, and because every
    reduction is commutative it is in fact order-independent for
    everything except float rounding of sums (which the canonical order
    pins down).
    """
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.absorb(snapshot)
    return registry.snapshot()
