"""Per-stage memory watermarks: RSS deltas and tracemalloc peaks.

ROADMAP item 2 (the columnar data layer) needs evidence about *where* a
run's memory goes — world build, shard simulation, the merge fold, the
enrichment pass, the audits.  This module measures exactly that: a
:class:`MemoryWatch` wraps each stage in a context manager that samples
the process RSS before and after (and, when tracing is enabled, the
tracemalloc peak inside), and records the results as **wall-domain
gauges** named ``mem.{stage}.{field}``.

Riding the existing metrics layer is the whole design: gauges merge as
the maximum across snapshots, which is precisely watermark semantics —
the per-shard ``simulate`` stage travels inside each
:class:`~repro.experiments.runner.ShardOutput` metrics snapshot and the
canonical merge yields the worst shard's numbers, with zero new wire
plumbing.  Being wall-domain, the gauges are excluded from the
serial-vs-parallel equivalence contract like every other host fact.

RSS is read from ``/proc/self/statm`` (cheap, Linux); on hosts without
it the watch degrades to zeros rather than failing.  tracemalloc costs
roughly 2x on allocation-heavy code, so it is off by default and opted
into via the ``REPRO_TRACEMALLOC`` environment variable (inherited by
forked pool workers) or an explicit constructor flag.

Standard library only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

#: Environment flag enabling tracemalloc peaks ("1"/"true"/"yes"/"on").
TRACEMALLOC_ENV = "REPRO_TRACEMALLOC"

#: Gauge name prefix; consumers (the run report) rebuild the per-stage
#: table by parsing ``mem.{stage}.{field}`` back apart.
GAUGE_PREFIX = "mem"

_PAGE_SIZE = 4096
try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (ValueError, OSError, AttributeError):  # non-POSIX host
    pass


def tracemalloc_enabled_from_env() -> bool:
    """Whether the environment opts this process into tracemalloc peaks."""
    return os.environ.get(TRACEMALLOC_ENV, "").strip().lower() \
        in ("1", "true", "yes", "on")


def current_rss_bytes() -> int:
    """This process's resident set right now, in bytes (0 if unknown)."""
    try:
        with open("/proc/self/statm", "rb") as statm:
            return int(statm.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return 0


@dataclass
class StageStats:
    """Accumulated memory accounting for one named stage."""

    #: Times the stage ran (the merge fold runs once per shard).
    spans: int = 0
    #: Largest RSS observed at any stage exit.
    rss_peak_bytes: int = 0
    #: Sum of per-span RSS growth (may be negative after a collection).
    rss_delta_bytes: int = 0
    #: Largest tracemalloc peak inside any span (0 when tracing is off).
    tracemalloc_peak_bytes: int = 0


class MemoryWatch:
    """Measures per-stage memory watermarks and records them as gauges.

    ``registry`` (optional) receives the gauges after every span, so a
    watch constructed with the shard's registry feeds the shard snapshot
    with no extra call; a registry-less watch accumulates and is flushed
    later with :meth:`record_to` (the merger does this at finalisation).
    """

    def __init__(self, registry=None,
                 trace: Optional[bool] = None) -> None:
        self.registry = registry
        self.trace = tracemalloc_enabled_from_env() if trace is None \
            else trace
        self._stages: dict[str, StageStats] = {}

    @contextmanager
    def stage(self, name: str):
        """Measure one stage span; safe to re-enter (stats accumulate)."""
        rss_before = current_rss_bytes()
        started_tracing = False
        if self.trace:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                started_tracing = True
            tracemalloc.reset_peak()
        try:
            yield
        finally:
            traced_peak = 0
            if self.trace:
                import tracemalloc

                traced_peak = tracemalloc.get_traced_memory()[1]
                if started_tracing:
                    tracemalloc.stop()
            rss_after = current_rss_bytes()
            stats = self._stages.setdefault(name, StageStats())
            stats.spans += 1
            stats.rss_peak_bytes = max(stats.rss_peak_bytes, rss_after,
                                       rss_before)
            stats.rss_delta_bytes += rss_after - rss_before
            stats.tracemalloc_peak_bytes = max(stats.tracemalloc_peak_bytes,
                                               traced_peak)
            if self.registry is not None:
                self._record_stage(self.registry, name, stats)

    def stages(self) -> dict[str, StageStats]:
        """The accumulated per-stage stats (insertion-ordered)."""
        return dict(self._stages)

    def record_to(self, registry) -> None:
        """Write every accumulated stage's gauges into *registry*."""
        for name, stats in self._stages.items():
            self._record_stage(registry, name, stats)

    @staticmethod
    def _record_stage(registry, name: str, stats: StageStats) -> None:
        from repro.obs.metrics import WALL

        for suffix, value in (
                ("spans", stats.spans),
                ("rss_peak_bytes", stats.rss_peak_bytes),
                ("rss_delta_bytes", stats.rss_delta_bytes),
                ("tracemalloc_peak_bytes", stats.tracemalloc_peak_bytes)):
            registry.gauge(f"{GAUGE_PREFIX}.{name}.{suffix}",
                           domain=WALL).set(value)


def memory_watermarks(metrics) -> dict:
    """Rebuild the per-stage watermark table from a metrics snapshot.

    The inverse of :meth:`MemoryWatch.record_to`: collects every
    wall-domain ``mem.{stage}.{field}`` gauge into
    ``{stage: {field: value}}``.  Used by the run report.
    """
    from repro.obs.metrics import WALL

    stages: dict[str, dict[str, float]] = {}
    prefix = GAUGE_PREFIX + "."
    for name, domain, value in metrics.gauges:
        if domain != WALL or not name.startswith(prefix):
            continue
        _, stage, field = name.split(".", 2)
        stages.setdefault(stage, {})[field] = value
    return stages
