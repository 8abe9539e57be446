"""Lightweight timing spans over explicit clocks.

A :class:`Timer` observes elapsed time into a fixed-edge histogram.  The
clock is always explicit:

* **Sim-domain timers** must be driven by the simulation's own clock
  (``SimClock.now`` or any other function of simulated state), with the
  histogram registered in the ``sim`` domain.  These are part of the
  determinism contract: a seeded run produces byte-identical sim-domain
  timings, serial or parallel.
* **Wall-domain timers** (:func:`wall_timer`) read
  ``time.perf_counter`` and measure the host machine.  They are
  excluded from the determinism contract by construction (they register
  in the ``wall`` domain) and exist for the ROADMAP's optimisation
  work: per-stage wall timings tell us where a run actually spends its
  time.

Never use ``time.time()``/``time.perf_counter()`` for a sim-domain
metric — that is the exact mistake the domain split makes impossible to
hide, because the instrument's domain is fixed at registration.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from repro.obs.metrics import WALL, Histogram, MetricsRegistry

#: Default span edges for wall-clock stage timings (seconds): 1 µs – 10 s.
WALL_TIME_EDGES: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


class Timer:
    """Observes elapsed ``clock()`` time into a histogram.

    >>> registry = MetricsRegistry()
    >>> ticks = iter([0.0, 2.5])
    >>> timer = Timer(registry.histogram("demo.seconds", (1.0, 5.0)),
    ...               clock=lambda: next(ticks))
    >>> with timer.measure():
    ...     pass
    >>> registry.snapshot().histogram_named("demo.seconds").sum
    2.5
    """

    __slots__ = ("histogram", "clock")

    def __init__(self, histogram: Histogram,
                 clock: Callable[[], float]) -> None:
        self.histogram = histogram
        self.clock = clock

    def measure(self) -> "_Span":
        """Context manager recording one span."""
        return _Span(self)

    def observe(self, seconds: float) -> None:
        """Record an externally measured duration."""
        self.histogram.observe(seconds)


class _Span:
    __slots__ = ("_timer", "_start")

    def __init__(self, timer: Timer) -> None:
        self._timer = timer
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = self._timer.clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._timer.histogram.observe(self._timer.clock() - self._start)


def wall_timer(registry: MetricsRegistry, name: str,
               edges: Sequence[float] = WALL_TIME_EDGES) -> Timer:
    """A host-machine timer; registers in the ``wall`` domain."""
    return Timer(registry.histogram(name, edges, domain=WALL),
                 clock=time.perf_counter)
