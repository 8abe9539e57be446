"""Seeded fault injection: the imperative half of the fault subsystem.

A :class:`FaultInjector` carries one shard's fault RNG stream
(``faults/{period}/{country}/{slice}``) and draws the dice a
:class:`~repro.faults.plan.FaultPlan` declares.  The transport, collector
and beacon client share the shard's injector and ask it about their own
stages; a connection's frame path calls only :meth:`FaultInjector.mangle`.

Determinism rules, in order of importance:

* Under the ``none`` plan the injector **never draws** from any RNG and
  never touches the metrics registry — runs without faults stay
  byte-identical to a build without the subsystem.
* A (stage, kind) with zero configured probability never draws either:
  enabling fault A cannot perturb the dice of fault B.
* Fault counters (``fault.{stage}.{kind}``) are created lazily on first
  fire, so a plan that never fires adds nothing to the metrics export.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.faults.plan import FaultPlan
from repro.obs.events import NULL_EVENTS, EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer


class FaultInjector:
    """Draws (and accounts for) the faults one shard's plan schedules."""

    def __init__(self, plan: FaultPlan, rng: Optional[random.Random] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Tracer | None = None,
                 events: EventLog | None = None) -> None:
        if plan.injects and rng is None:
            raise ValueError("an injecting fault plan needs an rng stream")
        self.plan = plan
        self.rng = rng
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.events = events if events is not None else NULL_EVENTS
        self._probability = {(spec.stage, spec.kind): spec.probability
                             for spec in plan.specs}
        self._param = {(spec.stage, spec.kind): spec.param
                       for spec in plan.specs}

    @property
    def active(self) -> bool:
        return self.plan.active

    # -- dice ----------------------------------------------------------- #

    def fires(self, stage: str, kind: str) -> bool:
        """Roll for one fault; counts and traces a hit.

        Never draws when the (stage, kind) probability is zero — absent
        faults cost no randomness, so adding one fault to a plan cannot
        reshuffle another's schedule.
        """
        probability = self._probability.get((stage, kind), 0.0)
        if probability <= 0.0:
            return False
        if self.rng.random() >= probability:
            return False
        self.count(f"fault.{stage}.{kind}")
        self.tracer.event("fault.injected", at=self.tracer.now,
                          stage=stage, kind=kind)
        self.events.emit("fault.injected", at=self.tracer.now,
                         stage=stage, kind=kind)
        return True

    def param(self, stage: str, kind: str, default: float = 0.0) -> float:
        return self._param.get((stage, kind), default)

    def jitter(self, amount: float) -> float:
        """A deterministic jitter draw in ``[0, amount)`` (0 when inactive)."""
        if amount <= 0.0 or self.rng is None:
            return 0.0
        return amount * self.rng.random()

    # -- accounting ----------------------------------------------------- #

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a lazily-created fault counter (no-op without a registry)."""
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    # -- frame stage ---------------------------------------------------- #

    def mangle(self, data: bytes) -> tuple[bytes, str]:
        """Apply frame-stage corruption to outbound wire bytes.

        Returns ``(possibly mutated bytes, fault kind or "")``.  Both
        rolls happen on every call (in spec order) so the draw sequence
        is a function of the plan alone, not of earlier outcomes.
        """
        truncate = self.fires("frame", "truncate")
        bit_flip = self.fires("frame", "bit_flip")
        if truncate and len(data) > 1:
            keep = self.rng.randrange(1, len(data))
            self.count("fault.frame.truncated_bytes", len(data) - keep)
            return data[:keep], "truncate"
        if bit_flip and data:
            index = self.rng.randrange(len(data))
            bit = 1 << self.rng.randrange(8)
            mutated = bytearray(data)
            mutated[index] ^= bit
            return bytes(mutated), "bit_flip"
        return data, ""


#: The shared inactive injector: plan ``none``, no RNG, no registry.
#: Every hook on it is a guaranteed no-op, so components default to it.
NULL_INJECTOR = FaultInjector(FaultPlan())
