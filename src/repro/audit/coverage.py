"""Measurement-loss accounting for the audit pipeline.

The paper's methodology only sees impressions whose beacon report reached
the collector; everything else is a blind spot.  This module makes the
blind spot *auditable*: every ground-truth delivery is classified into
exactly one bucket — observed (committed at the collector), quarantined
(connection survived but every report frame was rejected), or lost (with
the failure reason) — and the buckets must reconcile exactly:

    delivered == (observed - duplicates) + quarantined + lost

where *observed* counts collector commits **plus** nonce-deduplicated
re-deliveries, so subtracting *duplicates* recovers unique impressions.
The identity is checked per (publisher, campaign) cell, per campaign, per
publisher and in total; a cell that fails it is a bug in the accounting,
never a rounding artefact — everything here is integer arithmetic.

Coverage is tracked unconditionally (it costs two dict lookups per
delivery and touches neither RNG streams nor metrics), so fault-free runs
report a clean 100 %-minus-baseline-loss ledger and faulted runs show
exactly what the fault plan cost the measurement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Mapping

from repro.faults.quarantine import QuarantineEntry
from repro.util.tables import render_table

#: Loss reasons, in reporting order.  ``script_blocked`` is the paper's
#: own §3.1 blind spot (publisher/browser blocked the beacon script);
#: the rest are transport/collector failures.
LOSS_REASONS = ("script_blocked", "connect_failed", "dropped",
                "handshake_failed", "no_hello")

_REASON_FIELD = {reason: f"lost_{reason}" for reason in LOSS_REASONS}


@dataclass
class CoverageCell:
    """Delivery accounting for one (publisher, campaign) pair."""

    delivered: int = 0
    #: Collector commits, including nonce-deduplicated re-deliveries.
    observed: int = 0
    duplicates: int = 0
    quarantined: int = 0
    lost_script_blocked: int = 0
    lost_connect_failed: int = 0
    lost_dropped: int = 0
    lost_handshake_failed: int = 0
    lost_no_hello: int = 0

    @property
    def unique(self) -> int:
        """Distinct impressions the collector committed."""
        return self.observed - self.duplicates

    @property
    def lost(self) -> int:
        return (self.lost_script_blocked + self.lost_connect_failed
                + self.lost_dropped + self.lost_handshake_failed
                + self.lost_no_hello)

    @property
    def reconciles(self) -> bool:
        """The accounting identity every cell must satisfy."""
        return self.delivered == self.unique + self.quarantined + self.lost

    def merge(self, other: "CoverageCell") -> None:
        for name in _CELL_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))


_CELL_FIELDS = tuple(spec.name for spec in fields(CoverageCell))


class CoverageCounts:
    """Per-(publisher domain, campaign id) coverage cells.

    Mergeable across shards: :meth:`absorb` folds another instance in
    cell-by-cell, and all aggregation (:meth:`by_campaign`,
    :meth:`by_publisher`, :meth:`totals`) walks cells in sorted key order
    so serial and parallel merges render identically.
    """

    def __init__(self) -> None:
        self.cells: dict[tuple[str, str], CoverageCell] = {}

    def __eq__(self, other: object) -> bool:
        # Value equality (cell-for-cell) so a counts instance that
        # crossed a process boundary compares equal to its source.
        if not isinstance(other, CoverageCounts):
            return NotImplemented
        return self.cells == other.cells

    def cell(self, domain: str, campaign_id: str) -> CoverageCell:
        key = (domain, campaign_id)
        found = self.cells.get(key)
        if found is None:
            found = self.cells[key] = CoverageCell()
        return found

    def record_delivered(self, domain: str, campaign_id: str) -> None:
        """Count one ground-truth delivery (before beacon execution)."""
        self.cell(domain, campaign_id).delivered += 1

    def record_lost(self, domain: str, campaign_id: str,
                    reason: str) -> None:
        """Classify one delivery as lost to *reason*."""
        cell = self.cell(domain, campaign_id)
        try:
            name = _REASON_FIELD[reason]
        except KeyError:
            raise ValueError(f"unknown loss reason: {reason!r}") from None
        setattr(cell, name, getattr(cell, name) + 1)

    def record_delivery(self, domain: str, campaign_id: str,
                        delivery) -> None:
        """Classify one completed beacon delivery attempt chain.

        *delivery* is a :class:`~repro.beacon.client.BeaconDelivery` (duck
        typed: ``committed``/``duplicates``/``quarantined_frames``/
        ``status`` attributes).  Exactly one bucket is charged:
        commitment wins over quarantine wins over the final status.
        """
        cell = self.cell(domain, campaign_id)
        if delivery.committed:
            cell.observed += 1 + delivery.duplicates
            cell.duplicates += delivery.duplicates
            return
        if delivery.quarantined_frames > 0:
            cell.quarantined += 1
            return
        status = delivery.status.value
        if status == "connect_failed":
            cell.lost_connect_failed += 1
        elif status == "dropped":
            cell.lost_dropped += 1
        elif status == "handshake_failed":
            cell.lost_handshake_failed += 1
        else:
            # A DELIVERED connection that never committed: the collector
            # closed the session without a (valid) HELLO.
            cell.lost_no_hello += 1

    def absorb(self, other: "CoverageCounts") -> None:
        """Fold another shard's cells into this one."""
        for key, cell in other.cells.items():
            mine = self.cells.get(key)
            if mine is None:
                self.cells[key] = replace(cell)
            else:
                mine.merge(cell)

    def _aggregate(self, key_of) -> dict[str, CoverageCell]:
        grouped: dict[str, CoverageCell] = {}
        for key in sorted(self.cells):
            cell = self.cells[key]
            bucket = grouped.setdefault(key_of(key), CoverageCell())
            bucket.merge(cell)
        return grouped

    def by_campaign(self) -> dict[str, CoverageCell]:
        """Campaign id → aggregated cell, in sorted campaign order."""
        return self._aggregate(lambda key: key[1])

    def by_publisher(self) -> dict[str, CoverageCell]:
        """Publisher domain → aggregated cell, in sorted domain order."""
        return self._aggregate(lambda key: key[0])

    def totals(self) -> CoverageCell:
        total = CoverageCell()
        for key in sorted(self.cells):
            total.merge(self.cells[key])
        return total

    @property
    def reconciles(self) -> bool:
        """Does every cell satisfy the accounting identity?"""
        return all(cell.reconciles for cell in self.cells.values())


@dataclass
class ExperimentCoverage:
    """The experiment-wide measurement-loss report."""

    counts: CoverageCounts = field(default_factory=CoverageCounts)
    #: Quarantined-frame forensics (bounded), shard scope stamped in.
    quarantine: tuple[QuarantineEntry, ...] = ()
    #: Quarantine entries discarded once the bounded log filled up.
    quarantine_dropped: int = 0
    #: Scopes of shards whose execution was abandoned after exhausting
    #: crash-recovery retries; their deliveries are absent from *counts*.
    lost_shards: tuple[str, ...] = ()


def _cell_row(label: str, cell: CoverageCell) -> list[object]:
    rate = (f"{cell.unique / cell.delivered:.1%}"
            if cell.delivered else "n/a")
    return [label, cell.delivered, cell.unique, cell.duplicates,
            cell.quarantined, cell.lost, rate]


_HEADERS = ["", "delivered", "observed", "dedup", "quarantined",
            "lost", "coverage"]


def render_coverage(coverage: ExperimentCoverage,
                    top_publishers: int = 10) -> str:
    """Render the measurement-loss ledger as diff-able ASCII tables.

    *observed* in the rendered table is the **unique** record count (the
    dataset rows an auditor actually has); dedup-rejected re-deliveries
    get their own column.
    """
    counts = coverage.counts
    lines: list[str] = []
    by_campaign = counts.by_campaign()
    rows = [_cell_row(campaign, cell)
            for campaign, cell in by_campaign.items()]
    rows.append(_cell_row("TOTAL", counts.totals()))
    lines.append(render_table(
        _HEADERS, rows, title="Measurement coverage by campaign",
        right_align=range(1, len(_HEADERS))))

    by_publisher = counts.by_publisher()
    worst = sorted(
        by_publisher.items(),
        key=lambda item: (-(item[1].lost + item[1].quarantined), item[0]))
    head = [pair for pair in worst[:top_publishers]
            if pair[1].lost + pair[1].quarantined > 0]
    if head:
        lines.append("")
        lines.append(render_table(
            _HEADERS,
            [_cell_row(domain, cell) for domain, cell in head],
            title=f"Highest measurement loss by publisher (top {len(head)})",
            right_align=range(1, len(_HEADERS))))

    total = counts.totals()
    lines.append("")
    lines.append(
        f"Reconciliation: delivered {total.delivered} = observed "
        f"{total.observed} - duplicates {total.duplicates} + quarantined "
        f"{total.quarantined} + lost {total.lost} -> "
        f"{'OK' if counts.reconciles else 'MISMATCH'}")
    if coverage.quarantine or coverage.quarantine_dropped:
        kept = len(coverage.quarantine)
        lines.append(
            f"Quarantine log: {kept} frame(s) kept"
            + (f", {coverage.quarantine_dropped} dropped past capacity"
               if coverage.quarantine_dropped else ""))
    if coverage.lost_shards:
        lines.append("Lost shards (crash recovery exhausted): "
                     + ", ".join(coverage.lost_shards))
    return "\n".join(lines)


def _cell_dict(cell: CoverageCell) -> dict[str, int]:
    data = {name: getattr(cell, name) for name in _CELL_FIELDS}
    data["unique"] = cell.unique
    data["lost"] = cell.lost
    data["reconciles"] = cell.reconciles
    return data


def coverage_to_dict(coverage: ExperimentCoverage) -> dict:
    """JSON-safe document: totals, per-campaign, per-publisher, forensics."""
    counts = coverage.counts
    return {
        "totals": _cell_dict(counts.totals()),
        "by_campaign": {campaign: _cell_dict(cell)
                        for campaign, cell in counts.by_campaign().items()},
        "by_publisher": {domain: _cell_dict(cell)
                         for domain, cell in counts.by_publisher().items()},
        "reconciles": counts.reconciles,
        "quarantine": [
            {"connection_id": entry.connection_id,
             "byte_offset": entry.byte_offset,
             "reason": entry.reason,
             "domain": entry.domain,
             "campaign_id": entry.campaign_id,
             "shard": entry.shard}
            for entry in coverage.quarantine],
        "quarantine_dropped": coverage.quarantine_dropped,
        "lost_shards": list(coverage.lost_shards),
    }


def coverage_to_json(coverage: ExperimentCoverage) -> str:
    """Strict-JSON rendering (sorted keys, no NaN) of the coverage doc."""
    return json.dumps(coverage_to_dict(coverage), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def validate_coverage_document(document: Mapping) -> list[str]:
    """Sanity-check an exported coverage document; returns problem list.

    Used by the CI smoke job: verifies the reconciliation identity on the
    totals and every per-campaign / per-publisher aggregate.
    """
    problems: list[str] = []

    def check(label: str, cell: Mapping) -> None:
        required = ("delivered", "observed", "duplicates", "quarantined",
                    "lost", "unique")
        for name in required:
            if not isinstance(cell.get(name), int):
                problems.append(f"{label}: missing integer field {name!r}")
                return
        if cell["unique"] != cell["observed"] - cell["duplicates"]:
            problems.append(f"{label}: unique != observed - duplicates")
        if cell["delivered"] != (cell["unique"] + cell["quarantined"]
                                 + cell["lost"]):
            problems.append(
                f"{label}: delivered {cell['delivered']} != unique "
                f"{cell['unique']} + quarantined {cell['quarantined']} "
                f"+ lost {cell['lost']}")

    totals = document.get("totals")
    if not isinstance(totals, Mapping):
        return ["document has no totals object"]
    check("totals", totals)
    for section in ("by_campaign", "by_publisher"):
        group = document.get(section, {})
        if not isinstance(group, Mapping):
            problems.append(f"{section} is not an object")
            continue
        for label, cell in group.items():
            if isinstance(cell, Mapping):
                check(f"{section}[{label}]", cell)
            else:
                problems.append(f"{section}[{label}] is not an object")
    if document.get("reconciles") is not True:
        problems.append("document does not claim reconciliation")
    return problems
