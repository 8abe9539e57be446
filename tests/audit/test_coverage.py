"""Tests for repro.audit.coverage — measurement-loss accounting."""

import json
from dataclasses import dataclass

import pytest

from repro.audit.coverage import (
    LOSS_REASONS,
    CoverageCell,
    CoverageCounts,
    ExperimentCoverage,
    coverage_to_dict,
    coverage_to_json,
    render_coverage,
    validate_coverage_document,
)
from repro.beacon.client import DeliveryStatus
from repro.faults.quarantine import QuarantineEntry


@dataclass
class FakeDelivery:
    """Duck-typed stand-in for BeaconDelivery."""

    status: DeliveryStatus = DeliveryStatus.DELIVERED
    committed: bool = False
    duplicates: int = 0
    quarantined_frames: int = 0


def committed(duplicates=0):
    return FakeDelivery(committed=True, duplicates=duplicates)


class TestCoverageCell:
    def test_reconciliation_identity(self):
        cell = CoverageCell(delivered=10, observed=8, duplicates=2,
                            quarantined=1, lost_connect_failed=3)
        assert cell.unique == 6
        assert cell.lost == 3
        assert cell.reconciles

    def test_mismatch_detected(self):
        cell = CoverageCell(delivered=10, observed=5)
        assert not cell.reconciles

    def test_merge_sums_every_field(self):
        left = CoverageCell(delivered=3, observed=2, lost_dropped=1)
        left.merge(CoverageCell(delivered=4, observed=3,
                                lost_script_blocked=1))
        assert (left.delivered, left.observed) == (7, 5)
        assert left.lost == 2


class TestClassification:
    def test_committed_delivery_counts_observed_plus_duplicates(self):
        counts = CoverageCounts()
        counts.record_delivered("a.es", "C1")
        counts.record_delivery("a.es", "C1", committed(duplicates=2))
        cell = counts.cell("a.es", "C1")
        assert cell.observed == 3
        assert cell.duplicates == 2
        assert cell.unique == 1
        assert cell.reconciles

    def test_quarantined_delivery(self):
        counts = CoverageCounts()
        counts.record_delivered("a.es", "C1")
        counts.record_delivery("a.es", "C1",
                               FakeDelivery(quarantined_frames=2))
        cell = counts.cell("a.es", "C1")
        assert cell.quarantined == 1  # one impression, however many frames
        assert cell.reconciles

    @pytest.mark.parametrize("status,field", [
        (DeliveryStatus.CONNECT_FAILED, "lost_connect_failed"),
        (DeliveryStatus.DROPPED_MID_STREAM, "lost_dropped"),
        (DeliveryStatus.HANDSHAKE_FAILED, "lost_handshake_failed"),
        (DeliveryStatus.DELIVERED, "lost_no_hello"),
    ])
    def test_uncommitted_status_maps_to_loss_reason(self, status, field):
        counts = CoverageCounts()
        counts.record_delivered("a.es", "C1")
        counts.record_delivery("a.es", "C1", FakeDelivery(status=status))
        assert getattr(counts.cell("a.es", "C1"), field) == 1
        assert counts.reconciles

    def test_commitment_wins_over_quarantine(self):
        counts = CoverageCounts()
        counts.record_delivered("a.es", "C1")
        counts.record_delivery(
            "a.es", "C1",
            FakeDelivery(committed=True, quarantined_frames=1))
        cell = counts.cell("a.es", "C1")
        assert cell.observed == 1
        assert cell.quarantined == 0

    def test_record_lost_reasons(self):
        counts = CoverageCounts()
        for reason in LOSS_REASONS:
            counts.record_delivered("a.es", "C1")
            counts.record_lost("a.es", "C1", reason)
        cell = counts.cell("a.es", "C1")
        assert cell.lost == len(LOSS_REASONS)
        assert cell.reconciles
        with pytest.raises(ValueError, match="unknown loss reason"):
            counts.record_lost("a.es", "C1", "gremlins")


class TestAggregation:
    @staticmethod
    def populated():
        counts = CoverageCounts()
        for domain, campaign in (("a.es", "C1"), ("a.es", "C2"),
                                 ("b.es", "C1")):
            counts.record_delivered(domain, campaign)
            counts.record_delivery(domain, campaign, committed())
        counts.record_delivered("b.es", "C1")
        counts.record_lost("b.es", "C1", "connect_failed")
        return counts

    def test_by_campaign_and_publisher(self):
        counts = self.populated()
        campaigns = counts.by_campaign()
        assert campaigns["C1"].delivered == 3
        assert campaigns["C2"].delivered == 1
        publishers = counts.by_publisher()
        assert publishers["b.es"].lost == 1
        assert counts.totals().delivered == 4

    def test_absorb_merges_shards(self):
        merged = CoverageCounts()
        for shard in (self.populated(), self.populated()):
            merged.absorb(shard)
        assert merged.totals().delivered == 8
        assert merged.cell("b.es", "C1").lost_connect_failed == 2
        assert merged.reconciles


class TestRendering:
    @staticmethod
    def coverage():
        counts = TestAggregation.populated()
        entry = QuarantineEntry(connection_id=7, byte_offset=12,
                                reason="malformed", domain="a.es",
                                campaign_id="C1", shard="march/ES/0")
        return ExperimentCoverage(counts=counts, quarantine=(entry,),
                                  quarantine_dropped=3,
                                  lost_shards=("april/RU/1",))

    def test_render_contains_reconciliation_line(self):
        text = render_coverage(self.coverage())
        assert "Measurement coverage by campaign" in text
        assert ("Reconciliation: delivered 4 = observed 3 - duplicates 0 "
                "+ quarantined 0 + lost 1 -> OK") in text
        assert "1 frame(s) kept, 3 dropped past capacity" in text
        assert "Lost shards (crash recovery exhausted): april/RU/1" in text

    def test_loss_table_only_lists_lossy_publishers(self):
        text = render_coverage(self.coverage())
        assert "Highest measurement loss by publisher" in text
        loss_section = text.split("Highest measurement loss")[1]
        assert "b.es" in loss_section
        assert "a.es" not in loss_section.split("Reconciliation")[0]

    def test_mismatch_is_loud(self):
        counts = CoverageCounts()
        counts.record_delivered("a.es", "C1")  # never classified
        counts.cells[("a.es", "C1")].observed = 0
        counts.record_delivered("a.es", "C1")
        counts.record_delivery("a.es", "C1", committed())
        # delivered 2, observed 1 -> identity violated
        text = render_coverage(ExperimentCoverage(counts=counts))
        assert "MISMATCH" in text


class TestExport:
    def test_json_document_is_strict_and_validates(self):
        document = json.loads(coverage_to_json(TestRendering.coverage()))
        assert validate_coverage_document(document) == []
        assert document["totals"]["delivered"] == 4
        assert document["quarantine"][0]["shard"] == "march/ES/0"
        assert document["lost_shards"] == ["april/RU/1"]

    def test_validator_flags_broken_identity(self):
        document = coverage_to_dict(TestRendering.coverage())
        document["totals"]["delivered"] += 1
        problems = validate_coverage_document(document)
        assert any("totals" in problem for problem in problems)

    def test_validator_flags_missing_sections(self):
        assert validate_coverage_document({}) == \
            ["document has no totals object"]
        document = coverage_to_dict(TestRendering.coverage())
        document["by_campaign"]["C1"] = "oops"
        document["reconciles"] = False
        problems = validate_coverage_document(document)
        assert "by_campaign[C1] is not an object" in problems
        assert "document does not claim reconciliation" in problems
