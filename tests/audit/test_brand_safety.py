"""Tests for repro.audit.brand_safety — the Figure 1 analysis."""

import pytest

from repro.audit.brand_safety import AnonymousBound, BrandSafetyAudit, VennCounts


class TestVennCounts:
    def test_derived_totals(self):
        venn = VennCounts(audit_only=4, both=3, vendor_only=1)
        assert venn.audit_total == 7
        assert venn.vendor_total == 4
        assert venn.union_total == 8

    def test_fractions(self):
        venn = VennCounts(audit_only=57, both=43, vendor_only=0)
        assert venn.unreported_by_vendor.pct == pytest.approx(57.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            VennCounts(-1, 0, 0)


class TestBrandSafetyAudit:
    def test_per_campaign_venn(self, dataset):
        audit = BrandSafetyAudit(dataset)
        venn = audit.venn("Football-010")
        # audit: futbolhead, laliga-tail, recetas; vendor: futbolhead, ghost.
        assert venn.audit_only == 2
        assert venn.both == 1
        assert venn.vendor_only == 1
        assert venn.unreported_by_vendor.pct == pytest.approx(200 / 3)

    def test_aggregate_venn(self, dataset):
        venn = BrandSafetyAudit(dataset).venn(None)
        assert venn.audit_only == 3      # laliga-tail, recetas, casino-x
        assert venn.both == 2            # futbolhead, ciencia
        assert venn.vendor_only == 1     # ghost

    def test_anonymous_bound_unexplained(self, dataset):
        audit = BrandSafetyAudit(dataset)
        bound = audit.anonymous_bound("Football-010")
        # 2 anonymous impressions cannot explain 2 unreported publishers...
        assert bound.anonymous_impressions == 2
        assert bound.unreported_publishers == 2
        assert bound.unexplained_publishers == 0   # ...actually they could.

    def test_anonymous_bound_not_explainable(self):
        bound = AnonymousBound(anonymous_impressions=425,
                               unreported_publishers=497)
        # The paper's General-005 argument: 72 publishers left unexplained.
        assert bound.unexplained_publishers == 72

    def test_undisclosed_unsafe_publishers(self, dataset):
        audit = BrandSafetyAudit(dataset)
        assert audit.undisclosed_unsafe_publishers() == ["casino-x.es"]
        assert audit.undisclosed_unsafe_publishers("Football-010") == []

    def test_blacklist_proposal(self, dataset):
        audit = BrandSafetyAudit(dataset)
        assert audit.blacklist_proposal() == ["casino-x.es"]
        assert audit.blacklist_proposal("Football-010") == []
