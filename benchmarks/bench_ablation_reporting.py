"""Ablation A1 — vendor placement policy: viewable-only vs all-delivered.

The paper argues the missing publishers of Figure 1 come from AdWords
reporting only *viewable* impressions in its placement report.  This
ablation sets the vendor's viewable-only placements against full
disclosure (every named publisher that received a delivery, read from the
run's ground-truth coverage ledger) and measures how much of the
publisher gap the disclosure policy explains (the rest is anonymous
inventory).
"""

from repro.audit.brand_safety import VennCounts
from repro.util.tables import render_table


def _viewable_only(result) -> set[str]:
    """Named publishers in the vendor's own (viewable-only) reports."""
    reports = result.dataset.vendor_reports
    vendor: set[str] = set()
    for campaign_id in result.dataset.campaign_ids:
        vendor |= reports[campaign_id].reported_publishers
    return vendor


def _all_delivered(result) -> set[str]:
    """Named publishers of every delivery, from the coverage ledger."""
    campaigns = set(result.dataset.campaign_ids)
    directory = result.dataset.directory
    return {domain for (domain, campaign_id), cell
            in result.coverage.counts.cells.items()
            if cell.delivered > 0 and campaign_id in campaigns
            and not directory[domain].is_anonymous}


def _venn(result, vendor_publishers) -> VennCounts:
    vendor = vendor_publishers(result)
    audit = result.dataset.audit_publishers()
    return VennCounts(audit_only=len(audit - vendor),
                      both=len(audit & vendor),
                      vendor_only=len(vendor - audit))


def test_ablation_reporting_policy(benchmark, paper_result, bench_output):
    viewable_only = benchmark(_venn, paper_result, _viewable_only)
    full_disclosure = _venn(paper_result, _all_delivered)

    rows = [
        ["viewable-only placements", viewable_only.audit_only,
         str(viewable_only.unreported_by_vendor)],
        ["all delivered placements", full_disclosure.audit_only,
         str(full_disclosure.unreported_by_vendor)],
    ]
    text = render_table(
        ["Vendor policy", "Publishers unreported", "Fraction unreported"],
        rows, title="Ablation A1: placement disclosure policy")
    bench_output("ablation_reporting.txt", text)
    print("\n" + text)

    # Disclosing every delivered placement closes most of the gap; what is
    # left is the anonymous-exchange inventory.
    assert full_disclosure.audit_only < viewable_only.audit_only * 0.6
    assert viewable_only.unreported_by_vendor.pct > 30.0
