"""Machine-readable exports of the audit artifacts.

The rendered ASCII tables are for humans; downstream tooling (dashboards,
spreadsheets, alerting) wants the same facts as JSON or CSV.  Everything
here is a pure projection of the audit results — no new analysis.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any

from repro.audit.report import FullAuditReport


def _finite(value: float, digits: int | None = None) -> float | None:
    """A float fit for strict JSON: non-finite values become ``None``.

    ``float("inf")`` / NaN would otherwise serialise as the bare tokens
    ``Infinity`` / ``NaN``, which are not JSON and break every strict
    parser downstream.
    """
    if not math.isfinite(value):
        return None
    return round(value, digits) if digits is not None else value


def report_to_dict(report: FullAuditReport) -> dict[str, Any]:
    """The full audit as one JSON-serialisable dictionary."""
    campaigns = []
    for campaign in report.campaigns:
        campaigns.append({
            "campaign_id": campaign.campaign_id,
            "brand_safety": {
                "publishers_audit_only": campaign.venn.audit_only,
                "publishers_both": campaign.venn.both,
                "publishers_vendor_only": campaign.venn.vendor_only,
                "unreported_by_vendor_pct": _finite(
                    campaign.venn.unreported_by_vendor.pct, 2),
                "unlogged_by_audit_pct": _finite(
                    campaign.venn.unlogged_by_audit.pct, 2),
            },
            "context": {
                "audit_pct": _finite(campaign.context.audit_fraction.pct, 2),
                "vendor_pct": _finite(campaign.context.vendor_fraction.pct, 2),
                "meaningful_publishers": campaign.context.meaningful_publishers,
            },
            "viewability": {
                "upper_bound_pct": _finite(
                    campaign.viewability.viewable_upper_bound.pct, 2),
                "median_exposure_seconds": _finite(
                    campaign.viewability.median_exposure_seconds, 3),
            },
            "fraud": {
                "dc_ips_pct": _finite(campaign.fraud.dc_ips.pct, 2),
                "dc_impressions_pct": _finite(
                    campaign.fraud.dc_impressions.pct, 2),
                "dc_publishers_pct": _finite(
                    campaign.fraud.dc_publishers.pct, 2),
                "estimated_cost_eur": _finite(
                    campaign.fraud.estimated_cost_eur, 6),
                "vendor_refund_eur": _finite(
                    campaign.fraud.vendor_refund_eur, 6),
            },
            "reconciliation": {
                "vendor_impressions": campaign.discrepancies.vendor_impressions,
                "logged_impressions": campaign.discrepancies.logged_impressions,
                "logging_loss_pct": _finite(
                    campaign.discrepancies.logging_loss.pct, 2),
                "contextual_gap_points": _finite(
                    campaign.discrepancies.contextual_gap_points, 2),
                "dc_cost_not_refunded_eur": _finite(
                    campaign.discrepancies.dc_cost_not_refunded_eur, 6),
            },
            "popularity": {
                "bucket_edges": list(campaign.popularity.bucket_edges),
                "publisher_fractions": [
                    _finite(value, 4)
                    for value in campaign.popularity.publisher_fractions],
                "impression_fractions": [
                    _finite(value, 4)
                    for value in campaign.popularity.impression_fractions],
            },
        })
    return {
        "campaigns": campaigns,
        "aggregate": {
            "publishers_audit_only": report.aggregate_venn.audit_only,
            "publishers_both": report.aggregate_venn.both,
            "publishers_vendor_only": report.aggregate_venn.vendor_only,
            "unreported_by_vendor_pct": _finite(
                report.aggregate_venn.unreported_by_vendor.pct, 2),
        },
        "frequency": {
            "total_users": report.frequency.total_users,
            "users_over_10": report.frequency.users_over_10,
            "users_over_100": report.frequency.users_over_100,
            "max_impressions_single_user":
                report.frequency.max_impressions_single_user,
            "users_median_under_60s": report.frequency.users_median_under_60s,
        },
        "blacklist": list(report.blacklist),
    }


def report_to_json(report: FullAuditReport, indent: int = 2) -> str:
    """The full audit as a strict JSON document (no ``Infinity``/``NaN``)."""
    return json.dumps(report_to_dict(report), indent=indent, sort_keys=True,
                      allow_nan=False)


#: Column order for the per-campaign CSV export.
CSV_COLUMNS = (
    "campaign_id",
    "logged_impressions",
    "vendor_impressions",
    "unreported_publishers_pct",
    "audit_contextual_pct",
    "vendor_contextual_pct",
    "viewability_upper_bound_pct",
    "dc_impressions_pct",
    "dc_cost_not_refunded_eur",
)


def report_to_csv(report: FullAuditReport) -> str:
    """One CSV row per campaign with the headline audit columns."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for campaign in report.campaigns:
        writer.writerow([
            campaign.campaign_id,
            campaign.discrepancies.logged_impressions,
            campaign.discrepancies.vendor_impressions,
            f"{campaign.venn.unreported_by_vendor.pct:.2f}",
            f"{campaign.context.audit_fraction.pct:.2f}",
            f"{campaign.context.vendor_fraction.pct:.2f}",
            f"{campaign.viewability.viewable_upper_bound.pct:.2f}",
            f"{campaign.fraud.dc_impressions.pct:.2f}",
            f"{campaign.discrepancies.dc_cost_not_refunded_eur:.6f}",
        ])
    return buffer.getvalue()
