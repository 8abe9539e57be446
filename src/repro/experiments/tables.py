"""Regeneration of the paper's tables (1–4) from an experiment result.

Each ``tableN`` function returns ``(headers, rows)`` with exactly the
columns the paper reports; ``render_tableN`` wraps it as aligned text.
"""

from __future__ import annotations

import datetime as _dt
import math

from repro.audit.context import ContextAudit
from repro.audit.conversion import ConversionAudit
from repro.audit.fraud import FraudAudit
from repro.audit.viewability import ViewabilityAudit
from repro.experiments.runner import ExperimentResult
from repro.util.tables import render_table

Headers = list[str]
Rows = list[list[object]]


def _date(unix_time: float) -> str:
    moment = _dt.datetime.fromtimestamp(unix_time, tz=_dt.timezone.utc)
    return moment.strftime("%d %B")


def table1(result: ExperimentResult) -> tuple[Headers, Rows]:
    """Table 1: description of the 8 campaigns as measured.

    Impression/publisher counts are what our methodology logged — the same
    accounting the paper's Table 1 uses.
    """
    headers = ["Campaign ID", "# Impressions", "# Publishers", "Start date",
               "End date", "CPM", "Targeted Keywords", "Targeted Location"]
    dataset = result.dataset
    rows: Rows = []
    for campaign_id in dataset.campaign_ids:
        campaign = dataset.campaigns[campaign_id]
        rows.append([
            campaign_id,
            dataset.record_count(campaign_id),
            len(dataset.audit_publishers(campaign_id)),
            _date(campaign.start_unix),
            _date(campaign.end_unix - 86_400.0),   # inclusive end date
            f"{campaign.cpm_eur:.2f} EUR",
            ", ".join(campaign.keywords),
            "/".join(campaign.target_countries),
        ])
    return headers, rows


def table2(result: ExperimentResult) -> tuple[Headers, Rows]:
    """Table 2: contextually meaningful impressions, audit vs vendor."""
    audit = result.dataset.audit(ContextAudit)
    headers = ["Campaign ID", "Auditing Methodology (% impressions)",
               "AdWords-like Report (% impressions)"]
    rows: Rows = []
    for campaign_id in result.dataset.campaign_ids:
        outcome = audit.assess(campaign_id)
        rows.append([campaign_id, str(outcome.audit_fraction),
                     str(outcome.vendor_fraction)])
    return headers, rows


def table3(result: ExperimentResult) -> tuple[Headers, Rows]:
    """Table 3: fraction of impressions exposed >= 1 s."""
    audit = result.dataset.audit(ViewabilityAudit)
    headers = ["Campaign ID", "View >= 1s"]
    rows: Rows = [[outcome.campaign_id, str(outcome.viewable_upper_bound)]
                  for outcome in audit.table()]
    return headers, rows


def table4(result: ExperimentResult) -> tuple[Headers, Rows]:
    """Table 4: data-center traffic statistics per campaign."""
    audit = result.dataset.audit(FraudAudit)
    headers = ["Campaign ID", "% of Cloud Provider IPs",
               "% of Impressions delivered to Cloud IPs",
               "% of Publishers showing ads to Cloud IPs"]
    rows: Rows = [[stats.campaign_id, str(stats.dc_ips),
                   str(stats.dc_impressions), str(stats.dc_publishers)]
                  for stats in audit.table()]
    return headers, rows


def _eur_or_dash(value: float) -> str:
    """Format an EUR amount, rendering non-finite values as an em dash.

    A campaign with zero conversions has an infinite cost per conversion;
    printing ``inf EUR`` (or worse, ``nan``) in a report column helps
    nobody — the dash marks "no conversions to divide by".
    """
    if not math.isfinite(value):
        return "—"
    return f"{value:.4f} EUR"


def conversion_funnel(result: ExperimentResult) -> tuple[Headers, Rows]:
    """Per-campaign conversion funnel (the paper's future-work analysis)."""
    audit = ConversionAudit(result.dataset, result.conversions)
    headers = ["Campaign ID", "Impressions", "Clicks", "Conversions",
               "CTR", "Cost/Conversion", "DC Clicks"]
    rows: Rows = []
    for outcome in audit.table():
        rows.append([
            outcome.campaign_id,
            outcome.impressions,
            outcome.clicks,
            outcome.conversions,
            str(outcome.ctr),
            _eur_or_dash(outcome.cost_per_conversion_eur),
            outcome.dc_clicks,
        ])
    return headers, rows


def render_conversion_funnel(result: ExperimentResult) -> str:
    headers, rows = conversion_funnel(result)
    return render_table(headers, rows,
                        title="Conversion funnel (first-party join)")


def render_table1(result: ExperimentResult) -> str:
    headers, rows = table1(result)
    return render_table(headers, rows,
                        title="Table 1: campaigns under audit")


def render_table2(result: ExperimentResult) -> str:
    headers, rows = table2(result)
    return render_table(headers, rows,
                        title="Table 2: contextually meaningful impressions")


def render_table3(result: ExperimentResult) -> str:
    headers, rows = table3(result)
    return render_table(headers, rows,
                        title="Table 3: viewability upper bound")


def render_table4(result: ExperimentResult) -> str:
    headers, rows = table4(result)
    return render_table(headers, rows,
                        title="Table 4: data-center traffic")
