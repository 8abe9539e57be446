"""Metamorphic relations of the whole audit over a real dump.

Golden digests pin what the audit outputs; these relations pin how it
responds to known changes in its input.  Each dataset is rebuilt from
the dump lines of the session's small experiment through
``ImpressionStore.loads_jsonl``, sealed (so the memoised axis results
are in play), and audited in full: the report, its JSON export, Tables
1-4, the conversion funnel and Figures 1-3.

* **Campaign independence:** dropping one campaign's records leaves
  every other campaign's rows byte-identical.
* **Order invariance:** writing the records in another order, numbered
  afresh, changes no audit number.
"""

import dataclasses
import json
import random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import full_audit
from repro.audit.export import report_to_csv, report_to_dict, report_to_json
from repro.collector.store import ImpressionStore
from repro.experiments import figures, tables

TABLES = (tables.table1, tables.table2, tables.table3, tables.table4,
          tables.conversion_funnel)


def audited(small_result, records):
    """The full audit of the dataset whose dump holds *records*."""
    text = "".join(json.dumps(record, sort_keys=True) + "\n"
                   for record in records)
    dataset = dataclasses.replace(
        small_result.dataset,
        store=ImpressionStore.loads_jsonl(text).seal())
    return SimpleNamespace(dataset=dataset,
                           conversions=small_result.conversions,
                           report=full_audit(dataset))


def dumped_records(small_result):
    return [json.loads(line) for line
            in small_result.dataset.store.dumps_jsonl().splitlines()]


def campaign_rows(result) -> dict[str, list[str]]:
    """Every per-campaign row of the audit, as text, by campaign."""
    rows: dict[str, list[str]] = {}
    for row in report_to_dict(result.report)["campaigns"]:
        rows.setdefault(row["campaign_id"], []).append(
            json.dumps(row, sort_keys=True))
    for table in TABLES:
        for row in table(result)[1]:
            rows.setdefault(row[0], []).append(repr(row))
    return rows


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_dropping_a_campaign_leaves_the_others_unchanged(small_result, data):
    records = dumped_records(small_result)
    dropped = data.draw(st.sampled_from(small_result.dataset.campaign_ids))
    whole = campaign_rows(audited(small_result, records))
    kept = audited(small_result, [record for record in records
                                  if record["campaign_id"] != dropped])
    rest = campaign_rows(kept)
    assert set(rest) == set(whole)
    for campaign_id in whole:
        if campaign_id != dropped:
            assert rest[campaign_id] == whole[campaign_id], campaign_id
    (row,) = [row for row in kept.report.campaigns
              if row.campaign_id == dropped]
    assert row.discrepancies.logged_impressions == 0


def everything(result) -> list[str]:
    """Every audit output, as text."""
    return [result.report.render(), report_to_json(result.report),
            report_to_csv(result.report),
            *(repr(table(result)) for table in TABLES),
            figures.figure1(result).render(),
            figures.figure2(result).render(),
            figures.figure3(result).render()]


#: Record orders: reversed, grouped by user, or a seeded shuffle.
orders = st.sampled_from(["reversed", "by_user"]) | st.integers(0, 2**32 - 1)


def reordered(records, order):
    if order == "reversed":
        return records[::-1]
    if order == "by_user":
        return sorted(records, key=lambda record: (
            record["ip_token"], record["user_agent"]))
    shuffled = list(records)
    random.Random(order).shuffle(shuffled)
    return shuffled


@settings(max_examples=10, deadline=None)
@given(order=orders)
def test_record_order_changes_no_audit_number(small_result, order):
    records = dumped_records(small_result)
    renumbered = [dict(record, record_id=record_id) for record_id, record
                  in enumerate(reordered(records, order), start=1)]
    assert everything(audited(small_result, renumbered)) \
        == everything(audited(small_result, records))
