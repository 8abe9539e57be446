"""One audit pass over a sealed dataset computes each axis result once.

The axis methods marked :func:`~repro.audit.dataset.memoised` keep the
results of every axis :meth:`AuditDataset.audit` builds in the dataset,
once its store is sealed.  These tests pin the memo's promises: an
unsealed store is never memoised, a full pass (the audit report, every
table and figure, the conversion funnel) computes each (axis, campaign)
result at most once, the results it shares cannot be changed, and a
dataset is freed with its results as soon as it is dropped.
"""

import dataclasses
import functools
import gc
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.audit import full_audit
from repro.audit.brand_safety import BrandSafetyAudit
from repro.audit.context import ContextAudit
from repro.audit.conversion import ConversionAudit
from repro.audit.dataset import memoised
from repro.audit.fraud import FraudAudit
from repro.audit.frequency import FrequencyAudit
from repro.audit.popularity import PopularityAudit
from repro.audit.reconcile import ReconciliationAudit
from repro.audit.viewability import ViewabilityAudit
from repro.collector.store import ImpressionRecord, ImpressionStore
from repro.experiments import figures, tables
from tests.audit.conftest import START, TOKEN_BOT

AXES = (BrandSafetyAudit, ContextAudit, FraudAudit, FrequencyAudit,
        PopularityAudit, ReconciliationAudit, ViewabilityAudit)

#: Every memoised axis method, found by the wrapper :func:`memoised` sets.
MEMOISED = tuple((axis, name) for axis in AXES
                 for name, value in vars(axis).items()
                 if hasattr(value, "__wrapped__"))

RENDERS = (tables.render_table1, tables.render_table2, tables.render_table3,
           tables.render_table4, tables.render_conversion_funnel,
           lambda result: figures.figure1(result).render(),
           lambda result: figures.figure2(result).render(),
           lambda result: figures.figure3(result).render())


def count_computations(monkeypatch) -> Counter:
    """Count every computation of a memoised axis method (memo misses)
    and of the unmemoised conversion funnel, by method and arguments."""
    calls: Counter = Counter()

    def counting(label, compute):
        @functools.wraps(compute)
        def count(self, *args, **kwargs):
            calls[label, args] += 1
            return compute(self, *args, **kwargs)
        return count

    for axis, name in MEMOISED:
        compute = getattr(axis, name).__wrapped__
        monkeypatch.setattr(axis, name, memoised(
            counting(f"{axis.__name__}.{name}", compute)))
    monkeypatch.setattr(ConversionAudit, "assess", counting(
        "ConversionAudit.assess", ConversionAudit.assess))
    return calls


def test_every_axis_memoises_its_results():
    assert {axis for axis, _ in MEMOISED} == set(AXES)


def test_one_pass_computes_each_axis_result_once(small_result, monkeypatch):
    calls = count_computations(monkeypatch)
    # A fresh dataset over the same sealed store starts with no memo.
    dataset = dataclasses.replace(small_result.dataset)
    assert dataset.store.sealed
    result = SimpleNamespace(dataset=dataset,
                             conversions=small_result.conversions)
    full_audit(dataset)
    for render in RENDERS:
        render(result)
    full_audit(dataset)     # the CLI's exports read a second report
    assert calls and max(calls.values()) == 1, \
        [key for key, count in calls.items() if count > 1]
    every_campaign = {(campaign_id,) for campaign_id in dataset.campaign_ids}
    for label in ("ContextAudit.assess", "FraudAudit.assess",
                  "ViewabilityAudit.assess", "PopularityAudit.distribution",
                  "ReconciliationAudit.assess", "ConversionAudit.assess",
                  "BrandSafetyAudit.anonymous_bound"):
        assert {args for name, args in calls if name == label} \
            == every_campaign, label
    assert calls["FrequencyAudit.user_frequencies", (None,)] == 1


def test_a_table_alone_computes_only_its_axis(small_result, monkeypatch):
    calls = count_computations(monkeypatch)
    dataset = dataclasses.replace(small_result.dataset)
    tables.render_table3(SimpleNamespace(dataset=dataset))
    assert {name for name, _ in calls} == {"ViewabilityAudit.assess"}


def unsealed_copy(dataset):
    """*dataset* over a fresh, unsealed store holding the same records."""
    store = ImpressionStore.loads_jsonl(dataset.store.dumps_jsonl())
    return dataclasses.replace(dataset, store=store)


def test_unsealed_store_is_never_memoised(dataset):
    audited = unsealed_copy(dataset)
    first = full_audit(audited)
    first_table3 = tables.table3(SimpleNamespace(dataset=audited))
    audited.store.insert(ImpressionRecord(
        record_id=audited.store.next_record_id(), campaign_id="Football-010",
        creative_id="Football-010-creative", url="http://casino-x.es/s/b",
        user_agent="UA-9", ip="", ip_token=TOKEN_BOT, timestamp=START + 9.0,
        exposure_seconds=9.0, provider="P", country="ES",
        global_rank=2_000_000, is_datacenter=True, dc_stage="denylist"))
    second = full_audit(audited)
    before, after = first.campaigns[0], second.campaigns[0]
    assert after.discrepancies.logged_impressions \
        == before.discrepancies.logged_impressions + 1
    assert after.venn.audit_only == before.venn.audit_only + 1
    assert after.fraud.dc_impressions.numerator \
        == before.fraud.dc_impressions.numerator + 1
    assert after.viewability.viewable_upper_bound.numerator \
        == before.viewability.viewable_upper_bound.numerator + 1
    assert second.frequency.total_users == first.frequency.total_users + 1
    assert tables.table3(SimpleNamespace(dataset=audited)) != first_table3
    audit = audited.audit(ContextAudit)
    assert audit.assess("Football-010") is not audit.assess("Football-010")


def test_sealing_starts_the_memo(dataset):
    audited = unsealed_copy(dataset)
    audited.store.seal()
    first = audited.audit(ContextAudit).assess("Football-010")
    assert audited.audit(ContextAudit).assess("Football-010") is first
    assert audited.audit(ReconciliationAudit).context.assess(
        "Football-010") is first
    # Arguments key the memo: each campaign keeps its own result.
    assert audited.audit(ContextAudit).assess("Research-010") != first
    # An axis built directly may be configured otherwise: it shares nothing.
    assert ContextAudit(audited).assess("Football-010") is not first


def assert_immutable(value, path="result"):
    """Fail unless *value* is built only of atoms, tuples, frozensets
    and frozen dataclasses, each of whose fields refuses assignment."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return
    if isinstance(value, (tuple, frozenset)):
        for index, item in enumerate(value):
            assert_immutable(item, f"{path}[{index}]")
        return
    assert dataclasses.is_dataclass(value), f"{path}: {type(value)}"
    assert type(value).__dataclass_params__.frozen, path
    for spec in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, spec.name, None)
        assert_immutable(getattr(value, spec.name), f"{path}.{spec.name}")


def test_memoised_results_are_immutable(small_result):
    dataset = dataclasses.replace(small_result.dataset)
    result = SimpleNamespace(dataset=dataset,
                             conversions=small_result.conversions)
    full_audit(dataset)
    for render in RENDERS:
        render(result)
    assert {axis for axis, *_ in dataset._results} == set(AXES)
    for key, value in dataset._results.items():
        assert_immutable(value, str(key))


def test_a_dataset_is_freed_with_its_results(small_result):
    # No reference cycle: a dropped dataset (and the store it alone
    # holds) goes at once, not at the next full garbage collection.
    dataset = dataclasses.replace(small_result.dataset)
    result = SimpleNamespace(dataset=dataset,
                             conversions=small_result.conversions)
    gc.disable()
    try:
        full_audit(dataset)
        for render in RENDERS:
            render(result)
        assert dataset._results
        alive = weakref.ref(dataset)
        del dataset, result
        assert alive() is None
    finally:
        gc.enable()
