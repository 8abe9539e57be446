"""The columnar store against plain records, and its raw-column surfaces.

The store is only correct if it is *indistinguishable* from the list of
records it was filled with everywhere the repo's determinism contract
looks: JSONL bytes, query results, counters, and the raw-column transfer
the shard merge rides on.  These tests pin that — property-based over
generated record populations (gapped ids, enriched and raw records,
empty stores), with the expected answers computed from the inserted
records — plus directed tests for the mutation paths (``enrich_at``,
``absorb_columns``) and their sealed-store guards.
"""

import gc
import json
import marshal
import sys
import tracemalloc
import zlib
from collections import deque
from dataclasses import asdict, fields, is_dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.collector.store import (
    ImpressionRecord,
    ImpressionStore,
    StoreSealedError,
)
from repro.obs.metrics import MetricsRegistry

domains = st.sampled_from(["news.example", "blog.example", "video.example"])
campaign_ids = st.sampled_from(["c-sports", "c-travel", "c-tech"])
user_agents = st.sampled_from(["UA-firefox", "UA-chrome", "UA-bot"])
ips = st.sampled_from(["10.0.0.1", "10.0.0.2", "192.0.2.7"])

raw_records = st.builds(
    dict,
    campaign_id=campaign_ids,
    creative_id=st.sampled_from(["cr-1", "cr-2"]),
    domain=domains,
    user_agent=user_agents,
    ip=ips,
    timestamp=st.floats(min_value=1_000.0, max_value=2_000.0,
                        allow_nan=False),
    exposure_seconds=st.floats(min_value=0.0, max_value=30.0,
                               allow_nan=False),
    mouse_moves=st.integers(min_value=0, max_value=50),
    clicks=st.integers(min_value=0, max_value=3),
    truncated=st.booleans(),
    pixels_in_view=st.sampled_from([None, True, False]),
)

enrichments = st.builds(
    dict,
    ip_token=st.sampled_from(["tok-aaaa", "tok-bbbb", "tok-cccc"]),
    provider=st.sampled_from(["ISP One", "Hosting Co", ""]),
    country=st.sampled_from(["ES", "DE", ""]),
    global_rank=st.sampled_from([None, 1, 500, 1_000_000]),
    is_datacenter=st.sampled_from([None, True, False]),
    dc_stage=st.sampled_from(["", "maxmind", "denylist"]),
)

populations = st.lists(
    st.tuples(raw_records, st.none() | enrichments),
    min_size=0, max_size=20)


def build_record(record_id, fields, enrichment):
    values = dict(fields)
    domain = values.pop("domain")
    values["url"] = f"https://{domain}/page-{record_id}"
    if enrichment is not None:
        values.update(enrichment)
        values["ip"] = ""
    return ImpressionRecord(record_id=record_id, **values)


def fill(store, population):
    """Insert *population* into *store*; return the records inserted."""
    records = []
    for fields, enrichment in population:
        record = build_record(store.next_record_id(), fields, enrichment)
        store.insert(record)
        records.append(record)
    return records


#: Every field ``select`` accepts: the record fields plus the derived ones.
RECORD_FIELDS = tuple(ImpressionRecord.__dataclass_fields__)
SELECT_FIELDS = RECORD_FIELDS + ("domain", "user_key", "identity")

#: The oracles read derived fields off records.
DERIVED = {
    "domain": lambda record: record.domain,
    "user_key": lambda record: record.user_key,
    "identity": lambda record: record.ip_token or record.ip,
}


def project(records, fields):
    """``select`` computed from records, one field at a time."""
    return [tuple(DERIVED[name](record) if name in DERIVED
                  else getattr(record, name) for name in fields)
            for record in records]


class TestBackendEquivalence:
    """The store against the list of records it was filled with."""

    @given(populations)
    @settings(max_examples=60, deadline=None)
    def test_dumps_jsonl_byte_identical(self, population):
        store = ImpressionStore()
        records = fill(store, population)
        assert store.dumps_jsonl() == "".join(
            json.dumps(asdict(record), sort_keys=True, allow_nan=False)
            + "\n" for record in records)

    @given(populations)
    @settings(max_examples=40, deadline=None)
    def test_queries_agree(self, population):
        store = ImpressionStore()
        records = fill(store, population)
        campaigns = list(dict.fromkeys(
            record.campaign_id for record in records))
        # Scans before sealing, the seal-time indexes after.
        for sealed in (False, True):
            if sealed:
                store.seal()
            assert store.campaigns() == campaigns, sealed
            assert store.distinct_domains() \
                == {record.domain for record in records}, sealed
            for campaign_id in campaigns + ["c-unknown"]:
                expected = [record for record in records
                            if record.campaign_id == campaign_id]
                assert store.by_campaign(campaign_id) == expected
                assert store.count_for(campaign_id) == len(expected)
                assert store.distinct_domains(campaign_id) \
                    == {record.domain for record in expected}

    @given(populations)
    @settings(max_examples=40, deadline=None)
    def test_select_agrees(self, population):
        fields = ("record_id", "campaign_id", "domain", "user_key",
                  "identity", "exposure_seconds", "truncated",
                  "pixels_in_view", "global_rank", "is_datacenter",
                  "clicks", "timestamp", "dc_stage")
        store = ImpressionStore()
        records = fill(store, population)
        assert store.select(None, *fields) == project(records, fields)
        for campaign_id in store.campaigns():
            assert store.select(campaign_id, *fields) == project(
                [record for record in records
                 if record.campaign_id == campaign_id], fields)

    @given(populations)
    @settings(max_examples=40, deadline=None)
    def test_column_payload_crosses_backends(self, population):
        # An exported payload absorbs into a fresh store as the same rows.
        source = ImpressionStore()
        records = fill(source, population)
        target = ImpressionStore()
        assert target.absorb_columns(source.export_columns()) == len(records)
        assert list(target) == records
        assert target.dumps_jsonl() == source.dumps_jsonl()

    @given(populations)
    @settings(max_examples=30, deadline=None)
    def test_jsonl_round_trip_with_gapped_ids(self, population):
        store = ImpressionStore()
        fill(store, population)
        # Keep every third record: ids become non-contiguous.
        kept = [line for index, line
                in enumerate(store.dumps_jsonl().splitlines())
                if index % 3 == 0]
        text = "".join(line + "\n" for line in kept)
        loaded = ImpressionStore.loads_jsonl(text)
        assert loaded.dumps_jsonl() == text
        assert [record.record_id for record in loaded] \
            == [json.loads(line)["record_id"] for line in kept]


class TestSelectValidation:
    def test_unknown_field_rejected(self):
        store = ImpressionStore()
        with pytest.raises(ValueError, match="unknown select field"):
            store.select(None, "no_such_column")


def oracle_select(store, campaign_id, fields):
    """``select`` computed from the rows read back as record views."""
    records = list(store) if campaign_id is None \
        else store.by_campaign(campaign_id)
    return project(records, fields)


field_lists = (st.lists(st.sampled_from(SELECT_FIELDS), max_size=8)
               | st.just(list(SELECT_FIELDS)))


class TestSelectOracle:
    """``select`` against rows read back as record views."""

    @given(populations, field_lists)
    @settings(max_examples=60, deadline=None)
    def test_select_matches_record_views(self, population, fields):
        store = ImpressionStore()
        fill(store, population)
        for sealed in (False, True):
            if sealed:
                store.seal()
            for campaign_id in [None, *store.campaigns(), "c-unknown"]:
                assert store.select(campaign_id, *fields) \
                    == oracle_select(store, campaign_id, fields), \
                    (sealed, campaign_id)

    @given(populations)
    @settings(max_examples=20, deadline=None)
    def test_zero_fields_give_one_empty_tuple_per_row(self, population):
        store = ImpressionStore()
        fill(store, population)
        assert store.select(None) == [()] * len(store)
        for campaign_id in store.campaigns():
            assert store.select(campaign_id) \
                == [()] * store.count_for(campaign_id)

    def test_unknown_field_rejected_on_sealed_and_unknown_campaign(self):
        store = ImpressionStore().seal()
        for campaign_id in (None, "c-unknown"):
            with pytest.raises(ValueError,
                               match="unknown select field 'nope'"):
                store.select(campaign_id, "record_id", "nope")


def make_record(record_id, campaign="c-sports", **overrides):
    values = dict(
        record_id=record_id, campaign_id=campaign, creative_id="cr-1",
        url=f"https://news.example/p{record_id}", user_agent="UA",
        ip="10.0.0.1", timestamp=1_000.0 + record_id,
        exposure_seconds=2.0)
    values.update(overrides)
    return ImpressionRecord(**values)


class TestSealedMutation:
    def test_all_write_paths_raise_once_sealed(self):
        store = ImpressionStore()
        store.insert(make_record(1))
        payload = store.export_columns()
        store.seal()
        with pytest.raises(StoreSealedError):
            store.insert(make_record(2))
        with pytest.raises(StoreSealedError):
            store.absorb_columns(payload)
        with pytest.raises(StoreSealedError):
            store.enrich_at(0, ip_token="tok", provider="", country="",
                            global_rank=None, is_datacenter=False,
                            dc_stage="")

    def test_enrich_at_writes_columns_in_place(self):
        store = ImpressionStore()
        store.insert(make_record(1))
        store.enrich_at(0, ip_token="tok-1234", provider="ISP",
                        country="ES", global_rank=42, is_datacenter=True,
                        dc_stage="maxmind")
        record = next(iter(store))
        assert record.ip == ""
        assert record.ip_token == "tok-1234"
        assert record.provider == "ISP"
        assert record.global_rank == 42
        assert record.is_datacenter is True
        assert record.dc_stage == "maxmind"


class _SpyTracer:
    """Captures (name, attrs) of every event the store emits."""

    now = 0.0

    def __init__(self):
        self.events = []

    def event(self, name, at, **attrs):
        self.events.append((name, attrs))


class TestCounterAccounting:
    def test_loads_jsonl_counts_appends(self):
        # Regression: loads_jsonl used to bypass the appends counter, so
        # a loaded store reported 0 appends no matter its size.
        source = ImpressionStore()
        for record_id in (1, 2, 3):
            source.insert(make_record(record_id))
        loaded = ImpressionStore.loads_jsonl(source.dumps_jsonl())
        assert loaded._appends.value == 3

    def test_absorb_columns_emits_one_extend_event(self):
        source = ImpressionStore()
        source.insert(make_record(1, campaign="c-travel"))
        source.insert(make_record(2, clicks=2))
        tracer = _SpyTracer()
        store = ImpressionStore(metrics=MetricsRegistry(), tracer=tracer)
        store.insert(make_record(1))
        assert store.absorb_columns(source.export_columns()) == 2
        assert store._appends.value == 3
        assert store.next_record_id() == 4
        assert [record.record_id for record in store] == [1, 2, 3]
        assert [record.clicks for record in store] == [0, 0, 2]
        # One summarising store.extend event, no per-record store.commit.
        assert [name for name, _ in tracer.events] \
            == ["store.commit", "store.extend"]
        _, attrs = tracer.events[1]
        assert attrs["records"] == 2
        assert attrs["first_record"] == 2
        assert attrs["last_record"] == 3

    def test_insert_still_emits_per_record_commit(self):
        # The per-record store.commit stream feeds the trace exports on
        # the shard path; bulk accounting must not change it.
        tracer = _SpyTracer()
        store = ImpressionStore(metrics=MetricsRegistry(), tracer=tracer)
        store.insert(make_record(1))
        assert [name for name, _ in tracer.events] == ["store.commit"]

    def test_absorb_rejects_malformed_payloads(self):
        store = ImpressionStore()
        with pytest.raises(ValueError, match="malformed"):
            store.absorb_columns(("nope",))
        good = ImpressionStore().export_columns()
        with pytest.raises(ValueError, match="version"):
            store.absorb_columns((99,) + good[1:])


class TestEmptyStore:
    def test_empty_round_trips(self):
        store = ImpressionStore()
        assert store.dumps_jsonl() == ""
        loaded = ImpressionStore.loads_jsonl("")
        assert len(loaded) == 0
        assert loaded.next_record_id() == 1
        other = ImpressionStore()
        assert other.absorb_columns(store.export_columns()) == 0
        assert other._appends.value == 0


#: Canonical dump lines (every value of its dumped JSON type) for the
#: load-path oracle to perturb: one raw record, one enriched.
CANONICAL_LINES = (
    dict(record_id=3, campaign_id="c-1", creative_id="cr-1",
         url="http://a.example/x", user_agent="UA-1", ip="1.2.3.4",
         timestamp=10.5, exposure_seconds=2.0, mouse_moves=1, clicks=0,
         truncated=False, pixels_in_view=None, ip_token="", provider="",
         country="", global_rank=None, is_datacenter=None, dc_stage=""),
    dict(record_id=1, campaign_id="c-2", creative_id="cr-2",
         url="https://b.example/y/z", user_agent="UA-2", ip="",
         timestamp=1_000.0, exposure_seconds=0.0, mouse_moves=0, clicks=2,
         truncated=True, pixels_in_view=True, ip_token="tok-aaaa",
         provider="Hosting Co", country="DE", global_rank=500,
         is_datacenter=False, dc_stage="maxmind"),
)

#: Values of every JSON type a perturbed field may take, including the
#: non-finite floats the standard decoder accepts and negative numbers.
PERTURBED_VALUES = (
    0, 1, 7, -1, 0.0, 2.5, -2.5, True, False, "", "x", "http://c.example/",
    None, float("nan"), float("inf"), float("-inf"), 2**32, 2**63,
    "http:///x",
)
perturbed_values = st.sampled_from(PERTURBED_VALUES)
perturbations = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(RECORD_FIELDS),
              perturbed_values),
    st.tuples(st.just("drop"), st.sampled_from(RECORD_FIELDS), st.none()),
    st.tuples(st.just("add"), st.sampled_from(["domain", "extra"]),
              perturbed_values),
)


def perturbed_line(base, edits):
    values = dict(base)
    for action, name, value in edits:
        if action == "drop":
            values.pop(name, None)
        else:
            values[name] = value
    return json.dumps(values)


def outcome(build):
    """What *build* returns, or the type and text of what it raised."""
    try:
        return build()
    except Exception as exc:  # noqa: BLE001 - the oracle compares any failure
        return type(exc).__name__, str(exc)


def constructor_load(line):
    """The oracle: the record constructor fed the decoded line, the
    record inserted into a fresh store, the store dumped."""
    try:
        record = ImpressionRecord(**json.loads(line))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"<string>:1: bad record: {exc}") from exc
    store = ImpressionStore()
    store._next_id = record.record_id
    store.insert(record)
    return store.dumps_jsonl()


class TestLoadPathOracle:
    """``loads_jsonl`` against the record constructor, line by line."""

    @given(base=st.sampled_from(CANONICAL_LINES),
           edits=st.lists(perturbations, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_load_matches_constructor(self, base, edits):
        line = perturbed_line(base, edits)
        assert outcome(lambda: ImpressionStore.loads_jsonl(line).dumps_jsonl()) \
            == outcome(lambda: constructor_load(line)), line

    def test_every_single_value_swap_matches_constructor(self):
        for base in CANONICAL_LINES:
            for name in RECORD_FIELDS:
                for value in PERTURBED_VALUES:
                    line = perturbed_line(base, [("set", name, value)])
                    assert outcome(
                        lambda: ImpressionStore.loads_jsonl(line).dumps_jsonl()) \
                        == outcome(lambda: constructor_load(line)), \
                        line

    def test_canonical_bases_take_the_direct_path(self, monkeypatch):
        # The perturbations start from lines the columns take as they are.
        built = counting_record_builds(monkeypatch)
        for base in CANONICAL_LINES:
            line = json.dumps(base, sort_keys=True)
            assert ImpressionStore.loads_jsonl(line).dumps_jsonl() \
                == line + "\n"
        assert built == []


def counting_record_builds(monkeypatch):
    """The ids of every ``ImpressionRecord`` built from now on."""
    built = []
    post_init = ImpressionRecord.__post_init__

    def counting_post_init(record):
        built.append(record.record_id)
        post_init(record)

    monkeypatch.setattr(ImpressionRecord, "__post_init__", counting_post_init)
    return built


def test_dump_loads_without_building_records(small_result, monkeypatch):
    # Every line a dump writes takes the direct path into the columns;
    # a change to the dump's value types would quietly send each line
    # back through the record constructor.
    text = small_result.dataset.store.dumps_jsonl()
    built = counting_record_builds(monkeypatch)
    loaded = ImpressionStore.loads_jsonl(text)
    assert built == []
    assert len(loaded) > 0
    assert loaded.dumps_jsonl() == text


def test_sealed_user_keys_are_one_string_per_user(small_result):
    # A sealed store hands out its seal-time user-key strings, so the
    # memoised frequency points, which live as long as their dataset,
    # hold no string of their own.
    keys = [key for key, in small_result.dataset.store.select(
        None, "user_key")]
    assert len({id(key) for key in keys}) == len(set(keys)) < len(keys)


def test_sealed_store_memory_budget(small_result):
    # A loaded and sealed store holds about 340-360 B of Python heap per
    # record; a list of record dataclasses holds about 1,000.  The budget
    # catches a layout regression, not allocator noise.
    text = small_result.dataset.store.dumps_jsonl()
    gc.collect()
    tracemalloc.start()
    try:
        store = ImpressionStore.loads_jsonl(text).seal()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / len(store) <= 400


def held_bytes(roots) -> int:
    """``sys.getsizeof`` summed over everything *roots* reach, each once.

    Walks tuples, lists, deques, dict keys and values, and dataclass
    fields (plus any instance ``__dict__``), counting every object by
    identity, so shared strings and tuples are paid for once.  An
    ``array`` or ``bytes`` object's getsizeof includes its buffer.
    Deterministic, unlike a tracemalloc reading.
    """
    seen: dict = {}     # id -> object, which keeps every id unique
    total = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        total += sys.getsizeof(obj)
        if isinstance(obj, (tuple, list, deque)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif is_dataclass(obj):
            stack.extend(getattr(obj, field.name) for field in fields(obj))
            if hasattr(obj, "__dict__"):
                stack.append(obj.__dict__)
    return total


def test_retained_trace_memory_budget(small_result):
    # A trace read back from the recorder holds about 2.2 KB: spans are
    # slotted and equal attribute strings, pairs and tuples are shared;
    # per-span ``__dict__``s and a fresh string per attribute cost 6.5 KB.
    traces = small_result.recorder.traces()
    assert traces
    assert held_bytes(traces) / len(traces) <= 3_000


def test_packed_trace_memory_budget(small_result):
    # A decompressed copy of the recorder's traces: one packed entry per
    # trace, its span rows a marshal blob, about 1.2 KB.  Holding the
    # traces as records instead costs about 2.45 KB.
    entries = [entry for segment in small_result.recorder._segments
               for entry in marshal.loads(zlib.decompress(segment[2]))]
    assert entries
    assert held_bytes(entries) / len(entries) <= 1_400


def test_sealed_trace_memory_budget(small_result):
    # What the merged recorder holds between reads: each shard's traces as
    # one compressed segment (about 178 B a trace) and the record index
    # (about 7 B): about 185 B.  Its enrich.geo spans are joined from the
    # store on read.  Holding every trace as a packed entry costs about
    # 1.2 KB.
    recorder = small_result.recorder
    assert len(recorder)
    assert held_bytes([recorder]) / len(recorder) <= 400
