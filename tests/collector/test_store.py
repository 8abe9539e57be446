"""Tests for repro.collector.store — the impression database."""

import json
from array import array

import pytest

from repro.collector.store import (
    ImpressionRecord,
    ImpressionStore,
    StoreSealedError,
    _ColumnarStore,
    _RowStore,
)


def make_record(record_id=1, campaign="Research-010", domain="diario1.es",
                ip="2.0.0.1", ua="UA-1", timestamp=1000.0, exposure=3.0,
                **overrides):
    defaults = dict(
        record_id=record_id,
        campaign_id=campaign,
        creative_id=f"{campaign}-creative",
        url=f"http://{domain}/news/article-1.html",
        user_agent=ua,
        ip=ip,
        timestamp=timestamp,
        exposure_seconds=exposure,
    )
    defaults.update(overrides)
    return ImpressionRecord(**defaults)


#: One valid dumped record, as a dict, for the load tests to vary.
LINE = dict(record_id=1, campaign_id="c-1", creative_id="cr-1",
            url="http://a.example/x", user_agent="UA-1", ip="1.2.3.4",
            timestamp=10.0, exposure_seconds=2.0)
#: LINE with every field present, each of its dumped JSON type: a line
#: the columnar load appends without building a record.
FULL_LINE = dict(LINE, mouse_moves=0, clicks=0, truncated=False,
                 pixels_in_view=None, ip_token="", provider="", country="",
                 global_rank=None, is_datacenter=None, dc_stage="")
#: Field values no column can hold, with the message a load gives.
UNSTORABLE = [
    ("clicks", 5_000_000_000, "interaction counts must be below 2**32"),
    ("record_id", 2**63, "record_id must be below 2**63"),
    ("global_rank", 2**63, "global_rank must fit in 64 bits"),
    ("mouse_moves", float("inf"), "cannot convert float infinity to integer"),
    ("url", "http:///x", "cannot extract domain from 'http:///x'"),
]
UNSTORABLE_IDS = ["clicks-overflow", "record-id-overflow", "rank-overflow",
                  "infinite-count", "host-less-url"]


class TestImpressionRecord:
    def test_domain_extraction(self):
        assert make_record().domain == "diario1.es"

    def test_user_key_combines_ip_and_ua(self):
        a = make_record(ip="1.1.1.1", ua="UA-1")
        b = make_record(ip="1.1.1.1", ua="UA-2")
        assert a.user_key != b.user_key

    def test_user_key_prefers_token_after_anonymisation(self):
        record = make_record(ip="", ip_token="abcd1234abcd1234")
        assert record.user_key.startswith("abcd1234abcd1234")

    def test_viewable_upper_bound(self):
        assert make_record(exposure=1.0).viewable_upper_bound
        assert not make_record(exposure=0.99).viewable_upper_bound

    @pytest.mark.parametrize("overrides", [
        {"record_id": 0},
        {"campaign_id": ""},
        {"url": ""},
        {"exposure_seconds": -1.0},
        {"mouse_moves": -1},
        {"ip": ""},                       # no ip and no token
        {"campaign_id": 7},
        {"user_agent": None},
        {"ip_token": 3},
        {"country": None},
        {"timestamp": float("nan")},
        {"exposure_seconds": float("inf")},
    ])
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            make_record(**overrides)


class TestImpressionStore:
    def test_insert_enforces_sequential_ids(self):
        store = ImpressionStore()
        store.insert(make_record(record_id=store.next_record_id()))
        with pytest.raises(ValueError):
            store.insert(make_record(record_id=5))

    def test_len_and_iteration(self):
        store = ImpressionStore()
        for _ in range(3):
            store.insert(make_record(record_id=store.next_record_id()))
        assert len(store) == 3
        assert len(list(store)) == 3

    def test_campaigns_in_first_seen_order(self):
        store = ImpressionStore()
        for campaign in ("B", "A", "B", "C"):
            store.insert(make_record(record_id=store.next_record_id(),
                                     campaign=campaign))
        assert store.campaigns() == ["B", "A", "C"]

    def test_by_campaign(self):
        store = ImpressionStore()
        for campaign in ("A", "B", "A"):
            store.insert(make_record(record_id=store.next_record_id(),
                                     campaign=campaign))
        assert len(store.by_campaign("A")) == 2
        assert store.by_campaign("missing") == []

    def test_distinct_domains(self):
        store = ImpressionStore()
        for domain in ("a.es", "b.es", "a.es"):
            store.insert(make_record(record_id=store.next_record_id(),
                                     domain=domain))
        assert store.distinct_domains() == {"a.es", "b.es"}

    def test_by_user_grouping(self):
        store = ImpressionStore()
        for ip, ua in (("1.1.1.1", "X"), ("1.1.1.1", "X"), ("1.1.1.1", "Y")):
            store.insert(make_record(record_id=store.next_record_id(),
                                     ip=ip, ua=ua))
        grouped = store.by_user()
        assert sorted(len(records) for records in grouped.values()) == [1, 2]

    def test_where_predicate(self):
        store = ImpressionStore()
        store.insert(make_record(record_id=1, exposure=0.5))
        store.insert(make_record(record_id=2, exposure=5.0))
        viewable = store.where(lambda record: record.viewable_upper_bound)
        assert [record.record_id for record in viewable] == [2]

    def test_replace_at_updates_in_place(self):
        store = ImpressionStore()
        store.insert(make_record(record_id=1))
        store.replace_at(0, make_record(record_id=1, exposure=9.0))
        assert next(iter(store)).exposure_seconds == 9.0


class TestPersistence:
    def test_jsonl_roundtrip(self, tmp_path):
        store = ImpressionStore()
        store.insert(make_record(record_id=1, ip="", ip_token="t" * 16,
                                 is_datacenter=True, dc_stage="denylist",
                                 global_rank=42))
        store.insert(make_record(record_id=2, mouse_moves=3, clicks=1,
                                 truncated=True))
        path = tmp_path / "impressions.jsonl"
        assert store.dump_jsonl(path) == 2
        loaded = ImpressionStore.load_jsonl(path)
        assert len(loaded) == 2
        original = list(store)
        restored = list(loaded)
        assert original == restored

    def test_load_rejects_corrupt_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"not": "a record"}\n')
        with pytest.raises(ValueError) as caught:
            ImpressionStore.load_jsonl(path)
        assert str(caught.value) == (
            f"{path}:1: bad record: ImpressionRecord.__init__() got an "
            f"unexpected keyword argument 'not'")

    def test_load_canonicalises_mistyped_values(self):
        # JSON written by another tool may carry valid values under the
        # wrong JSON type; the loaded record dumps back canonically.
        line = json.dumps(dict(
            LINE, record_id=2.0, timestamp=5, truncated=1,
            pixels_in_view=0, global_rank=7.0, is_datacenter=1,
            clicks=True))
        assert ImpressionStore.loads_jsonl(line).dumps_jsonl() == (
            '{"campaign_id": "c-1", "clicks": 1, "country": "", '
            '"creative_id": "cr-1", "dc_stage": "", '
            '"exposure_seconds": 2.0, "global_rank": 7, "ip": "1.2.3.4", '
            '"ip_token": "", "is_datacenter": true, "mouse_moves": 0, '
            '"pixels_in_view": false, "provider": "", "record_id": 2, '
            '"timestamp": 5.0, "truncated": true, '
            '"url": "http://a.example/x", "user_agent": "UA-1"}\n')

    @pytest.mark.parametrize("text, message", [
        ('{"record_id": 1,',
         "Expecting property name enclosed in double quotes: "
         "line 1 column 17 (char 16)"),
        (json.dumps(dict(LINE, bogus=1)),
         "ImpressionRecord.__init__() got an unexpected keyword argument "
         "'bogus'"),
        (json.dumps({k: v for k, v in LINE.items() if k != "url"}),
         "ImpressionRecord.__init__() missing 1 required positional "
         "argument: 'url'"),
        (json.dumps(dict(LINE, record_id=None)),
         "int() argument must be a string, a bytes-like object or a real "
         "number, not 'NoneType'"),
        (json.dumps(dict(LINE, exposure_seconds=-1.0)),
         "exposure_seconds must be non-negative"),
        (json.dumps(dict(LINE, url=5)), "url must be a string"),
        (json.dumps(dict(LINE, user_agent=None)),
         "user_agent must be a string"),
        (json.dumps(dict(LINE, timestamp=float("nan"))),
         "timestamp must be finite"),
        (json.dumps(dict(LINE, exposure_seconds=float("inf"))),
         "exposure_seconds must be finite"),
        (json.dumps(dict(LINE, exposure_seconds=float("-inf"))),
         "exposure_seconds must be non-negative"),
        ('{"record_id": 1} {}', "Extra data: line 1 column 18 (char 17)"),
        ("\ufeff{}", "Unexpected UTF-8 BOM (decode using utf-8-sig): "
         "line 1 column 1 (char 0)"),
    ] + [(json.dumps({**FULL_LINE, name: value}), message)
         for name, value, message in UNSTORABLE],
        ids=["bad-json", "unknown-key", "missing-key", "null-record-id",
             "negative-exposure", "url-not-string", "null-user-agent",
             "nan-timestamp", "infinite-exposure", "minus-infinite-exposure",
             "extra-data", "byte-order-mark"] + UNSTORABLE_IDS)
    def test_load_error_text(self, text, message):
        with pytest.raises(ValueError) as caught:
            ImpressionStore.loads_jsonl(f"\n{text}\n", source="d.jsonl")
        assert str(caught.value) == f"d.jsonl:2: bad record: {message}"

    @pytest.mark.parametrize("backend", [_ColumnarStore, _RowStore])
    @pytest.mark.parametrize("name, value, message", UNSTORABLE,
                             ids=UNSTORABLE_IDS)
    def test_unstorable_value_fails_located_everywhere(
            self, tmp_path, backend, name, value, message):
        # Both backings and both entry paths refuse the line with its
        # location; none lets an exception from a column escape.
        text = (json.dumps(FULL_LINE) + "\n"
                + json.dumps({**FULL_LINE, "record_id": 2, name: value})
                + "\n")
        path = tmp_path / "d.jsonl"
        path.write_text(text, encoding="utf-8")
        for load in (lambda: backend.loads_jsonl(text, source=str(path)),
                     lambda: backend.load_jsonl(path)):
            with pytest.raises(ValueError) as caught:
                load()
            assert str(caught.value) == f"{path}:2: bad record: {message}"

    def test_dump_writes_strict_json(self):
        # A non-finite value can only reach the columns through a raw
        # column payload; the dump refuses to write it as a bare token.
        store = _ColumnarStore()
        store.insert(make_record(record_id=1))
        payload = list(store.export_columns())
        payload[4] = array("d", [float("nan")])      # the timestamps
        poisoned = _ColumnarStore()
        poisoned.absorb_columns(tuple(payload))
        with pytest.raises(ValueError, match="not JSON compliant"):
            poisoned.dumps_jsonl()

    def test_load_skips_blank_lines(self, tmp_path):
        store = ImpressionStore()
        store.insert(make_record(record_id=1))
        path = tmp_path / "ok.jsonl"
        store.dump_jsonl(path)
        path.write_text(path.read_text() + "\n\n")
        assert len(ImpressionStore.load_jsonl(path)) == 1

    def test_filtered_dump_with_gapped_ids_reloads(self):
        # Regression: a dump made from a filtered store (ids 2, 5, 9 —
        # non-contiguous, first id > 1) used to be rejected on reload.
        store = ImpressionStore()
        for index in range(1, 10):
            store.insert(make_record(record_id=index,
                                     exposure=float(index)))
        text = "\n".join(
            line for line in store.dumps_jsonl().splitlines()
            if json.loads(line)["record_id"] in (2, 5, 9)) + "\n"
        loaded = ImpressionStore.loads_jsonl(text)
        assert [record.record_id for record in loaded] == [2, 5, 9]
        assert loaded.next_record_id() == 10

    def test_loaded_store_allocates_after_max_id(self):
        store = ImpressionStore()
        store.insert(make_record(record_id=1))
        store.insert(make_record(record_id=2))
        loaded = ImpressionStore.loads_jsonl(store.dumps_jsonl())
        loaded.insert(make_record(record_id=loaded.next_record_id()))
        assert [record.record_id for record in loaded] == [1, 2, 3]

    def test_load_rejects_non_increasing_ids(self):
        store = ImpressionStore()
        store.insert(make_record(record_id=1))
        store.insert(make_record(record_id=2))
        lines = store.dumps_jsonl().splitlines()
        decreasing = "\n".join([lines[1], lines[0]]) + "\n"
        with pytest.raises(ValueError, match="strictly increasing"):
            ImpressionStore.loads_jsonl(decreasing)

    def test_load_rejects_duplicate_ids_distinctly(self):
        # A repeated id is its own error class (satellite of the fault
        # layer: duplicate records are a dedup bug, not a sort bug) and
        # names the offending line and id.
        store = ImpressionStore()
        store.insert(make_record(record_id=1))
        line = store.dumps_jsonl()
        with pytest.raises(ValueError,
                           match=r"<string>:2: duplicate record id 1"):
            ImpressionStore.loads_jsonl(line + line)

    def test_string_and_path_roundtrips_agree(self, tmp_path):
        store = ImpressionStore()
        store.insert(make_record(record_id=1, mouse_moves=2))
        path = tmp_path / "impressions.jsonl"
        store.dump_jsonl(path)
        assert path.read_text(encoding="utf-8") == store.dumps_jsonl()


class TestMergeSupport:
    def test_extend_reindexed_renumbers_contiguously(self):
        left = ImpressionStore()
        left.insert(make_record(record_id=1, campaign="A"))
        right = ImpressionStore()
        right.insert(make_record(record_id=1, campaign="B"))
        right.insert(make_record(record_id=2, campaign="B"))
        merged = ImpressionStore()
        assert merged.extend_reindexed(left) == 1
        assert merged.extend_reindexed(right) == 2
        assert [record.record_id for record in merged] == [1, 2, 3]
        assert merged.campaigns() == ["A", "B"]

    def test_merged_dump_roundtrips(self):
        merged = ImpressionStore()
        for campaign in ("A", "B", "C"):
            source = ImpressionStore()
            source.insert(make_record(record_id=1, campaign=campaign))
            merged.extend_reindexed(source)
        loaded = ImpressionStore.loads_jsonl(merged.dumps_jsonl())
        assert list(loaded) == list(merged)


class TestSealing:
    def test_sealed_store_rejects_insert(self):
        store = ImpressionStore()
        store.insert(make_record(record_id=1))
        assert store.seal() is store
        assert store.sealed
        with pytest.raises(StoreSealedError):
            store.insert(make_record(record_id=2))

    def test_sealed_store_rejects_replace(self):
        store = ImpressionStore()
        store.insert(make_record(record_id=1))
        store.seal()
        with pytest.raises(StoreSealedError):
            store.replace_at(0, make_record(record_id=1, exposure=9.0))

    def test_sealed_store_still_queryable_and_dumpable(self):
        store = ImpressionStore()
        store.insert(make_record(record_id=1))
        store.seal()
        assert len(store) == 1
        assert store.campaigns() == ["Research-010"]
        assert store.dumps_jsonl()

    def test_loaded_copy_of_sealed_store_is_mutable(self):
        store = ImpressionStore()
        store.insert(make_record(record_id=1))
        store.seal()
        copy = ImpressionStore.loads_jsonl(store.dumps_jsonl())
        copy.insert(make_record(record_id=copy.next_record_id()))
        assert len(copy) == 2
