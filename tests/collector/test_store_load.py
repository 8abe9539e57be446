"""The chunked JSONL load against the per-line load it replaces.

``ImpressionStore`` loads a dump in chunks of lines: a chunk of
canonical, valid lines is decoded, checked and appended a column at a
time, and any other chunk goes line by line.  The oracle here is the
per-line algorithm, kept in the tests: every line decoded, built into a
record (which checks it) and appended on its own.  Over generated mixes
of canonical lines, valid non-canonical lines and invalid lines placed
at the first and last line of a chunk and just past it, both loads must
leave the same columns (string table included) and raise the same error
naming the same ``source:line``.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.store import _LOAD_CHUNK, ImpressionRecord, ImpressionStore

CHUNK = _LOAD_CHUNK


def per_line_load(text: str, source: str) -> ImpressionStore:
    """The oracle: the load one line at a time."""
    store = ImpressionStore()
    last_id = 0
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = ImpressionRecord(**json.loads(line))
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{source}:{line_number}: bad record: {exc}") from exc
        if record.record_id == last_id:
            raise ValueError(f"{source}:{line_number}: duplicate record id "
                             f"{record.record_id}")
        if record.record_id < last_id:
            raise ValueError(
                f"{source}:{line_number}: record ids must be strictly "
                f"increasing ({record.record_id} after {last_id})")
        store._data.append_record(record)
        store._appends.inc()
        last_id = record.record_id
    store._next_id = last_id + 1
    return store


def state(store: ImpressionStore) -> tuple:
    """Everything a load leaves: columns, string table, counters."""
    return (store.export_columns(), store.next_record_id(),
            store._appends.value)


def outcome(load):
    try:
        return state(load())
    except ValueError as exc:
        return "ValueError", str(exc)


#: A few valid records; lines differ in ids and in how they are written.
base_records = st.fixed_dictionaries({
    "campaign_id": st.sampled_from(["c-1", "c-2", "Research-010"]),
    "creative_id": st.sampled_from(["cr-1", "cr-2"]),
    "url": st.sampled_from(["http://a.example/x", "c.example",
                            "https://B.Example:8080/y/z", "http://a.example/q"]),
    "user_agent": st.sampled_from(["UA-1", "UA-2 (X11)"]),
    "identity": st.sampled_from([("1.2.3.4", ""), ("", "tok-a"),
                                 ("", "tok-b")]),
    "timestamp": st.floats(0.0, 2e9),
    "exposure_seconds": st.floats(0.0, 60.0),
    "mouse_moves": st.integers(0, 2**32 - 1),
    "clicks": st.integers(0, 3),
    "truncated": st.booleans(),
    "pixels_in_view": st.sampled_from([None, True, False]),
    "provider": st.sampled_from(["", "Hosting Co"]),
    "country": st.sampled_from(["", "ES"]),
    "global_rank": st.sampled_from([None, 0, 500, -(2**63), 2**63 - 1]),
    "is_datacenter": st.sampled_from([None, True, False]),
    "dc_stage": st.sampled_from(["", "maxmind"]),
})


def record_dict(base: dict, record_id: int) -> dict:
    values = dict(base, record_id=record_id)
    values["ip"], values["ip_token"] = values.pop("identity")
    return values


#: Ways to write a valid record: as a dump does, or not canonically.
VALID_FORMS = {
    "canonical": lambda values: values,
    "int_in_float": lambda values: {
        **values, "timestamp": int(values["timestamp"])},
    "float_in_int": lambda values: {
        **values, "clicks": float(values["clicks"])},
    "int_as_bool": lambda values: {
        **values, "truncated": int(values["truncated"])},
    "default_dropped": lambda values: {
        name: value for name, value in values.items() if name != "dc_stage"},
}

#: Ways to break a record, each refused by the per-line load.
INVALID_FORMS = {
    "duplicate_id": lambda values, last: {**values, "record_id": last},
    "decreasing_id": lambda values, last: {
        **values, "record_id": max(1, last - 1)},
    "zero_id": lambda values, last: {**values, "record_id": 0},
    "negative_exposure": lambda values, last: {
        **values, "exposure_seconds": -0.5},
    "nan": lambda values, last: {**values, "timestamp": math.nan},
    "infinite_exposure": lambda values, last: {
        **values, "exposure_seconds": math.inf},
    "bad_url": lambda values, last: {**values, "url": "http:///x"},
    "empty_campaign": lambda values, last: {**values, "campaign_id": ""},
    "no_identity": lambda values, last: {**values, "ip": "", "ip_token": ""},
    "str_in_int": lambda values, last: {**values, "clicks": "2"},
    "list_value": lambda values, last: {**values, "user_agent": ["UA"]},
    "huge_count": lambda values, last: {**values, "mouse_moves": 2**32},
    "huge_rank": lambda values, last: {**values, "global_rank": 2**63},
    "extra_field": lambda values, last: {**values, "domain": "a.example"},
}
#: Line-level breakage: the line is no single JSON object.
BROKEN_LINES = {
    "truncated_json": lambda line: line[:-1],
    "two_objects": lambda line: line + line,
    "not_an_object": lambda line: "[1, 2]",
}

#: Line indexes at and around the chunk boundaries.
BOUNDARIES = (0, CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK)


@st.composite
def dumps(draw):
    """JSONL text: canonical lines with up to four valid non-canonical or
    blank lines and up to two invalid ones, often on chunk boundaries."""
    pool = draw(st.lists(base_records, min_size=1, max_size=4))
    count = draw(st.integers(1, 2 * CHUNK + 8))
    positions = st.sampled_from(BOUNDARIES) | st.integers(0, count - 1)
    forms = ["canonical"] * count
    for position, form in draw(st.lists(st.tuples(
            positions, st.sampled_from(sorted(VALID_FORMS) + ["blank"])),
            max_size=4)):
        if position < count:
            forms[position] = form
    breaks = draw(st.lists(st.tuples(
        positions, st.sampled_from(sorted(INVALID_FORMS)
                                   + sorted(BROKEN_LINES))),
        max_size=2))
    broken = {position: form for position, form in breaks}
    gaps = draw(st.lists(st.integers(1, 3), min_size=count, max_size=count))
    lines, last_id = [], 0
    for index, form in enumerate(forms):
        if form == "blank" and index not in broken:
            lines.append(draw(st.sampled_from(["", "  "])))
            continue
        values = record_dict(pool[index % len(pool)], last_id + gaps[index])
        if form != "blank":
            values = VALID_FORMS[form](values)
        kind = broken.get(index)
        if kind in INVALID_FORMS:
            values = INVALID_FORMS[kind](values, last_id)
        line = json.dumps(values, sort_keys=form == "canonical")
        if kind in BROKEN_LINES:
            line = BROKEN_LINES[kind](line)
        lines.append(line)
        if isinstance(values.get("record_id"), int):
            last_id = max(last_id, values["record_id"])
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(text=dumps())
def test_chunked_load_matches_per_line_load(text):
    assert outcome(lambda: ImpressionStore.loads_jsonl(text, "dump.jsonl")) \
        == outcome(lambda: per_line_load(text, "dump.jsonl"))


def canonical_lines(count: int, first_id: int = 1) -> list[str]:
    return [json.dumps(record_dict({
        "campaign_id": f"c-{index % 3}", "creative_id": "cr-1",
        "url": f"http://p{index % 5}.example/{index}", "user_agent": "UA-1",
        "identity": ("", f"tok-{index % 7}"), "timestamp": 1_000.0 + index,
        "exposure_seconds": 0.5 * index, "mouse_moves": index, "clicks": 0,
        "truncated": False, "pixels_in_view": None, "provider": "",
        "country": "ES", "global_rank": index or None,
        "is_datacenter": index % 4 == 0, "dc_stage": "cleared",
    }, first_id + index), sort_keys=True) for index in range(count)]


@pytest.mark.parametrize("position", BOUNDARIES + (2 * CHUNK + 7,))
@pytest.mark.parametrize("kind", sorted(INVALID_FORMS) + sorted(BROKEN_LINES))
def test_each_bad_line_at_each_chunk_boundary(kind, position):
    # Every other line canonical, so the bad line's chunk is the only one
    # the per-line path sees.
    lines = canonical_lines(2 * CHUNK + 8)
    values = json.loads(lines[position])
    last = values["record_id"] - 1
    if kind in INVALID_FORMS:
        values = INVALID_FORMS[kind](values, last)
    lines[position] = json.dumps(values, sort_keys=True)
    if kind in BROKEN_LINES:
        lines[position] = BROKEN_LINES[kind](lines[position])
    text = "\n".join(lines)
    assert outcome(lambda: ImpressionStore.loads_jsonl(text, "dump.jsonl")) \
        == outcome(lambda: per_line_load(text, "dump.jsonl"))


def test_error_past_a_chunk_names_its_file_line(tmp_path):
    lines = canonical_lines(3 * CHUNK)
    lines[2 * CHUNK] = lines[2 * CHUNK].replace('"clicks": 0', '"clicks": -1')
    path = tmp_path / "dump.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = (f"{path}:{2 * CHUNK + 1}: bad record: interaction counts "
                "must be non-negative")
    try:
        ImpressionStore.load_jsonl(path)
    except ValueError as exc:
        assert str(exc) == expected
    else:
        raise AssertionError("the bad line loaded")


def test_canonical_dump_loads_a_column_at_a_time(monkeypatch):
    # A dump's chunks never reach the per-line path.
    lines = canonical_lines(2 * CHUNK + 5)
    appended = []
    monkeypatch.setattr(
        "repro.collector.store._ColumnData.append_record",
        lambda data, record: appended.append(record))
    store = ImpressionStore.loads_jsonl("\n".join(lines))
    assert appended == []
    assert len(store) == 2 * CHUNK + 5
    assert store.dumps_jsonl() == "".join(line + "\n" for line in lines)
