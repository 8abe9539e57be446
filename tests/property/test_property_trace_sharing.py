"""Property test: shared attribute freezing changes no value, only identity.

``Tracer.commit`` keeps attribute dicts raw; ``TraceArchive.traces``
freezes them through one table per call.  The oracle is the
per-pair freeze: ``(key, _attr_str(value))`` for every attribute, with no
sharing.  Frozen attributes must equal it exactly — values that compare
or hash alike (``True``, ``1``, ``1.0``; ``0.0``, ``-0.0``; ``nan``) still
freeze to their own strings — while equal strings, pairs and attribute
tuples come back as one object.  Slotted spans and traces must also
survive pickle, ``copy.deepcopy`` and ``dataclasses.replace``.
"""

import copy
import math
import pickle
from dataclasses import replace
from enum import Enum, IntEnum

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.trace import Tracer, _attr_str
from tests.obs.test_trace import sealed_traces


def per_pair_freeze(attrs: dict) -> tuple:
    """The freeze without sharing: one fresh pair per attribute."""
    return tuple([(key, _attr_str(value)) for key, value in attrs.items()])


def assert_shared(frozen_attrs) -> None:
    """Equal strings, pairs and attribute tuples are one object."""
    seen: dict = {}
    for attrs in frozen_attrs:
        assert seen.setdefault(attrs, attrs) is attrs
        for pair in attrs:
            assert seen.setdefault(pair, pair) is pair
            for text in pair:
                assert seen.setdefault(text, text) is text


values = st.one_of(
    st.sampled_from([True, False, 1, 0, 1.0, 0.0, -0.0, math.nan, math.inf,
                     -math.inf, "1", "true", "0", "x" * 300]),
    st.integers(-10**6, 10**6),
    st.floats(),
    st.text(max_size=8),
    st.text(min_size=64, max_size=128),
)


def with_copied_value(parts) -> dict:
    """Optionally repeat one value under a second key."""
    attrs, copy_first = parts
    if copy_first and attrs:
        attrs["copy"] = next(iter(attrs.values()))
    return attrs


attr_dicts = st.tuples(
    st.dictionaries(st.sampled_from(["campaign", "ok", "latency", "reason"]),
                    values, max_size=4),
    st.booleans(),
).map(with_copied_value)

TYPE_TWINS = [{"v": True}, {"v": 1}, {"v": 1.0}, {"v": 0.0}, {"v": -0.0},
              {"v": math.nan}, {"v": "true", "copy": "true"}]


def traces_with(dicts):
    """One trace per dict, attributes on two spans, sealed and read."""
    tracer = Tracer(seed=3, scope="P/XX/0")
    for index, attrs in enumerate(dicts):
        tracer.start("impression", at=float(index), **attrs)
        tracer.event("ws.frame", at=float(index), **attrs)
        tracer.set_impression(index, "C1")
        tracer.set_record(index)
        tracer.commit()
    return sealed_traces(tracer.recorder)


@settings(max_examples=200, deadline=None)
@given(st.lists(attr_dicts, max_size=8))
@example(TYPE_TWINS)
def test_commit_freezes_like_the_per_pair_oracle_and_shares(dicts):
    traces = traces_with(dicts)
    frozen = [span.attrs for trace in traces for span in trace.spans]
    assert frozen == [per_pair_freeze(attrs)
                      for attrs in dicts for _ in range(2)]
    assert_shared(frozen)


def test_type_twins_freeze_to_their_own_strings():
    traces = traces_with(TYPE_TWINS)
    assert [trace.root.attrs for trace in traces] == [
        (("v", "true"),), (("v", "1"),), (("v", "1"),), (("v", "0"),),
        (("v", "-0"),), (("v", "nan"),),
        (("v", "true"), ("copy", "true"))]


@settings(max_examples=50, deadline=None)
@given(st.lists(attr_dicts, min_size=1, max_size=4))
def test_slotted_records_round_trip(dicts):
    traces = traces_with(dicts)
    for trace in traces:
        assert not hasattr(trace, "__dict__")
        for span in trace.spans:
            assert not hasattr(span, "__dict__")
            assert replace(span) == span
            assert replace(span, end=span.end + 1).end == span.end + 1
        assert copy.deepcopy(trace) == trace
        assert replace(trace, record_id=None).record_id is None
    back = pickle.loads(pickle.dumps(traces, pickle.HIGHEST_PROTOCOL))
    assert back == traces
    # Pickle keeps the commit-time sharing inside one blob.
    assert_shared([span.attrs for trace in back for span in trace.spans])


class Level(IntEnum):
    LOW = 1


class Colour(str, Enum):
    RED = "red"


class Celsius(float):
    pass


class Counted:
    """Stringifies to a fixed text and counts how often it was asked."""

    def __init__(self) -> None:
        self.calls = 0

    def __str__(self) -> str:
        self.calls += 1
        return "counted"


non_builtin = st.one_of(
    st.sampled_from([Level.LOW, Colour.RED]),
    st.floats(allow_nan=False).map(Celsius),
    st.lists(st.sampled_from([1, "a", Level.LOW]), max_size=3),
    st.builds(Counted),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(non_builtin, min_size=1, max_size=6))
def test_non_builtin_values_are_stringified_once_at_commit(values):
    """Values marshal cannot keep raw read back as their commit-time
    ``_attr_str``, however often they are read or mutated later."""
    expected = [_attr_str(value) for value in values]
    for value in values:
        if isinstance(value, Counted):
            value.calls = 0
    tracer = Tracer(seed=3, scope="P/XX/0")
    tracer.start("impression", at=0.0)
    for index, value in enumerate(values):
        tracer.event("ws.frame", at=float(index), value=value)
    tracer.set_impression(0, "C1")
    tracer.set_record(0)
    tracer.commit()
    for value in values:
        if isinstance(value, list):
            value.append(99)    # a drift after commit must not show
    for _ in range(2):
        trace = sealed_traces(tracer.recorder)[0]
        assert [span.attr("value") for span in trace.spans_named(
            "ws.frame")] == expected
    counted = [value for value in values if isinstance(value, Counted)]
    assert all(value.calls == values.count(value) for value in counted)
