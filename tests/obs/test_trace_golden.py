"""Golden digests of the trace exports, the sim-domain metrics and stats.

The serial-vs-``--jobs`` trace tests compare two runs of the same code,
so a change that moves both sides alike passes them.  These pin the
bytes themselves: SHA-256 of the JSONL and Chrome exports, of one
``explain`` receipt and of the sim-domain metrics snapshot
(``metrics.restrict(SIM).to_json()``, which no benchmark digest covers)
and of ``repr(result.stats)``, which pins every key, value and type, for
seed 2016 at the scale of the shared ``small_result`` experiment
(0.03).  ``trace_jsonl_hostile`` pins the JSONL export of a serial run
under the ``hostile`` fault plan (seed 2016, scale 0.01), the only one
whose traces carry the fault path: ``fault.injected``, ``beacon.retry``,
``transport.drop``, ``beacon.redeliver`` and ``collector.quarantine``.

Digests are keyed by CPython minor version (float formatting and dict
ordering are stable within one); a version with no entry skips.  After
a deliberate change to trace output, copy the new digests from the
failure messages of::

    PYTHONPATH=src python -m pytest -q tests/obs/test_trace_golden.py
"""

import hashlib
import sys

import pytest

from repro.experiments.config import paper_experiment
from repro.experiments import ExperimentRunner
from repro.faults.plan import FaultPlan
from repro.obs.metrics import SIM
from repro.obs.traceio import (
    AuditVerdict,
    dumps_chrome_trace,
    dumps_trace_jsonl,
    render_explain,
)

GOLDEN = {
    (3, 11): {
        "trace_jsonl":
            "6a08870c8c7f75f84dae5e1b919b4515f9ba77c911df8a41c8982a7bc30ffa39",
        "chrome_trace":
            "5ac3be8f47c49a1b69dd3382c1122b3bd0dd8dc6fdf07c8fb5a3a5d164381047",
        "explain":
            "a0f8bae4a49c7089e93fe869c983c57c38ace500d33853e56980d5afac0bcf42",
        "sim_metrics":
            "8089ae1fd19c83ec4fc054ae087c30f60619457ec7a6259d1deb965bbcfd2c60",
        "stats":
            "f1fed4a4452400f6c66e7d5fdfc3d4bf6c386e882541a1b2cda00e5ff1a201a4",
        "trace_jsonl_hostile":
            "559a44cc8d46cd888b33adec843d7e31557251b70f24e5e8027e596a4186aa10",
    },
}


def _receipt(result) -> str:
    """The receipt of the store's first record, with fixed verdicts."""
    record = next(iter(result.dataset.store))
    trace = result.recorder.find_by_record(record.record_id)
    verdicts = [AuditVerdict("viewability", "viewable", "golden"),
                AuditVerdict("fraud", "clean", "golden")]
    return render_explain(trace, verdicts,
                          header_lines=[f"  creative {record.creative_id}"],
                          audit_at=record.timestamp + record.exposure_seconds)


def _jsonl(result) -> str:
    return dumps_trace_jsonl(result.recorder.traces())


#: Export name -> (the fixture giving the run, the export of that run).
EXPORTS = {
    "trace_jsonl": ("small_result", _jsonl),
    "chrome_trace": ("small_result",
                     lambda result: dumps_chrome_trace(
                         result.recorder.traces())),
    "explain": ("small_result", _receipt),
    "sim_metrics": ("small_result",
                    lambda result: result.metrics.restrict(SIM).to_json()),
    "stats": ("small_result", lambda result: repr(result.stats)),
    "trace_jsonl_hostile": ("hostile_result", _jsonl),
}


@pytest.fixture(scope="module")
def hostile_result():
    """A serial run under the hostile fault plan, seed 2016, scale 0.01."""
    return ExperimentRunner(paper_experiment(
        seed=2016, scale=0.01, faults=FaultPlan.preset("hostile"))).run()


@pytest.fixture(scope="module")
def pinned():
    golden = GOLDEN.get(sys.version_info[:2])
    if golden is None:
        pytest.skip(f"no trace digests pinned for CPython "
                    f"{sys.version_info[0]}.{sys.version_info[1]}")
    return golden


@pytest.mark.parametrize("export", sorted(EXPORTS))
def test_trace_export_matches_golden_digest(request, pinned, export):
    fixture, render = EXPORTS[export]
    digest = hashlib.sha256(render(request.getfixturevalue(fixture))
                            .encode("utf-8")).hexdigest()
    assert digest == pinned[export], f"{export} digest is now {digest}"
