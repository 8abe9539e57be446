"""Tests for the perf benchmark's result comparison (compare.py)."""

import json

import compare

BENCH = {"end_to_end": [
    {"name": "units_per_s", "unit": "units/s", "better": "higher",
     "bound": 0.10},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.20},
]}


def document(units, setup, attempted=4, failed=0):
    return {"workloads": {"paper_serial": {
        "attempted": attempted, "failed": failed,
        "metrics": {"units_per_s": {"value": units, "unit": "units/s"},
                    "setup_s": {"value": setup, "unit": "s"}}}}}


def verdicts(a, b):
    rows, failures = compare.compare(a, b, BENCH)
    return {row.metric: row.verdict for row in rows}, failures


PARENT = [document(100.0, 1.00), document(101.0, 1.02),
          document(99.0, 0.98)]


def test_same_commit_agrees():
    found, failures = verdicts(PARENT, [document(100.5, 1.01),
                                        document(99.5, 0.99),
                                        document(100.0, 1.00)])
    assert found == {"units_per_s": "same", "setup_s": "same"}
    assert failures == []


def test_regression_beyond_the_bound():
    found, _ = verdicts(PARENT, [document(85.0, 1.30), document(86.0, 1.31),
                                 document(84.0, 1.29)])
    assert found == {"units_per_s": "regression", "setup_s": "regression"}


def test_win_beyond_the_bound():
    found, _ = verdicts(PARENT, [document(130.0, 0.70)])
    assert found == {"units_per_s": "win", "setup_s": "win"}


def test_consistent_small_win_within_the_bound():
    found, _ = verdicts(PARENT, [document(104.0, 1.0), document(105.0, 1.0),
                                 document(106.0, 1.0)])
    assert found["units_per_s"] == "win"
    assert found["setup_s"] == "same"


def test_wide_spread_is_unresolved():
    noisy = [document(100.0, 1.0), document(140.0, 1.0), document(70.0, 1.0),
             document(120.0, 1.0)]
    found, _ = verdicts(noisy, [document(95.0, 1.0), document(99.0, 1.0)])
    assert found["units_per_s"] == "unresolved"
    assert found["setup_s"] == "same"


def test_rise_in_failed_ops_is_a_failure():
    _, failures = verdicts(PARENT, [document(100.0, 1.0, failed=1)])
    assert failures == ["paper_serial: failed ops rose from 0.0% to 25.0%"]


def _real_document(tmp_path, name, scale):
    benchmark = json.loads(compare.BENCHMARK.read_text(encoding="utf-8"))
    metrics = {metric["name"]: {"value": scale, "unit": metric["unit"]}
               for metric in benchmark["end_to_end"]}
    path = tmp_path / name
    path.write_text(json.dumps({"workloads": {"paper_serial": {
        "attempted": 1, "failed": 0, "metrics": metrics}}}),
        encoding="utf-8")
    return str(path)


def test_main_exit_code(tmp_path, capsys):
    a = _real_document(tmp_path, "a.json", 1.0)
    same = _real_document(tmp_path, "same.json", 1.0)
    worse = _real_document(tmp_path, "worse.json", 2.0)
    assert compare.main([a, "--", same]) == 0
    assert compare.main([a, "--", worse]) == 1
    assert "regression" in capsys.readouterr().out
    assert compare.main([a]) == 2
