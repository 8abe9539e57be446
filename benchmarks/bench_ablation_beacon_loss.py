"""Ablation A3 — beacon loss model: script blocking 0 % vs 15 % vs 30 %.

The paper reports its methodology missed 16.5 % of publishers (§4.2,
footnote 2).  This ablation sweeps the publisher-level script-blocking
rate and measures the audit's blind spot (vendor-reported publishers the
beacon never logged), re-running the miniature pipeline per setting.
"""

import dataclasses

from repro.audit.brand_safety import BrandSafetyAudit
from repro.experiments.config import paper_experiment
from repro.experiments import ExperimentRunner
from repro.util.tables import render_table

ABLATION_SCALE = 0.02
RATES = (0.0, 0.15, 0.30)


def _run(rate: float):
    config = dataclasses.replace(paper_experiment(scale=ABLATION_SCALE),
                                 script_blocking_fraction=rate)
    result = ExperimentRunner(config).run()
    venn = BrandSafetyAudit(result.dataset).venn(None)
    return result, venn


def test_ablation_beacon_loss(benchmark, bench_output):
    results = {}
    for rate in RATES[1:]:
        results[rate] = _run(rate)
    # Benchmark the zero-loss run (same cost as any other single run).
    results[0.0] = benchmark.pedantic(_run, args=(0.0,), rounds=1,
                                      iterations=1)

    rows = []
    for rate in RATES:
        result, venn = results[rate]
        logged_share = result.stats["logged"] / result.stats["delivered"]
        rows.append([f"{rate:.0%}", f"{logged_share:.1%}",
                     str(venn.unlogged_by_audit)])
    text = render_table(
        ["Publisher script blocking", "Impressions logged",
         "Vendor publishers unlogged by audit"],
        rows, title="Ablation A3: beacon loss model")
    bench_output("ablation_beacon_loss.txt", text)
    print("\n" + text)

    shares = [results[rate][0].stats["logged"]
              / results[rate][0].stats["delivered"] for rate in RATES]
    # More blocking -> fewer logged impressions, monotonically.
    assert shares[0] > shares[1] > shares[2]
    # The audit blind spot grows with the blocking rate.
    blind = [results[rate][1].unlogged_by_audit.pct for rate in RATES]
    assert blind[2] > blind[0]
