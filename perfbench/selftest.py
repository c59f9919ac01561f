"""Self-tests of the benchmark harness, at a tiny size.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as cli  # noqa: E402
import pipeline  # noqa: E402
from repro.cubes.cube import TestSet as Cubes  # noqa: E402
from repro.filling.adjfill import AdjacentFill  # noqa: E402
from repro.orderings.xstat_ordering import XStatOrdering  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
W = pipeline.WORKLOADS
TINY = {
    "paper-default": replace(W["paper-default"], profiles=("b01", "b03", "b04"), rounds=1, warmup="b02"),
    "large-cubes": replace(W["large-cubes"], profiles=("b14", "b15"), rounds=1),
    "fullscale-circuits": replace(W["fullscale-circuits"], profiles=("b14",), rounds=1),
}


@pytest.fixture(autouse=True)
def settings(monkeypatch):
    for name, value in cli.SETTINGS.items():
        monkeypatch.setenv(name, value)


def _declared(kind):
    return {metric["name"]: metric["unit"] for metric in BENCH[kind]}


def _printed(capsys, tally, metrics):
    cli.print_result(tally, metrics)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    for name, metric in result["metrics"].items():
        assert f"{name} = {metric['value']!r} {metric['unit']}" in lines
    return result


def test_workload_names_match_benchmark():
    assert [w["name"] for w in BENCH["workloads"]] == list(W)


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_metrics_printed_with_units(capsys, name):
    run = pipeline.run_workload(TINY[name], seed=3, trace=False)
    result = _printed(capsys, run.tally, pipeline.end_to_end(run, import_s=0.1))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(TINY))
def test_per_layer_metrics_printed_with_units(capsys, name):
    run = pipeline.run_workload(TINY[name], seed=3, trace=True)
    result = _printed(capsys, run.tally, pipeline.per_layer(run))
    assert result["correct"]
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == _declared("per_layer")
    assert metrics["core.gap"] == 0
    assert metrics["trace.coverage"] >= 0.9
    # The traced run composes the techniques; its results equal the untraced run's.
    assert pipeline.digest(run.traced) == pipeline.digest(run.results)
    if name == "large-cubes":
        assert metrics["circuit.itc99_like.calls"] == metrics["atpg.generate_test_cubes.calls"] == 0
        assert metrics["power.estimate.calls"] == 0


@pytest.mark.parametrize("workload, profile", [("paper-default", "b03"), ("large-cubes", "b14")])
def test_composed_techniques_equal_apply_technique(workload, profile):
    tally = pipeline.Tally()
    pipeline.check_composition(W[workload], profile, 5, tally)
    assert tally.failed == 0, tally.failures
    assert tally.attempted > 0


def test_broken_filler_counts_as_failed(monkeypatch):
    def drop_care_bits(self, patterns):
        return Cubes.from_matrix(np.zeros_like(patterns.matrix))

    monkeypatch.setattr(AdjacentFill, "fill", drop_care_bits)
    run = pipeline.run_workload(TINY["large-cubes"], seed=3, trace=False)
    metrics = pipeline.end_to_end(run, import_s=0.1)
    assert run.tally.failed > 0
    assert metrics["ok_frac"][0] < 1.0
    assert any("care bit lost" in failure for failure in run.tally.failures)


def test_raising_call_is_counted_and_the_run_goes_on(monkeypatch):
    def broken(self, patterns):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(XStatOrdering, "order", broken)
    run = pipeline.run_workload(TINY["large-cubes"], seed=3, trace=False)
    assert run.tally.failed > 0
    assert len(run.results) == 2
    assert all("XStat" not in r.peaks and "Proposed" in r.peaks for r in run.results)


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(130))
    value, percentile = pipeline.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(100 * 120 / 130)


def test_slowest_quarter_mean():
    assert pipeline.slowest_quarter_mean([5.0, 1.0, 8.0, 2.0, 3.0, 4.0, 7.0, 6.0]) == 7.5
    assert pipeline.slowest_quarter_mean([2.0, 1.0]) == 2.0
