"""Tests of the benchmark itself, on small instance sets so they run in seconds."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import bisparse  # noqa: E402
import harness  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    HeadTailDense,
    RankOneSym,
    SweepHeadTail,
    TwoStepFactorized,
)

PREDICTIONS = json.loads((BENCH / "predictions.json").read_text())

# small versions of each workload; seed 2 gives a rank-one map whose solve
# stalls (converged=True) away from the truth, so every predicted metric shows
SMALL = {
    "headtail-dense-n100": lambda: HeadTailDense(maps=1, signals_per_map=2),
    "rankone-sym-n24": lambda: RankOneSym(maps=3),
    "twostep-factorized-n40": lambda: TwoStepFactorized(instances=2),
    "sweep-headtail-n30": lambda: SweepHeadTail(trials_per_cell=1),
}
SEED = 2


def _bindings():
    """Every public attribute of every bisparse namespace and of MeasurementMap."""
    out = {}
    for name, module in sys.modules.items():
        if name == "bisparse" or name.startswith("bisparse."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    for attr, value in vars(bisparse.MeasurementMap).items():
        out[("MeasurementMap", attr)] = value
    return out


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    results = tmp_path_factory.mktemp("results")
    return {name: harness.per_layer(bisparse, make(), SEED, results)
            for name, make in SMALL.items()}


def test_small_workloads_cover_every_registered_workload():
    assert set(SMALL) == set(WORKLOADS)


def test_tracer_wraps_every_binding_and_restores_the_originals():
    before = _bindings()
    tracer = Tracer()
    with tracer:
        assert bisparse.recovery.tail_joint is not before[("bisparse.recovery", "tail_joint")]
        assert bisparse.projections.check_sym is not before[("bisparse.projections", "check_sym")]
        assert bisparse.bench.sample_map is not before[("bisparse.bench", "sample_map")]
        assert bisparse.iht_head_tail is not before[("bisparse", "iht_head_tail")]
        mp = bisparse.sample_map("rank-one", 6, 20, seed=1)
        mp.apply(np.eye(6))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = {tracer.names[fid] for fid, *_ in tracer.spans}
    assert {"measurements.sample_map", "measurements.apply", "symcore.check_sym"} <= names


def test_same_seed_same_instances_other_seed_other_instances():
    for make in SMALL.values():
        wl = make()
        a, b, c = (wl.generate(bisparse, seed) for seed in (5, 5, 6))
        if isinstance(wl, SweepHeadTail):
            assert a == b and a != c
            continue
        assert all(np.array_equal(ua[2], ub[2]) for ua, ub in zip(a, b))
        assert not any(np.array_equal(ua[2], uc[2]) for ua, uc in zip(a, c))


def test_each_predicted_metric_is_nonzero_where_it_should_move(traced):
    for prediction in PREDICTIONS["predictions"]:
        for workload in prediction["on"]:
            metrics = traced[workload][0]["metrics"]
            for name in prediction["metrics"]:
                assert metrics[name]["value"] > 0, (name, workload)


def test_layer_self_times_account_for_the_traced_time(traced):
    for workload, (line, details) in traced.items():
        metrics = line["metrics"]
        layers = sum(metrics[f"{layer}.self_ms"]["value"] for layer in LAYERS)
        assert layers == pytest.approx(details["root_ms"], rel=1e-9)
        assert 0.9 * metrics["trace.traced_ms"]["value"] <= layers
        assert layers <= metrics["trace.traced_ms"]["value"]


def test_traced_runs_are_correct_and_report_every_per_layer_metric(traced):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    for workload, (line, _) in traced.items():
        assert line["correct"] and line["failed"] == 0, workload
        assert set(line["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]


def test_end_to_end_run_reports_every_end_to_end_metric(tmp_path):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]
    wl = SMALL["sweep-headtail-n30"]()
    line, details = harness.end_to_end(bisparse, wl, SEED, 0.0, 0.01, tmp_path)
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == details["timed_solves"] == 3
    assert set(line["metrics"]) == {m["name"] for m in declared}
    assert all(line["metrics"][m["name"]]["value"] > 0 for m in declared)
    # a second run with the same seed must hash the trial CSV identically
    again, _ = harness.end_to_end(bisparse, wl, SEED, 0.0, 0.01, tmp_path)
    assert again["failed"] == 0


def test_a_repeat_that_differs_counts_as_failed():
    class Flaky:
        solves_per_unit = 1
        calls = 0

        def run(self, bs, unit):
            self.calls += 1
            return [harness.Solve(1.0, 1, True, True, str(self.calls))]

    solves, first, _ = harness.run_units(bisparse, Flaky(), [None], seconds=0.0)
    assert len(first) == 1 and first[0].ok
    solves, first, _ = harness.run_units(bisparse, Flaky(), [None, None], seconds=0.05)
    assert len(solves) > 2
    assert not any(s.ok for s in solves[2:])
