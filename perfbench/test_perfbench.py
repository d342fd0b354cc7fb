"""Tests of the benchmark's tracer, cell checks and metric definitions.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

import cells
import tracer as tracing
import worker
from flatopt import cli, harness, landscapes, optim, polar

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Counters later changes may cite as exact counts; they must not depend on the seed.
EXACT_COUNTERS = (
    "polar.ns_polar.calls_per_step.muon", "polar.ns_polar.calls_per_step.muon_lite",
    "polar.ns_polar.dup_frac", "polar.ns_polar.dup_frac.muon_lite",
    "landscapes.forward_passes_per_step", "landscapes.unpack.calls",
    "linalg.qr_decompose.calls", "landscapes.grad_on_batch.calls", "rng.normal.values",
)


def traced_cell(workload, seed, cell_dir):
    calls = cells.make_cell(cells.WORKLOADS[workload], seed, cell_dir)
    plain = cells.run_cell(calls)
    with tracing.Tracer() as tracer:
        traced = cells.run_cell(calls, tracer)
    return calls, plain, traced, tracer


@pytest.mark.parametrize("workload", ["sweep_elementwise", "analysis"])
def test_traced_outputs_are_byte_identical(tmp_path, workload):
    calls, plain, traced, _ = traced_cell(workload, 11, tmp_path)
    assert plain.errors == [] and traced.errors == []
    assert traced.digest == plain.digest
    assert any(call.csv is not None for call in calls)


def test_uninstall_restores_every_binding():
    original = polar.ns_polar
    assert optim.ns_polar is original
    pack, run_experiment = landscapes.Landscape.pack, harness.run_experiment
    with tracing.Tracer():
        assert polar.ns_polar is not original
        assert optim.ns_polar is polar.ns_polar
        assert cli.run_experiment is harness.run_experiment is not run_experiment
        assert tracing.leftover_wrappers()
    assert optim.ns_polar is polar.ns_polar is original
    assert cli.run_experiment is harness.run_experiment is run_experiment
    assert landscapes.Landscape.pack is pack
    assert tracing.leftover_wrappers() == []


def test_calls_through_every_namespace_are_counted(tmp_path):
    # ns_polar is reached as optim.ns_polar from the stepper and as the
    # polar-module global inside composite_sharp_projection
    calls, _, _, tracer = traced_cell("sweep_elementwise", 3, tmp_path)
    folded = tracer.fold()
    metrics = worker.layer_metrics(folded, tracer.counts, calls)
    steps = cells.WORKLOADS["sweep_elementwise"].steps
    assert folded[("run:muon_lite", "polar.ns_polar")][0] == 4 * steps
    assert folded[("run:muon_lite", "polar.composite_sharp_projection")][0] == steps
    assert metrics["polar.ns_polar.calls_per_step.muon_lite"] == 4
    assert metrics["polar.ns_polar.calls_per_step.muon"] == 1
    assert metrics["polar.ns_polar.dup_frac.muon_lite"] == 0.25
    assert metrics["harness.run_experiment.calls"] == len(calls)
    assert metrics["cli.main.calls"] == len(calls)


def test_self_time_excludes_child_spans():
    t = tracing.Tracer()
    t.spans[:] = [("outer", 0.0, 10.0, -1, "c"), ("inner", 2.0, 5.0, 0, "c"),
                  ("inner", 6.0, 7.0, 0, "c")]
    folded = t.fold()
    assert folded[("c", "outer")] == [1, 6.0]
    assert folded[("c", "inner")] == [2, 4.0]
    assert t.spans == []


def test_exact_counters_repeat_across_seeds(tmp_path):
    seen = []
    for seed in (5, 6):
        calls, _, _, tracer = traced_cell("analysis", seed, tmp_path / str(seed))
        metrics = worker.layer_metrics(tracer.fold(), tracer.counts, calls)
        seen.append({name: metrics[name] for name in EXACT_COUNTERS})
    assert seen[0] == seen[1]
    assert seen[0]["landscapes.grad_on_batch.calls"] > 0


def test_cell_check_rejects_a_wrong_row_count(tmp_path):
    calls = cells.make_cell(cells.WORKLOADS["sweep_elementwise"], 1, tmp_path)
    calls[0].steps += 1
    result = cells.run_cell(calls)
    assert any("CSV lines" in e for e in result.errors)


def test_polar_check_matrix_has_the_criterion_2_spectrum():
    matrix = cells._gapped_matrix(np.random.default_rng(0), *cells.POLAR_SHAPE)
    sigma = np.linalg.svd(matrix, compute_uv=False)
    assert 0.05 <= sigma.min() and sigma.max() <= 1.0 + 1e-12


def test_benchmark_json_names_every_metric_produced(tmp_path):
    calls, _, _, tracer = traced_cell("sweep_elementwise", 2, tmp_path)
    produced = set(worker.layer_metrics(tracer.fold(), tracer.counts, calls))
    produced.add("trace.overhead_frac")
    assert produced == {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {"setup_s", "cell_s_p50", "cell_s_tail", "cells_per_s", "peak_rss_mb"}
    end_to_end |= {f"step_ms.{family}" for family in cells.FAMILIES}
    assert end_to_end == {m["name"] for m in SPEC["end_to_end"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(cells.WORKLOADS)


def test_every_per_layer_metric_has_one_pairing():
    pairings = json.loads((HERE / "pairings.json").read_text())
    names = [name for entry in pairings["per_layer"] for name in entry["metrics"]]
    assert sorted(names) == sorted(m["name"] for m in SPEC["per_layer"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in pairings["per_layer"]:
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= set(cells.WORKLOADS)
    assert set(pairings["workloads"]) == set(cells.WORKLOADS)
