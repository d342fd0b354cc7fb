"""One benchmark process: set up, run the warm-up cell, then measure.

``run.py`` starts this module in fresh interpreters with BLAS pinned to one
thread. The process prints ``READY <json>`` once the warm-up (reference)
cell has run, which ends its set-up, and with ``--role measure`` then runs
timed cells back to back until ``--seconds`` have passed and prints
``RESULT <json>``.

With ``--trace 1`` each cell runs twice, untraced and then traced, so that
the traced outputs can be checked byte for byte against the untraced ones
and the tracing overhead measured on the same inputs.

End-to-end times are scaled to a reference machine speed. On the shared
2-core x86-64 host the benchmark was defined on, the speed of one core
drifted by up to a third over minutes, which moves every time in a run
together. Every half second, between cells, the process times a fixed
numpy kernel that runs no flatopt code; times are
multiplied by ``CALIBRATION_REF_S`` over the median kernel time of the run.
A change to flatopt does not move the kernel, so it still moves the scaled
times; the raw times are reported next to them. A ``--role setup`` process
times the kernel after its set-up and prints the factor as ``CALIBRATION``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import cells
from tracer import SPAN_TARGETS, Tracer, metric_name

SPAN_NAMES = tuple(metric_name(module, attr) for module, attr in SPAN_TARGETS)
# Median calibration time on the 2-core x86-64 box the benchmark was defined on.
CALIBRATION_REF_S = 0.0125
CALIBRATION_EVERY_S = 0.5
SETUP_CALIBRATIONS = 8


class Calibration:
    """A fixed mix of small numpy ops, Python dict work and 96-wide matmuls,
    like the cells' own mix, timed between cells."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.square = rng.standard_normal((96, 96)) / 10.0
        self.wide = rng.standard_normal((32, 96))
        self.layers = [rng.standard_normal((8, 8)) / 3.0 for _ in range(3)]
        self.batch = rng.standard_normal((8, 8))
        self.samples = []

    def run(self, reps=200):
        totals = {}
        start = time.perf_counter()
        for i in range(reps):
            h = self.batch
            for w in self.layers:
                h = np.tanh(h @ w)
            totals[i % 7] = totals.get(i % 7, 0.0) + float((h * h).mean())
            y = self.wide @ self.square
            y.T @ y
        self.samples.append(time.perf_counter() - start)

    def factor(self):
        """Scale from this run's machine speed to the reference speed."""
        return CALIBRATION_REF_S / statistics.median(self.samples)


def fingerprint():
    """Facts the CSV bytes depend on: interpreter, numpy, its BLAS and the SIMD
    targets numpy dispatches to on this CPU. numpy before 1.26 cannot report
    its build; those fields then read "unknown"."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
        simd = config["SIMD Extensions"]
        simd = {"baseline": simd["baseline"], "found": simd["found"]}
    except (TypeError, KeyError):
        blas, simd = "unknown", "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "simd": simd,
    }


def layer_metrics(folded, counts, calls):
    """Per-layer metrics of one traced cell from its folded spans and counters."""
    calls_of, self_ms_of = dict.fromkeys(SPAN_NAMES, 0), dict.fromkeys(SPAN_NAMES, 0.0)
    for (_, name), (n, self_s) in folded.items():
        calls_of[name] += n
        self_ms_of[name] += 1e3 * self_s

    def count(name, context=None):
        return sum(v for (ctx, key), v in counts.items()
                   if key == name and (context is None or ctx == context))

    def polar_calls(context):
        return sum(n for (ctx, name), (n, _) in folded.items()
                   if name == "polar.ns_polar" and ctx == context)

    steps = {c.family: c.steps for c in calls if c.family is not None}
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_ms"] = self_ms_of[name]
        out[f"{name}.calls"] = calls_of[name]
    for family in ("muon", "muon_lite"):
        out[f"polar.ns_polar.calls_per_step.{family}"] = polar_calls(f"run:{family}") / steps[family]
    total = calls_of["polar.ns_polar"]
    out["polar.ns_polar.dup_frac"] = count("polar.ns_polar.dups") / total if total else 0.0
    lite = polar_calls("run:muon_lite")
    out["polar.ns_polar.dup_frac.muon_lite"] = (
        count("polar.ns_polar.dups", "run:muon_lite") / lite if lite else 0.0)
    polar_s = self_ms_of["polar.ns_polar"] / 1e3
    out["polar.ns_polar.gflop_per_s"] = (
        count("polar.ns_polar.flops") / polar_s / 1e9 if polar_s else 0.0)
    out["landscapes.forward_passes_per_step"] = (
        sum(count("landscapes.forward", f"run:{family}") for family in steps) / sum(steps.values()))
    out["rng.normal.values"] = count("rng.normal.values")
    return out


def top_self_times(folded, context, k=3):
    """The k largest self times inside one context, as (name, share)."""
    own = {name: self_s for (ctx, name), (_, self_s) in folded.items() if ctx == context}
    total = sum(own.values()) or 1.0
    ranked = sorted(own.items(), key=lambda item: -item[1])[:k]
    return [(name, round(self_s / total, 3)) for name, self_s in ranked]


def measure(workload, seed, seconds, trace, workdir):
    cell_dir = workdir / "cell"
    cell_s, traced_s, step_ms, errors = [], [], {f: [] for f in cells.FAMILIES}, []
    layers, top = {}, {}
    attempted = failed = 0
    calibration = Calibration()
    calibration.run()
    last_calibration = time.perf_counter()
    deadline = last_calibration + seconds
    index = 0
    while time.perf_counter() < deadline:
        if time.perf_counter() - last_calibration >= CALIBRATION_EVERY_S:
            calibration.run()
            last_calibration = time.perf_counter()
        calls = cells.make_cell(workload, cells.cell_seed(workload.name, seed, index), cell_dir)
        plain = cells.run_cell(calls)
        attempted += 1
        failed += bool(plain.errors)
        errors.extend(plain.errors)
        cell_s.append(plain.wall_s)
        for call in calls:
            if call.family is not None:
                step_ms[call.family].append(1e3 * plain.call_s[call.label] / call.steps)
        if trace:
            with Tracer() as tracer:
                traced = cells.run_cell(calls, tracer)
            attempted += 1
            mismatch = [] if traced.digest == plain.digest else [
                f"cell {index}: traced outputs differ from untraced ones"]
            failed += bool(traced.errors or mismatch)
            errors.extend(traced.errors + mismatch)
            traced_s.append(traced.wall_s)
            folded = tracer.fold()
            for name, value in layer_metrics(folded, tracer.counts, calls).items():
                layers.setdefault(name, []).append(value)
            top = {ctx: top_self_times(folded, ctx) for ctx in ("run:muon_lite", "run:soap_lite",
                                                                "run:adamw", "align")}
        index += 1

    samples = {"cells": len(cell_s), "calibrations": len(calibration.samples),
               "speed_factor": calibration.factor()}
    raw = {}
    if trace:
        metrics = {name: statistics.median(values) for name, values in layers.items()}
        plain_p50 = statistics.median(cell_s)
        metrics["trace.overhead_frac"] = (statistics.median(traced_s) - plain_p50) / plain_p50
        samples["traced_cells"] = len(traced_s)
    else:
        tail = float(np.percentile(cell_s, workload.tail_pct))
        raw = {
            "cell_s_p50": statistics.median(cell_s),
            "cell_s_tail": tail,
            "cells_per_s": len(cell_s) / sum(cell_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        raw.update({f"step_ms.{family}": statistics.median(values)
                    for family, values in step_ms.items()})
        metrics = scale(raw, samples["speed_factor"])
        samples["tail_pct"] = workload.tail_pct
        samples["cells_beyond_tail"] = sum(v > tail for v in cell_s)
    return {"attempted": attempted, "failed": failed, "errors": errors[:5],
            "metrics": metrics, "raw": raw, "samples": samples, "top_self": top}


def scale(raw, factor):
    """Times to the reference machine speed; a rate by the inverse; memory as is."""
    scaled = {}
    for name, value in raw.items():
        if name == "cells_per_s":
            value /= factor
        elif name != "peak_rss_mb":
            value *= factor
        scaled[name] = value
    return scaled


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(cells.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = cells.WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        reference = cells.make_cell(
            workload, cells.cell_seed(workload.name, cells.REFERENCE_SEED, 0),
            args.workdir / "reference")
        warm = cells.run_cell(reference)
        ready = {"digest": warm.digest, "errors": warm.errors[:5], "fingerprint": fingerprint()}
        print("READY " + json.dumps(ready), flush=True)
        if args.role == "measure":
            result = measure(workload, args.seed, args.seconds, bool(args.trace), args.workdir)
            print("RESULT " + json.dumps(result), flush=True)
        else:
            calibration = Calibration()
            for _ in range(SETUP_CALIBRATIONS):
                calibration.run()
            print("CALIBRATION " + json.dumps(calibration.factor()), flush=True)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
