"""Workloads of the flatopt benchmark: cells, how they run, how they are checked.

A workload is a sequence of cells. A cell is generated from the benchmark
seed and the cell's index; the program sees only the config files and
command-line arguments made here. Every cell runs all nine optimizer
families through ``flatopt run``, so every workload reports the per-family
ms/step; the workloads differ in model size and in what else a cell does.
All program calls go through the public CLI (``cli.main``) in-process,
except the polar-factor check, which calls ``polar.ns_polar`` and
``linalg.svd_oracle`` directly. Calls are looked up on the module at call
time so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import time
import traceback
from pathlib import Path

import numpy as np

from flatopt import cli, linalg, polar

FAMILIES = ("adamw", "n_adamw", "lion", "mars", "ademamix",
            "muon", "muon_lite", "soap", "soap_lite")
LITE_KNOBS = "lite.chi = 4\nlite.beta2 = 1\nlite.r_s = 0.5\n"
REFERENCE_SEED = 0
ALIGN_K_GRID = (2, 4)
QUAD_POINTS = 200
POLAR_SHAPE = (48, 32)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    widths: str          # MLP widths of the family runs
    batch_size: int
    steps: int           # steps of each family run
    log_every: int
    extra_runs: bool     # adamw on river_valley and quadratic
    analysis: bool       # align, quadratic-report, dynamics-check, polar check
    tail_pct: int        # percentile reported as cell_s_tail


# tail_pct is fixed per workload so that a faster commit, which completes
# more cells in a run, is compared at the same percentile. Each is the
# highest of 50/75/90 with at least ten cells beyond it in a 35 s run on a
# 2-core x86-64 box at the commit that defined the benchmark.
WORKLOADS = {
    "sweep_matrix": Workload("sweep_matrix", "32, 96, 96, 16", 32, 20, 10,
                             extra_runs=False, analysis=False, tail_pct=75),
    "sweep_elementwise": Workload("sweep_elementwise", "6, 8, 8, 4", 8, 25, 1,
                                  extra_runs=True, analysis=False, tail_pct=90),
    "analysis": Workload("analysis", "8, 16, 16, 4", 16, 10, 5,
                         extra_runs=False, analysis=True, tail_pct=50),
}


@dataclasses.dataclass
class Call:
    """One program call of a cell; ``label`` doubles as the tracer context."""

    label: str
    argv: list | None = None        # cli.main arguments; None for the polar check
    csv: Path | None = None
    steps: int = 0
    log_every: int = 1
    family: str | None = None       # set on the per-family MLP runs
    matrix: np.ndarray | None = None


@dataclasses.dataclass
class CellResult:
    wall_s: float
    call_s: dict
    digest: str
    errors: list


def cell_seed(workload: str, seed: int, index: int) -> int:
    """Seed of one cell, a 63-bit hash of (workload, benchmark seed, index)."""
    data = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(data[:8], "little") >> 1


def _run_config(seed, steps, log_every, csv, landscape, family, schedule):
    text = (f"run.seed = {seed}\nrun.steps = {steps}\nrun.log_every = {log_every}\n"
            f"run.output_path = {csv}\n{landscape}optimizer.family = {family}\n{schedule}")
    return text + (LITE_KNOBS if family.endswith("_lite") else "")


def make_cell(workload: Workload, seed: int, cell_dir: Path):
    """Write the cell's config files into cell_dir and return its calls."""
    cell_dir.mkdir(parents=True, exist_ok=True)
    calls = []

    def add_run(label, family, landscape, schedule, steps, log_every, is_family_run):
        csv = cell_dir / f"{label}.csv"
        cfg = cell_dir / f"{label}.cfg"
        cfg.write_text(_run_config(seed, steps, log_every, csv, landscape, family, schedule))
        calls.append(Call(f"run:{label}", ["run", "--config", str(cfg)], csv=csv, steps=steps,
                          log_every=log_every, family=family if is_family_run else None))
        return cfg

    mlp = (f"landscape.kind = mlp\nlandscape.widths = {workload.widths}\n"
           f"landscape.batch_size = {workload.batch_size}\n")
    wsd = "schedule.kind = wsd\nschedule.lr_max = 0.01\nschedule.warmup_steps = 2\n"
    configs = {family: add_run(family, family, mlp, wsd, workload.steps, workload.log_every, True)
               for family in FAMILIES}

    if workload.extra_runs:
        constant = "schedule.kind = constant\nschedule.lr_max = 0.01\n"
        add_run("river_valley", "adamw",
                "landscape.kind = river_valley\nlandscape.sharp_dim = 8\n"
                "landscape.flat_dim = 8\nlandscape.sharp_curvature = 100\n",
                constant, workload.steps, workload.log_every, False)
        add_run("quadratic", "adamw",
                "landscape.kind = quadratic\nlandscape.eigenvalues = 100, 10, 1, 0.1, 0.01\n",
                constant, workload.steps, workload.log_every, False)

    if workload.analysis:
        rng = np.random.default_rng(seed)
        calls.append(Call("align", ["align", "--config", str(configs["adamw"]),
                                    "--train-steps", "60", "--d-s", "2",
                                    "--k-grid", ",".join(map(str, ALIGN_K_GRID))]))
        eta = 0.005 + 0.01 * float(rng.random())
        calls.append(Call("quadratic-report", [
            "quadratic-report", "--alpha", "0.1", "--beta", "1.0", "--eta", repr(eta),
            "--lambda-min", "0.01", "--lambda-max", "500", "--points", str(QUAD_POINTS)]))
        calls.append(Call("dynamics-check", ["dynamics-check"]))
        calls.append(Call("polar-check", matrix=_gapped_matrix(rng, *POLAR_SHAPE)))
    return calls


def _gapped_matrix(rng, m, n):
    """Random m-by-n matrix with singular values in [0.05, 1], as criterion 2 draws."""
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = np.sort(0.05 + 0.95 * rng.random(n))[::-1]
    return u @ (sigma[:, None] * v.T)


def run_cell(calls, tracer=None) -> CellResult:
    """Run the calls back to back, time them, then check and digest the outputs."""
    call_s, outputs, errors = {}, [], []
    cell_start = time.perf_counter()
    for call in calls:
        if tracer is not None:
            tracer.context = call.label
        out, err = io.StringIO(), io.StringIO()
        code, polar_out, crash = None, None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if call.argv is None:
                    polar_out = (polar.ns_polar(call.matrix), linalg.svd_oracle(call.matrix))
                else:
                    code = cli.main(call.argv)
        except Exception:  # a crash fails this cell; the run goes on
            crash = f"{call.label}: {traceback.format_exc(limit=3)}"
        call_s[call.label] = time.perf_counter() - start
        outputs.append((call, code, out.getvalue(), err.getvalue(), polar_out, crash))
    wall_s = time.perf_counter() - cell_start

    digest = hashlib.sha256()
    for call, code, stdout, stderr, polar_out, crash in outputs:
        if crash is not None:
            errors.append(crash)
            continue
        csv_bytes = call.csv.read_bytes() if call.csv is not None and call.csv.exists() else b""
        errors.extend(_check(call, code, stdout, stderr, csv_bytes, polar_out))
        digest.update(call.label.encode() + b"\0" + stdout.encode() + b"\0" + csv_bytes + b"\0")
        if polar_out is not None:
            x, (_, sigma, _) = polar_out
            digest.update(x.tobytes() + sigma.tobytes())
    return CellResult(wall_s, call_s, digest.hexdigest(), errors)


def _check(call, code, stdout, stderr, csv_bytes, polar_out):
    """Correctness of one call's outputs; returns a list of error strings."""
    fail = [] if code in (0, None) else [f"{call.label}: exit {code}: {stderr.strip()}"]
    lines = stdout.splitlines()
    if call.csv is not None:
        rows = csv_bytes.decode().splitlines()
        want = call.steps // call.log_every + 1
        if len(rows) != want:
            fail.append(f"{call.label}: {len(rows)} CSV lines, expected {want}")
        if not stdout.startswith(f"ok steps={call.steps} "):
            fail.append(f"{call.label}: summary {stdout.strip()!r}")
    elif call.label == "align":
        rows = [line.split(",") for line in lines[1:]]
        want = 3 * 2 * len(ALIGN_K_GRID)
        if lines[:1] != ["block,side,k,coverage"] or len(rows) != want:
            fail.append(f"{call.label}: {len(rows)} coverage rows, expected {want}")
        elif not all(0.0 <= float(row[3]) <= 1.0 for row in rows):
            fail.append(f"{call.label}: coverage outside [0, 1]")
    elif call.label == "quadratic-report":
        if len(lines) != QUAD_POINTS + 1:
            fail.append(f"{call.label}: {len(lines)} lines, expected {QUAD_POINTS + 1}")
    elif call.label == "dynamics-check":
        if len(lines) != 5 or not all(line.endswith(",pass") for line in lines[1:]):
            fail.append(f"{call.label}: not all checks pass: {lines[1:]}")
    elif call.label == "polar-check":
        x, (u, _, v) = polar_out
        m, n = call.matrix.shape
        error = float(np.linalg.norm(x - u @ v.T))
        if not error <= 1e-2 * math.sqrt(m * n):
            fail.append(f"{call.label}: polar factor off the oracle by {error:.3e}")
    return fail
