"""flatopt benchmark: one command runs a workload (or all of them) and prints
every metric by name with its unit and sample count, then one JSON line.

    python3 perfbench/run.py --workload sweep_matrix --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Run it from anywhere inside a flatopt source checkout; it measures the code
under ``src/``. It is a closed loop with one client: cells run back to back
in one measuring process, each starting after the previous one ends. Every
benchmark process is a fresh interpreter with BLAS pinned to one thread.

With ``--trace 0`` the result holds the end-to-end metrics. ``setup_s`` is
the median over five fresh processes of the time from process start to
"first timed cell ready": imports, config generation and parsing, and one
untimed warm-up cell. With ``--trace 1`` the result holds the per-layer
metrics of a separate, traced run. The last stdout line is the JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit status is 0 only
when every cell passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_matrix", "sweep_elementwise", "analysis")
SETUP_SAMPLES = 5
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_TIMEOUT_S = 120.0


def spawn(role, workload, seed, seconds, trace, workdir):
    """Run one worker process; return (setup seconds, {tag: JSON payload}, exit code).

    The set-up time ends when the process prints its READY line."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **BLAS_PIN)
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    setup_s, payloads = None, {}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(SETUP_TIMEOUT_S + seconds, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            tag, _, payload = line.partition(" ")
            if tag == "READY" and setup_s is None:
                setup_s = time.perf_counter() - start
            if tag in ("READY", "RESULT", "CALIBRATION"):
                payloads[tag] = json.loads(payload)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return setup_s, payloads, code


def git_commit():
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def run_workload(name, seed, seconds, trace, spec, expected):
    """Run one workload and print its metrics; return (attempted, failed, metrics)."""
    roles = ["measure"] if trace else ["setup"] * (SETUP_SAMPLES - 1) + ["measure"]
    setups, readies, problems, result = [], [], [], None
    for i, role in enumerate(roles):
        workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}-{i}"
        setup_s, payloads, code = spawn(role, name, seed, seconds, trace, workdir)
        wanted = ("READY", "RESULT") if role == "measure" else ("READY", "CALIBRATION")
        if code != 0 or any(tag not in payloads for tag in wanted):
            problems.append(f"{role} process exited with {code}")
            continue
        readies.append(payloads["READY"])
        result = payloads.get("RESULT", result)
        factor = payloads["CALIBRATION"] if role == "setup" else result["samples"]["speed_factor"]
        setups.append((setup_s, factor))
    if result is None:
        _report(name, problems)
        return len(roles), len(problems), {}

    failed = result["failed"] + len(problems) + sum(bool(r["errors"]) for r in readies)
    problems += result["errors"] + [e for r in readies for e in r["errors"]]
    digests = {r["digest"] for r in readies}
    if len(digests) != 1:
        failed += 1
        problems.append(f"reference cell digest differs across fresh processes: {sorted(digests)}")
    platform = readies[0]["fingerprint"]
    if platform == expected["fingerprint"]:
        digest_note = "compared with the recorded digest"
        if expected["digests"].get(name) not in digests:
            failed += 1
            problems.append(f"reference cell digest {sorted(digests)} != recorded "
                            f"{expected['digests'].get(name)}")
    else:
        differs = sorted(k for k in set(platform) | set(expected["fingerprint"])
                         if platform.get(k) != expected["fingerprint"].get(k))
        digest_note = f"not compared: platform differs in {', '.join(differs)}"
        print(f"{name}: SKIPPED CHECK: reference cell digest {digest_note}; record it for "
              f"this platform with perfbench/record_digests.py", file=sys.stderr)

    metrics, raw = dict(result["metrics"]), dict(result["raw"])
    if not trace:
        raw["setup_s"] = statistics.median(s for s, _ in setups)
        metrics["setup_s"] = statistics.median(s * factor for s, factor in setups)
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if set(metrics) != set(wanted):
        raise SystemExit(f"metric set does not match BENCHMARK.json: missing "
                         f"{sorted(set(wanted) - set(metrics))}, extra {sorted(set(metrics) - set(wanted))}")

    samples = result["samples"]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for metric in wanted:
        raw_note = f"raw {raw[metric]:.6g}, " if metric in raw else ""
        print(f"{name:18s} {metric:44s} {metrics[metric]:14.6g} {units[metric]:11s} "
              f"({raw_note}{_sample_note(metric, samples, len(setups), trace)})")
    for context, ranked in result["top_self"].items():
        if ranked:
            shares = ", ".join(f"{layer} {share:.0%}" for layer, share in ranked)
            print(f"{name:18s} largest self time in {context}: {shares}")
    env = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
           "git_commit": git_commit(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
           "blas_pin": BLAS_PIN, "reference_digest": digest_note, "samples": samples,
           **platform}
    print("env " + json.dumps(env, sort_keys=True))
    _report(name, problems)
    return result["attempted"] + len(readies), failed, {k: metrics[k] for k in wanted}


def _report(name, problems):
    for problem in problems[:5]:
        print(f"{name}: FAILED CHECK: {problem}", file=sys.stderr)


def _sample_note(metric, samples, n_setups, trace):
    if trace:
        return f"median over {samples['traced_cells']} traced cells"
    if metric == "setup_s":
        return f"median over {n_setups} fresh processes"
    if metric == "cell_s_tail":
        return (f"p{samples['tail_pct']} of {samples['cells']} cells, "
                f"{samples['cells_beyond_tail']} beyond")
    if metric == "peak_rss_mb":
        return "measuring process"
    if metric == "cells_per_s":
        return f"{samples['cells']} cells over their summed wall time"
    return f"median over {samples['cells']} cells"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "flatopt" / "__init__.py").is_file():
        print(f"error: no flatopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted, failed, metrics = 0, 0, {}
    for name in names:
        n_attempted, n_failed, values = run_workload(
            name, args.seed, args.seconds, args.trace, spec, expected)
        attempted, failed = attempted + n_attempted, failed + n_failed
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
    try:
        (ROOT / ".bench_work").rmdir()
    except OSError:
        pass
    correct = failed == 0 and len(metrics) == len(names) * len(units)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
