"""Golden output hashes: run a fixed set of flatopt commands in-process and
record, per entry, ``status md5`` with the md5 taken over the exit status,
stdout and CSV bytes, next to the platform facts the bytes depend on.

    python3 tools/golden_hashes.py > tools/golden.json   # record
    python3 tools/golden_hashes.py --check               # compare with tools/golden.json
    python3 tools/golden_hashes.py --check other.json    # compare with another record

``--check`` prints each differing entry and exits 1 on a diff. On a platform
other than the recorded one (Python, numpy, its BLAS, machine and numpy's
SIMD targets, as the benchmark's ``fingerprint`` reads them for
``perfbench/expected.json``) the bytes may differ for reasons outside
flatopt, so it prints a ``SKIPPED CHECK`` line on stderr, runs nothing and
exits 0.

It measures the sources under ``src/`` of the checkout it sits in. BLAS is
pinned to one thread before numpy loads. A change that claims to keep output
bytes must leave every entry unchanged.

The 44 entries: nine families on three MLPs (6-8-8-4 batch 8, 32-96-96-16,
16-8-24-4 batch 32); adamw on river_valley and quadratic; ``align`` on the
6-8-8-4 and 16-8-24-4 MLPs, ``quadratic-report`` and ``dynamics-check``;
muon_lite and soap_lite on two MLPs under the trivial policy, and muon_lite
on the same two with ``lite.beta1`` and ``lite.beta2`` unset (zero); n_adamw,
mars, ademamix and soap with their own keys set; muon on a noisy teacher.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tools" / "golden.json"
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FAMILIES = ("adamw", "n_adamw", "lion", "mars", "ademamix",
            "muon", "muon_lite", "soap", "soap_lite")
LITE = {"lite.chi": 4.0, "lite.beta1": -0.25, "lite.beta2": 1.0, "lite.r_s": 0.5}
MLPS = {"6-8-8-4": {"landscape.kind": "mlp", "landscape.widths": "6, 8, 8, 4",
                    "landscape.batch_size": 8},
        "32-96-96-16": {"landscape.kind": "mlp", "landscape.widths": "32, 96, 96, 16"},
        "16-8-24-4": {"landscape.kind": "mlp", "landscape.widths": "16, 8, 24, 4",
                      "landscape.batch_size": 32}}
RUN = {"run.seed": 3, "run.steps": 40, "run.log_every": 3,
       "schedule.kind": "wsd", "schedule.lr_max": 0.01, "schedule.warmup_steps": 4}


def _run_keys(family, landscape, extra=None):
    keys = dict(RUN, **landscape)
    keys["optimizer.family"] = family
    if family.endswith("_lite"):
        keys.update(LITE)
    keys.update(extra or {})
    return keys


def entries():
    """[(name, spec)]: a dict is the config of a `run`, a list a command's argv."""
    out = []
    for mlp, land in MLPS.items():
        out += [(f"run:{mlp}:{family}", _run_keys(family, land)) for family in FAMILIES]
    out.append(("run:river_valley:adamw", _run_keys("adamw", {
        "landscape.kind": "river_valley", "landscape.sharp_dim": 8,
        "landscape.flat_dim": 8, "landscape.sharp_curvature": 100.0})))
    out.append(("run:quadratic:adamw", _run_keys("adamw", {
        "landscape.kind": "quadratic",
        "landscape.eigenvalues": "100, 10, 1, 0.1, 0.01"})))
    # an align entry runs on the adamw config of the MLP its name gives
    out += [(f"align:{mlp}", ["align", "--train-steps", "60", "--d-s", "2", "--k-grid", "2,4"])
            for mlp in ("6-8-8-4", "16-8-24-4")]
    out.append(("quadratic-report", ["quadratic-report", "--alpha", "0.1", "--beta", "1.0",
                                     "--eta", "0.01", "--lambda-min", "0.1",
                                     "--lambda-max", "10", "--points", "50"]))
    out.append(("dynamics-check", ["dynamics-check"]))
    for mlp in ("6-8-8-4", "32-96-96-16"):
        for family in ("muon_lite", "soap_lite"):
            trivial = {key: None for key in LITE}
            trivial["lite.chi"] = 1.0
            out.append((f"run:{mlp}:{family}:trivial", _run_keys(family, MLPS[mlp], trivial)))
        out.append((f"run:{mlp}:muon_lite:zero_betas",
                    _run_keys("muon_lite", MLPS[mlp], {"lite.beta1": None, "lite.beta2": None})))
    own_keys = {"n_adamw": {"optimizer.nesterov_beta": 0.9},
                "mars": {"optimizer.mars_gamma": 0.5},
                "ademamix": {"optimizer.ademamix_kappa": 4.0, "optimizer.alpha_fast": 0.9},
                "soap": {"optimizer.theta_shampoo": 0.9, "optimizer.qr_refresh_every": 3}}
    for family, extra in own_keys.items():
        out.append((f"run:6-8-8-4:{family}:own_keys",
                    _run_keys(family, MLPS["6-8-8-4"], extra)))
    out.append(("run:6-8-8-4:muon:noise_sigma",
                _run_keys("muon", MLPS["6-8-8-4"], {"landscape.noise_sigma": 0.3})))
    return out


def _config_text(keys, output_path):
    lines = [f"{key} = {value}" for key, value in keys.items() if value is not None]
    lines.append(f"run.output_path = {output_path}")
    return "\n".join(lines) + "\n"


def digest(name, spec, workdir, cli_main):
    """(exit status, md5 over the status, stdout and the CSV written, if any)."""
    config = workdir / f"{name.replace(':', '_')}.cfg"
    csv = workdir / f"{name.replace(':', '_')}.csv"
    argv = spec
    if isinstance(spec, dict):
        config.write_text(_config_text(spec, csv), encoding="utf-8")
        argv = ["run", "--config", str(config)]
    elif spec[0] == "align":
        mlp = MLPS[name.split(":")[1]]
        config.write_text(_config_text(_run_keys("adamw", mlp), csv), encoding="utf-8")
        argv = spec[:1] + ["--config", str(config)] + spec[1:]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = cli_main(argv)
    h = hashlib.md5(f"{status}\n{stdout.getvalue()}".encode("utf-8"))
    if csv.exists():
        h.update(csv.read_bytes())
    return status, h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE", nargs="?", const=RECORD, type=Path,
                        help="compare with a record (default tools/golden.json); "
                             "exit 1 if any entry differs")
    args = parser.parse_args(argv)
    for var in BLAS_PIN:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from flatopt.cli import main as cli_main
    from worker import fingerprint

    here = fingerprint()
    if args.check is not None:
        saved = json.loads(args.check.read_text(encoding="utf-8"))
        differs = sorted(key for key in here.keys() | saved["fingerprint"].keys()
                         if here.get(key) != saved["fingerprint"].get(key))
        if differs:
            print(f"SKIPPED CHECK: {args.check.name} was recorded on another platform "
                  f"({', '.join(differs)} differ)", file=sys.stderr)
            return 0
    with tempfile.TemporaryDirectory() as tmp:
        hashes = {name: " ".join(map(str, digest(name, spec, Path(tmp), cli_main)))
                  for name, spec in entries()}
    if args.check is None:
        print(json.dumps({"fingerprint": here, "entries": hashes}, indent=2))
        return 0
    lines = {f"{name} {value}" for name, value in hashes.items()}
    recorded = {f"{name} {value}" for name, value in saved["entries"].items()}
    differ = sorted(lines ^ recorded)
    for line in differ:
        print(("- " if line in recorded else "+ ") + line)
    print(f"{len(lines)} entries, {len(differ)} differing lines")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
