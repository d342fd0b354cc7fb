"""Tests of ``tools/golden_hashes.py``, the script that records and checks the
byte-identical outputs of a fixed set of flatopt commands.

It reads the script by path, as ``tests/test_tracer_targets.py`` reads the
benchmark tracer, and checks its entry list without running the commands: a
config rule that rejects one of its entries then fails here, not only when
the script runs with ``--check``. One test runs ``--check`` itself against the
committed record, in a fresh interpreter so that BLAS is pinned before numpy
loads; it skips on a platform other than the recorded one.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from flatopt import optim
from flatopt.harness import parse_config
from script_loader import load_script

SCRIPT_PATH = Path(__file__).resolve().parent.parent / "tools" / "golden_hashes.py"


GOLDEN = load_script(SCRIPT_PATH, "golden_hashes")
ENTRY_COUNT = 44


def test_entries_are_unique_names():
    names = [name for name, _ in GOLDEN.entries()]
    assert len(names) == ENTRY_COUNT
    assert len(set(names)) == len(names)


def test_families_are_the_optimizer_families():
    # a family added to optim must also enter the byte record
    assert sorted(GOLDEN.FAMILIES) == sorted(optim.FAMILIES)
    assert {f for f in GOLDEN.FAMILIES if f.endswith("_lite")} == optim.LITE_FAMILIES


def test_every_config_entry_parses():
    configs = [spec for _, spec in GOLDEN.entries() if isinstance(spec, dict)]
    # an align entry runs on the adamw config the script writes for its MLP
    configs += [GOLDEN._run_keys("adamw", GOLDEN.MLPS[name.split(":")[1]])
                for name, _ in GOLDEN.entries() if name.startswith("align:")]
    for keys in configs:
        cfg = parse_config(GOLDEN._config_text(keys, "out.csv"))
        assert cfg.optimizer.family == keys["optimizer.family"]
        assert cfg.output_path == "out.csv"


def test_record_holds_every_entry():
    record = json.loads(GOLDEN.RECORD.read_text(encoding="utf-8"))
    assert list(record["entries"]) == [name for name, _ in GOLDEN.entries()]


def test_outputs_match_the_record():
    proc = subprocess.run([sys.executable, str(SCRIPT_PATH), "--check"],
                          capture_output=True, text=True, timeout=300)
    if "SKIPPED CHECK" in proc.stderr:
        pytest.skip(proc.stderr.strip())
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith(f"{ENTRY_COUNT} entries, 0 differing lines\n")
