"""Every benchmark workload's reference cell still gives its recorded digest.

The benchmark counts a moved reference digest as a failed operation, so a
change that moves output bytes should fail here first. This reads
``perfbench/run.py`` by path and runs each workload's reference cell the way
``perfbench/record_digests.py`` does: one fresh ``--role setup`` worker with
BLAS pinned to one thread. The digest is compared only on the platform it
was recorded on; elsewhere the test skips.
"""

import json
from pathlib import Path

import pytest

from script_loader import load_script

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


_RUNNER = load_script(BENCH / "run.py", "perfbench_run")
EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", _RUNNER.WORKLOADS)
def test_reference_cell_digest(workload, tmp_path, monkeypatch):
    # the worker's imports of the benchmark modules leave no bytecode behind
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    _, payloads, code = _RUNNER.spawn("setup", workload, 0, 0, 0, tmp_path / workload)
    assert code == 0
    ready = payloads["READY"]
    assert ready["errors"] == []
    if ready["fingerprint"] != EXPECTED["fingerprint"]:
        pytest.skip(f"digest recorded on another platform: {EXPECTED['fingerprint']}")
    assert ready["digest"] == EXPECTED["digests"][workload]
