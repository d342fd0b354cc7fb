"""The README's examples and the harness docstring's config are live: each
config parses and runs, each ``flatopt`` command line parses, the count
of golden runs the README states is the record's, and every test the
claims table cites exists."""

import ast
import dataclasses
import json
import re
import shlex
from pathlib import Path

from flatopt import cli, harness
from flatopt.harness import parse_config, run_experiment

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def fenced_blocks():
    """The bodies of the README's ``` fences, in order."""
    return re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_config_example_runs(tmp_path):
    configs = [block for block in fenced_blocks() if block.startswith("run.seed")]
    assert len(configs) == 1
    config = parse_config(configs[0])
    # three steps of the example's run, its schedule unchanged, every step logged
    csv = tmp_path / "run.csv"
    summary = run_experiment(dataclasses.replace(config, steps=3, log_every=1,
                                                 output_path=str(csv)))
    assert (summary["status"], summary["steps_completed"]) == ("ok", 3)
    lines = csv.read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == ["step", "1", "2", "3"]


def test_readme_cli_lines_parse():
    commands = []
    for block in fenced_blocks():
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("flatopt "):
                commands.append(shlex.split(line.split("#", 1)[0])[1:])
    assert [argv[0] for argv in commands] == ["run", "quadratic-report", "align",
                                              "dynamics-check", "version"]
    for argv in commands:
        args = cli._build_parser().parse_args(argv)
        assert args.command == argv[0]


def test_harness_docstring_config_parses():
    example = harness.__doc__.split("Example::", 1)[1].split("\n\n")[1]
    config = parse_config(example)
    assert config.optimizer.family == "muon_lite"
    assert config.landscape.widths == (6, 8, 8, 4)


def test_readme_golden_count_matches_the_record():
    stated = re.findall(r"compares\s+the\s+md5\s+of\s+(\d+)\s+fixed\s+runs", README.read_text())
    assert len(stated) == 1
    entries = json.loads((ROOT / "tools" / "golden.json").read_text())["entries"]
    assert int(stated[0]) == len(entries)


def test_claims_table_cites_collected_tests():
    section = README.read_text().split("## What reproduces", 1)[1].split("\n## ", 1)[0]
    cited = re.findall(r"`(tests/test_\w+\.py)::([\w:]+)`", section)
    assert cited
    for path, test_id in cited:
        nodes = ast.parse((ROOT / path).read_text()).body
        for name in test_id.split("::"):  # a test function, or a Test class with tests
            node = next((n for n in nodes if getattr(n, "name", None) == name), None)
            assert node is not None and name.startswith(("test_", "Test")), (path, test_id)
            nodes = node.body
        if isinstance(node, ast.ClassDef):
            assert any(getattr(n, "name", "").startswith("test_") for n in nodes), (path, test_id)
