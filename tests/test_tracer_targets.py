"""Every function the benchmark tracer wraps still exists under its name,
and each one is either called from ``src/`` or listed as tracer-only.

A renamed or deleted traced function breaks only the benchmark's ``--trace 1``
runs, so this reads ``perfbench/tracer.py`` by path and resolves each target
the way ``Tracer.install`` does: ``owner.__dict__[leaf]`` on the module or
class.
"""

import ast
import importlib
from pathlib import Path

import pytest

from script_loader import load_script

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
SRC_PATH = ROOT / "src" / "flatopt"

# Targets that nothing in src/ calls; they stay only because the tracer names
# them, and their per-layer metrics read 0.
TRACER_ONLY = (
    ("flatopt.landscapes", "Landscape.pack"),
    ("flatopt.landscapes", "MlpLandscape.fresh_batch"),
    ("flatopt.landscapes", "MlpLandscape.loss_on_batch"),
    ("flatopt.landscapes", "MlpLandscape.block_grads_on_batch"),
    ("flatopt.landscapes", "MlpLandscape.grad_on_batch"),
)


_TRACER = load_script(TRACER_PATH, "perfbench_tracer")
TARGETS = [(module, attr) for module, attr in _TRACER.SPAN_TARGETS] + \
          [(module, attr) for module, attr, _ in _TRACER.COUNT_TARGETS]


@pytest.mark.parametrize("module_name,attr", TARGETS,
                         ids=[f"{module}:{attr}" for module, attr in TARGETS])
def test_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    owner_name, _, leaf = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert callable(owner.__dict__[leaf])


def _called_leaves():
    """The name of every function called in src/, by its last component
    (``f(...)`` and ``x.f(...)`` both give "f"). Calls made inside a
    TRACER_ONLY function do not count."""
    leaves = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if (module, name) not in TRACER_ONLY:
                    visit(child, module, name + ".")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name):
                    leaves.add(func.id)
                elif isinstance(func, ast.Attribute):
                    leaves.add(func.attr)
            visit(child, module, prefix)

    for path in sorted(SRC_PATH.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), f"flatopt.{path.stem}", "")
    return leaves


_CALLED = _called_leaves()


@pytest.mark.parametrize("module_name,attr", TARGETS,
                         ids=[f"{module}:{attr}" for module, attr in TARGETS])
def test_target_is_called_or_tracer_only(module_name, attr):
    called = attr.rpartition(".")[2] in _CALLED
    if (module_name, attr) in TRACER_ONLY:
        assert not called, f"{attr} has a caller in src/; drop it from TRACER_ONLY"
    else:
        assert called, f"nothing in src/ calls {attr}; list it in TRACER_ONLY"


def test_tracer_only_names_tracer_targets():
    assert set(TRACER_ONLY) <= set(TARGETS)
