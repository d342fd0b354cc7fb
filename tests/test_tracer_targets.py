"""Every function the benchmark tracer wraps still exists under its name.

A renamed or deleted traced function breaks only the benchmark's ``--trace 1``
runs, so this reads ``perfbench/tracer.py`` by path and resolves each target
the way ``Tracer.install`` does: ``owner.__dict__[leaf]`` on the module or
class.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    # exec instead of an import: nothing is cached next to the benchmark's files
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec"),
         module.__dict__)
    return module


_TRACER = _load_tracer()
TARGETS = [(module, attr) for module, attr in _TRACER.SPAN_TARGETS] + \
          [(module, attr) for module, attr, _ in _TRACER.COUNT_TARGETS]


@pytest.mark.parametrize("module_name,attr", TARGETS,
                         ids=[f"{module}:{attr}" for module, attr in TARGETS])
def test_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    owner_name, _, leaf = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert callable(owner.__dict__[leaf])
