"""Load a script of the repository as a module, read by its path."""

import types
from pathlib import Path


def load_script(path: Path, name: str) -> types.ModuleType:
    # exec instead of an import: nothing is cached next to the script, so the
    # benchmark's directory and tools/ stay as committed
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module
