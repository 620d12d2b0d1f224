"""Every program name the benchmark harness imports must exist.

``perfbench/`` (the repository benchmark) imports the program from
``src/``.  Deleting or renaming a public name it uses would otherwise
surface only when the benchmark itself runs, so this walks every
``perfbench/*.py`` with ``ast`` and resolves each
``from repro.<module> import <name>``.
"""

import ast
import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[2] / "perfbench"


def _program_imports() -> list[tuple[str, str, str]]:
    """``(file, module, name)`` for every ``from repro... import``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and (node.module or "").split(".")[0] == "repro":
                found += [(path.name, node.module, alias.name)
                          for alias in node.names]
    return found


def _resolves(module: str, name: str) -> bool:
    try:
        if hasattr(importlib.import_module(module), name):
            return True
        importlib.import_module(f"{module}.{name}")  # a submodule
    except ImportError:
        return False
    return True


def test_perfbench_program_imports_resolve():
    imports = _program_imports()
    assert len(imports) >= 20, "perfbench imports moved; update this test"
    missing = [f"{file}: from {module} import {name}"
               for file, module, name in imports
               if not _resolves(module, name)]
    assert missing == []
