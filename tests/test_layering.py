"""The package's own modules import one another without a cycle, counting
imports made inside functions as well."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "asplan"


def _imports(path: Path, modules: set) -> set:
    """The package modules that the module at ``path`` imports anywhere;
    a name that is not a module stands for the package's ``__init__``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "asplan" + (f".{base}" if base else "")
            targets = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            if parts[0] == "asplan":
                found.add(parts[1] if parts[1:] and parts[1] in modules else "__init__")
    return found


def _graph() -> dict:
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    return {name: _imports(PACKAGE / f"{name}.py", modules) for name in modules}


def test_graph_sees_the_package():
    graph = _graph()
    assert "fuzzyopt" in graph["plans"]
    assert "plans" in graph["cli"]


def test_package_imports_have_no_cycle():
    try:
        TopologicalSorter(_graph()).prepare()
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
