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



def _imports_of(source: str, top: str, skipped=lambda name: True) -> list:
    """The lines of ``source`` that import the package ``top``, except inside
    the functions whose name ``skipped`` accepts: by default every function,
    which leaves what runs at import (a class body or an ``if`` at module
    level runs then too)."""
    found = []

    def visit(node) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and skipped(child.name):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == top for name in names):
                found.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return found


def test_scipy_import_check_tells_module_level_from_function_level():
    source = (
        "import scipy.special\n"
        "from scipy import optimize\n"
        "if True:\n"
        "    import scipy\n"
        "def f():\n"
        "    from scipy.optimize import brentq\n"
        "import numpy as np\n"
    )
    assert _imports_of(source, "scipy") == [1, 2, 4]
    assert _imports_of(source, "scipy", skipped=lambda name: False) == [1, 2, 4, 6]
    assert _imports_of(source, "scipy", skipped=lambda name: name == "f") == [1, 2, 4]
    assert _imports_of(source, "numpy") == [7]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_no_module_imports_scipy_at_import_time(path):
    """scipy is slow to import, so `import asplan` must not load it: a
    module imports it inside the function that needs it."""
    assert _imports_of(path.read_text(encoding="utf-8"), "scipy") == []


@pytest.mark.parametrize("module", ["lifemodel", "plans"])
def test_the_plan_formulas_import_no_numpy_or_scipy(module):
    """Survival, the triprobs, E[Y], the long-run rates and the plan
    closures have one path, over plain floats, so their modules import
    neither numpy nor scipy, at module level or in a function."""
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert _imports_of(source, "numpy", skipped=lambda name: False) == []
    assert _imports_of(source, "scipy", skipped=lambda name: False) == []
