"""What the package's modules import, counting imports made inside
functions as well: one another without a cycle, and of third-party
packages exactly the runtime dependencies that `pyproject.toml` declares."""

import ast
import re
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "asplan"


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
    """scipy is a test dependency only: no module imports it, at import
    time or inside a function."""
    assert _imports_of(path.read_text(encoding="utf-8"), "scipy", skipped=lambda name: False) == []


def test_the_solver_imports_no_numpy():
    """`fuzzyopt` probes the plan functions one point at a time, so it has
    no array path: numpy is imported neither at module level nor in a
    function."""
    source = (PACKAGE / "fuzzyopt.py").read_text(encoding="utf-8")
    assert _imports_of(source, "numpy", skipped=lambda name: False) == []


# The Monte-Carlo simulation, the one user of numpy in the package.
NUMPY_USERS = {"sample_mixture_rates", "mc_triprob"}


def test_numpy_is_imported_by_the_simulation_alone():
    """`import asplan` and every command but `oracle` start without numpy:
    `oracle` imports it in no code that runs at import time, only inside
    the two simulation functions."""
    source = (PACKAGE / "oracle.py").read_text(encoding="utf-8")
    assert _imports_of(source, "numpy") == []
    assert _imports_of(source, "numpy", skipped=lambda name: name in NUMPY_USERS) == []
    for user in NUMPY_USERS:
        assert _imports_of(source, "numpy", skipped=lambda name: name != user), user


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.stem != "oracle"),
    ids=lambda path: path.stem,
)
def test_no_other_module_imports_numpy(path):
    """Only `oracle`'s simulation uses numpy; no other module imports it,
    at module level or in a function."""
    assert _imports_of(path.read_text(encoding="utf-8"), "numpy", skipped=lambda name: False) == []


def _third_party_imports() -> set:
    """The top-level names of the packages outside the standard library
    that any module of the package imports, anywhere."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"asplan"}


def _names(requirements: list) -> set:
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower() for spec in requirements}


def test_runtime_dependencies_are_the_third_party_imports():
    """A runtime dependency that no module imports, or an import that no
    dependency covers, fails here; scipy is needed by the tests only."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert _names(project["dependencies"]) == _third_party_imports()
    assert "scipy" in _names(project["optional-dependencies"]["test"])


@pytest.mark.parametrize("module", ["lifemodel", "plans"])
def test_the_plan_formulas_import_no_numpy_or_scipy(module):
    """Survival, the triprobs, E[Y], the long-run rates and the plan
    closures have one path, over plain floats, so their modules import
    neither numpy nor scipy, at module level or in a function."""
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert _imports_of(source, "numpy", skipped=lambda name: False) == []
    assert _imports_of(source, "scipy", skipped=lambda name: False) == []


# The closed forms of one stage: the float laws and their value-type
# wrappers.  Matched by exact name: `oracle.mc_triprob` is the independent
# simulation, not one of them.
CLOSED_FORMS = {"weighted_survival", "ssp_triprob", "rgsp_min_triprob", "rgsp_max_triprob",
                "typeI_triprob", "ssp_law", "rgsp_min_law", "rgsp_max_law", "typeI_law"}


def _closed_form_uses(source: str) -> list:
    """(line, name) of each use of a closed form in an expression, as a bare
    name or an attribute; importing one is not a use."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in CLOSED_FORMS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in CLOSED_FORMS:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_closed_form_check_tells_uses_from_imports():
    source = (
        "from .lifemodel import ssp_triprob, weighted_survival\n"
        "mc_triprob(family, life, th)\n"
        "lifemodel.rgsp_max_triprob(f, th, 3)\n"
        "stage = typeI_triprob\n"
    )
    assert _closed_form_uses(source) == [(3, "rgsp_max_triprob"), (4, "typeI_triprob")]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.stem not in ("lifemodel", "plans")),
    ids=lambda path: path.stem,
)
def test_only_lifemodel_and_plans_use_the_closed_forms(path):
    """`lifemodel` owns survival and the per-family triprobs, and
    `plans.stage_law` is the one place that picks a family's law; every
    other module goes through it.  Imports that only keep a name for
    rebinding from outside the package are allowed."""
    assert _closed_form_uses(path.read_text(encoding="utf-8")) == []
