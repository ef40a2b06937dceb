"""The benchmark drives asplan from outside the package; a library change
that breaks one of its calls should fail here rather than in a benchmark
run.  Each workload's operation runs, untimed, on its first few seed-0
inputs, and the benchmark's own checks must record no failure.  The
set-up probe that the benchmark times runs here too, in a fresh
interpreter, so that a change that breaks start-up or puts numpy back on
its path fails here as well."""

import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
INPUTS_PER_WORKLOAD = 4


@pytest.mark.parametrize("name", ["ssp", "grouped", "verify"])
def test_workload_operations_pass_the_benchmark_checks(name, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    kind = workloads.WORKLOADS[name]
    ledger = workloads.Ledger()
    for key, item in enumerate(kind.inputs(0)[:INPUTS_PER_WORKLOAD]):
        kind.op(item, ledger, key, time.perf_counter)
    assert ledger.attempted > 0
    assert ledger.failed == 0, ledger.failures


def _probe(monkeypatch, code: list) -> list:
    """The stdout lines of a fresh interpreter started from the repository
    root with the benchmark's child environment (`workloads.child_env`)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    env = importlib.import_module("workloads").child_env(str(ROOT))
    proc = subprocess.run([sys.executable, *code], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _check_loaded(report: dict) -> None:
    assert report["rows"] == 80
    assert report["lifetimes"] == 36


def test_setup_probe_loads_the_embedded_data(monkeypatch):
    """`perfbench/probe.py`, run as `run._setup_probes` runs it."""
    *_, line = _probe(monkeypatch, [str(PERFBENCH / "probe.py")])
    _check_loaded(json.loads(line))


def test_setup_probe_starts_without_numpy(monkeypatch):
    code = (
        "import runpy, sys\n"
        "sys.path.insert(0, 'perfbench')\n"
        "runpy.run_path('perfbench/probe.py', run_name='__main__')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    *_, report, numpy = _probe(monkeypatch, ["-c", code])
    _check_loaded(json.loads(report))
    assert numpy == "[]"
