"""The benchmark drives asplan from outside the package; a library change
that breaks one of its calls should fail here rather than in a benchmark
run.  Each workload's operation runs, untimed, on its first few seed-0
inputs, and the benchmark's own checks must record no failure."""

import importlib
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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
