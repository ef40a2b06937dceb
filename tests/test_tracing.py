"""The benchmark's tracer rebinds asplan names by attribute; a rename that
breaks it should fail here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

from asplan import disposition, fuzzyopt, lifemodel, oracle, plans

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = (disposition, fuzzyopt, lifemodel, oracle, plans)
    before = {m.__name__: dict(vars(m)) for m in modules}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert plans.ssp_triprob is not before["asplan.plans"]["ssp_triprob"]
        assert lifemodel.oscillatory_pair is not before["asplan.lifemodel"]["oscillatory_pair"]
    finally:
        tracer.uninstall()
    assert {m.__name__: dict(vars(m)) for m in modules} == before
