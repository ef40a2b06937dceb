"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seeds 0 1]

Checks, printing one PASS/FAIL line each and exiting 1 on any failure:
- the metric names and units in BENCHMARK.json match what run.py prints;
- the same seed generates identical inputs and another seed different ones;
- every design problem generated from each given seed solves feasibly and
  passes the design checks (about half a minute per seed);
- two traced runs with the same seed count exactly the same work: every
  counter of the trace other than busy times.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _report(ok: bool, what: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    return ok


def check_declaration() -> bool:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    ok = _report({m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS,
                 "BENCHMARK.json end_to_end matches run.py")
    ok &= _report({m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER_UNITS,
                  "BENCHMARK.json per_layer matches run.py")
    ok &= _report([w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS),
                  "BENCHMARK.json workloads match workloads.py")
    return ok


def check_generators(seeds) -> bool:
    ok = True
    for workload, kind in workloads.WORKLOADS.items():
        def generate(seed):
            return json.dumps([kind.inputs(seed), kind.cli(seed)])
        first, again, other = generate(seeds[0]), generate(seeds[0]), generate(seeds[0] + 1)
        ok &= _report(first == again, f"{workload}: seed {seeds[0]} regenerates identical inputs")
        ok &= _report(first != other, f"{workload}: seed {seeds[0] + 1} gives different inputs")
    return ok


def check_feasible(seeds) -> bool:
    ok = True
    for seed in seeds:
        for name in ("ssp", "grouped"):
            kind = workloads.WORKLOADS[name]
            ledger = workloads.Ledger()
            for index, spec in enumerate(kind.inputs(seed)):
                kind.op(spec, ledger, index, time.perf_counter)
            ok &= _report(ledger.failed == 0,
                          f"{name}: seed {seed}: {ledger.attempted - ledger.failed}/"
                          f"{ledger.attempted} generated designs feasible and checked"
                          + "".join(f"\n    {f}" for f in ledger.failures))
    return ok


def _traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"traced {workload} run failed: {proc.stderr[-500:]}")
    path = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace1.json")
    with open(path, encoding="utf-8") as handle:
        counts = json.load(handle)["trace_dump"]["counts"]
    return {k: v for k, v in counts.items() if not k.endswith("_s")}


def check_trace_counts(names, seed: int) -> bool:
    ok = True
    for workload in names:
        first = _traced_counts(workload, seed)
        second = _traced_counts(workload, seed)
        differing = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        ok &= _report(not differing and bool(first),
                      f"{workload}: {len(first)} trace counters repeat exactly"
                      + (f" (differ: {differing})" if differing else ""))
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args()
    ok = check_declaration()
    ok &= check_generators(args.seeds)
    ok &= check_feasible(args.seeds)
    ok &= check_trace_counts(workloads.WORKLOADS, args.seeds[0])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
