"""asplan benchmark: one seeded workload, timed, checked, reported.

    python3 perfbench/run.py --workload {ssp,grouped,verify} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from `src/` next to this
directory.  `--trace 0` measures for about S seconds and prints every
end-to-end metric; `--trace 1` runs a fixed prefix of the workload's
operations untraced and then traced, and prints every per-layer metric.
The last line of standard output is the result object; the full record
(environment, per-workload details, and in traced runs every span and
counter) goes to `perfbench/out/`.  The exit code is 1 when a correctness
check fails and 2 when the package cannot be found.
"""

import os

# Pinned before numpy loads, and inherited by every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "asplan", "__init__.py")):
    print(f"error: no asplan package under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, SRC)

import workloads  # noqa: E402
from gauge import SpeedGauge  # noqa: E402

SETUP_PROBES = 7
IMPORT_PROBES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "ops_per_min": "1/min",
    "cost_gmean": "ratio",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict:
    units = {}
    for name in ("lifemodel.weighted_survival", "quadrature.oscillatory_pair",
                 *(f"lifemodel.triprob.{f}" for f in ("ssp", "rgsp_min", "rgsp_max", "type1"))):
        units[name + ".calls"] = "count"
        units[name + ".busy_s"] = "s"
    units["lifemodel.ns_per_triprob"] = "ns"
    units["quadrature.std_normal_cdf.calls"] = "count"
    units["plans.plan_functions.calls"] = "count"
    units["plans.eval.calls"] = "count"
    units["plans.eval.busy_s"] = "s"
    for exc in ("DomainError", "DegeneratePlanError", "OverflowError", "ZeroDivisionError"):
        units[f"plans.eval.failed.{exc}"] = "count"
    units["plans.eval.useful_ratio"] = "ratio"
    units.update({
        "fuzzyopt.solve_crisp.calls": "count",
        "fuzzyopt.solve_crisp.self_s": "s",
        "fuzzyopt.solve_crisp.infeasible": "count",
        "fuzzyopt.nelder_mead.runs": "count",
        "fuzzyopt.nelder_mead.nfev": "count",
        "fuzzyopt.nelder_mead.nit": "count",
        "fuzzyopt.zimmermann_bounds.busy_s": "s",
        "fuzzyopt.solve_max_phi.busy_s": "s",
        "fuzzyopt.solve_plan.self_s": "s",
        "fuzzyopt.group_sizes_tried": "count",
        "oracle.mc_triprob.calls": "count",
        "oracle.mc_triprob.draws": "count",
        "oracle.mc_triprob.busy_s": "s",
        "oracle.verify_tables.rows": "count",
        "oracle.verify_tables.busy_s": "s",
        "disposition.dispose.calls": "count",
        "disposition.dispose.busy_s": "s",
        "cli.import_s": "s",
        "cli.import_scipy_optimize_s": "s",
        "cli.subprocess_s_p50": "s",
        "trace.untraced_s": "s",
        "trace.traced_s": "s",
        "trace.overhead_s": "s",
    })
    return units


PER_LAYER_UNITS = _per_layer_units()


def _environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    package = os.path.join(SRC, "asplan")
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, package).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def _setup_probes(env: dict) -> dict:
    """Fresh interpreters that import asplan and load its embedded data
    (`probe.py`).  A sample is the wall time of one, start to exit, less the
    gauge's own time, scaled by the gauge's reading during the import
    (`SpeedGauge.corrected`)."""
    samples, walls, reports = [], [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py")], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        report = json.loads(proc.stdout)
        walls.append(wall)
        reports.append(report)
        samples.append(SpeedGauge.corrected(wall - report["probe_s"], report["probes"],
                                            report["probe_s"]))
    return {"setup_s": statistics.median(samples), "setup_samples_s": samples,
            "wall_samples_s": walls, "probes": reports}


def _import_times(env: dict) -> dict:
    """Median cumulative import times of asplan and of scipy.optimize, from
    `python -X importtime -c "import asplan"` in fresh interpreters;
    scipy.optimize reads 0 once asplan no longer imports it."""
    times: dict = {"asplan": [], "scipy.optimize": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import asplan"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        seen = {}
        for line in proc.stderr.splitlines():
            fields = [f.strip() for f in line.removeprefix("import time:").split("|")]
            if len(fields) == 3 and fields[2] in times:
                seen[fields[2]] = int(fields[1]) * 1e-6
        for name, values in times.items():
            values.append(seen.get(name, 0.0))
    return {name: statistics.median(values) for name, values in times.items()}


class Workload:
    """A workload's seeded inputs and its operation (`workloads.WORKLOADS`);
    `run(i)` performs operation i, cycling through the inputs, and returns
    (timed seconds, {key: normalized cost}, detail parts)."""

    def __init__(self, name: str, seed: int, ledger) -> None:
        self.ledger = ledger
        self.kind = workloads.WORKLOADS[name]
        self.items = self.kind.inputs(seed)
        self.cli = self.kind.cli(seed)

    def run(self, index: int, clock=time.perf_counter):
        key = index % len(self.items)
        return self.kind.op(self.items[key], self.ledger, key, clock)

    def cli_call(self, args: list[str]) -> float:
        return workloads.cli_call(ROOT, args, self.ledger)


def _measure(workload: Workload, seconds: float, gauge) -> dict:
    """Closed loop for about `seconds`.  A block runs every input
    REPEATS[name] times; the first block always runs, and a further one
    starts only when the mean block wall time so far says it ends inside the
    window.  An input's time is the mean of its runs on the gauge's clock,
    scaled by the probes taken during those runs (`SpeedGauge.corrected`)."""
    repeats = workload.kind.repeats
    runs: dict = {}  # input key -> [(seconds, detail)]
    readings: dict = {}  # input key -> gauge (probes, probe seconds) during its runs
    costs: dict = {}
    walls = []
    start = time.perf_counter()
    while not walls or (time.perf_counter() - start) + statistics.fmean(walls) <= seconds:
        began = time.perf_counter()
        for key in list(range(len(workload.items))) * repeats:
            before = gauge.reading()
            timed, op_costs, detail = workload.run(key, gauge.now)
            after = gauge.reading()
            runs.setdefault(key, []).append((timed, detail))
            count, total = readings.get(key, (0, 0.0))
            readings[key] = (count + after[0] - before[0], total + after[1] - before[1])
            changed = [k for k, v in op_costs.items() if k in costs and costs[k] != v]
            if changed:
                workload.ledger.record(f"input {key} rerun", [f"results changed: {changed}"])
            costs.update(op_costs)
        walls.append(time.perf_counter() - began)
    op_s, parts = [], []
    for key in sorted(runs):
        op_s.append(gauge.corrected(statistics.fmean(r[0] for r in runs[key]), *readings[key]))
        detail = dict(runs[key][0][1])
        for name in detail:
            if name.endswith("_s"):
                detail[name] = gauge.corrected(
                    statistics.fmean(r[1][name] for r in runs[key]), *readings[key])
        parts.append(detail)
    return {
        "op_s": op_s,
        "parts": parts,
        "costs": costs,
        "runs": sum(len(r) for r in runs.values()),
        "probe_mean_s": gauge.total / gauge.count if gauge.count else None,
        "elapsed_s": time.perf_counter() - start,
    }


def _fixed(workload: Workload, count: int, gauge) -> dict:
    """Operations 0..count-1 once each; their summed time, corrected."""
    probes, probe_s = gauge.reading()
    total, costs = 0.0, {}
    for index in range(count):
        timed, op_costs, _ = workload.run(index, gauge.now)
        total += timed
        costs.update(op_costs)
    probes, probe_s = gauge.count - probes, gauge.total - probe_s
    return {"seconds": gauge.corrected(total, probes, probe_s), "costs": costs,
            "scale": gauge.corrected(1.0, probes, probe_s)}


def _detail(measured: dict, cli_s: list[float]) -> dict:
    """Workload-specific figures, named as in the benchmark notes: design
    figures where operations report a plan family, verify figures where
    they report Monte-Carlo time."""
    op_s, parts = measured["op_s"], measured["parts"]
    detail = {"inputs": len(op_s), "runs": measured["runs"], "elapsed_s": measured["elapsed_s"],
              "probe_mean_s": measured["probe_mean_s"]}
    if "family" in parts[0]:
        detail["design_cost_gmean"] = statistics.geometric_mean(measured["costs"].values())
        detail["designs"] = len(measured["costs"])
        by_family = {}
        for seconds, part in zip(op_s, parts):
            by_family.setdefault(part["family"], []).append(seconds)
        detail["design_s_p50_by_family"] = {k: statistics.median(v) for k, v in by_family.items()}
    if "mc_s" in parts[0]:
        detail["mc_draws_per_s"] = sum(p["mc_draws"] for p in parts) / sum(p["mc_s"] for p in parts)
        detail["verify_tables_s"] = statistics.median(p["verify_tables_s"] for p in parts)
        detail["dispositions_per_s"] = (sum(p["dispositions"] for p in parts)
                                        / sum(p["dispose_s"] for p in parts))
    if cli_s:
        detail["cli_s_p50"] = statistics.median(cli_s)
    return detail


def _per_layer(tracer, untraced: dict, traced: dict, imports: dict, cli_s) -> dict:
    counts = tracer.counts
    spans = tracer.span_totals()
    values = {name: counts.get(name, 0) for name, unit in PER_LAYER_UNITS.items()}
    triprob_calls = sum(counts.get(f"lifemodel.triprob.{f}.calls", 0)
                        for f in ("ssp", "rgsp_min", "rgsp_max", "type1"))
    triprob_busy = sum(counts.get(f"lifemodel.triprob.{f}.busy_s", 0.0)
                       for f in ("ssp", "rgsp_min", "rgsp_max", "type1"))
    values["lifemodel.ns_per_triprob"] = 1e9 * triprob_busy / triprob_calls if triprob_calls else 0.0
    evals = counts.get("plans.eval.calls", 0)
    failed = sum(v for k, v in counts.items() if k.startswith("plans.eval.failed."))
    values["plans.eval.useful_ratio"] = 1.0 - failed / evals if evals else 1.0
    for name, key in (("fuzzyopt.solve_crisp.self_s", ("fuzzyopt.solve_crisp", "self_s")),
                      ("fuzzyopt.solve_plan.self_s", ("fuzzyopt.solve_plan", "self_s")),
                      ("fuzzyopt.zimmermann_bounds.busy_s", ("fuzzyopt.zimmermann_bounds", "total_s")),
                      ("fuzzyopt.solve_max_phi.busy_s", ("fuzzyopt.solve_max_phi", "total_s")),
                      ("oracle.mc_triprob.busy_s", ("oracle.mc_triprob", "total_s")),
                      ("oracle.verify_tables.busy_s", ("oracle.verify_tables", "total_s")),
                      ("disposition.dispose.busy_s", ("disposition.dispose", "total_s"))):
        values[name] = spans.get(key[0], {}).get(key[1], 0.0)
    # Layer times fall inside the traced pass: scale them as its total is.
    for name, unit in PER_LAYER_UNITS.items():
        if unit in ("s", "ns") and not name.startswith(("cli.", "trace.")):
            values[name] *= traced["scale"]
    values["cli.import_s"] = imports["asplan"]
    values["cli.import_scipy_optimize_s"] = imports["scipy.optimize"]
    values["cli.subprocess_s_p50"] = statistics.median(cli_s) if cli_s else 0.0
    values["trace.untraced_s"] = untraced["seconds"]
    values["trace.traced_s"] = traced["seconds"]
    values["trace.overhead_s"] = values["trace.traced_s"] - values["trace.untraced_s"]
    return values


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = workloads.child_env(ROOT)
    ledger = workloads.Ledger()
    workload = Workload(args.workload, args.seed, ledger)
    workloads.reference_data()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": _environment()}

    if args.trace:
        from tracing import Tracer

        imports = _import_times(env)
        record["imports"] = imports
        count = workload.kind.traced_ops
        tracer = Tracer()
        try:
            with SpeedGauge() as gauge:
                workload.run(0)  # warm-up, so first-call costs fall on neither pass
                untraced = _fixed(workload, count, gauge)
                tracer.install()
                with tracer.operation("traced"):
                    traced = _fixed(workload, count, gauge)
            cli_s = []
            for call, cli_args in enumerate(workload.cli):
                with tracer.operation(f"cli-{call}"), tracer.span("cli.subprocess"):
                    cli_s.append(workload.cli_call(cli_args))
        finally:
            tracer.uninstall()
        if traced["costs"] != untraced["costs"]:
            ledger.record("traced designs", ["traced and untraced results differ"])
        values = _per_layer(tracer, untraced, traced, imports, cli_s)
        metrics = _metrics(values, PER_LAYER_UNITS)
        record["trace_dump"] = tracer.dump()
        record["span_totals"] = tracer.span_totals()
    else:
        setup = _setup_probes(env)
        record["setup"] = setup
        with SpeedGauge() as gauge:
            measured = _measure(workload, args.seconds, gauge)
        cli_s = [workload.cli_call(cli_args) for cli_args in workload.cli]
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        op_s = measured["op_s"]
        values = {
            "setup_s": setup["setup_s"],
            "op_s_p50": statistics.median(op_s),
            "ops_per_min": 60.0 / statistics.fmean(op_s),
            "cost_gmean": statistics.geometric_mean(measured["costs"].values()),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        metrics = _metrics(values, END_TO_END_UNITS)
        detail = _detail(measured, cli_s)
        detail["failed_share"] = ledger.failed / max(ledger.attempted, 1)
        record["detail"] = detail
        record["op_s"] = op_s
        record["parts"] = measured["parts"]
        print(json.dumps({"workload": args.workload, "detail": detail}))

    correct = ledger.failed == 0
    record.update(correct=correct, attempted=ledger.attempted, failed=ledger.failed,
                  failures=ledger.failures, metrics=metrics)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    for failure in ledger.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
