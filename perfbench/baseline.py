"""Repeated runs of every workload, summarised per metric.

    python3 perfbench/baseline.py --runs 10 --first-seed 100 \
        [--trace 0] [--out FILE]

Runs `run.py` once per seed (first-seed, first-seed + 1, ...), one run at a
time, for BENCHMARK.json's `run_seconds`. For each workload it reports,
per metric and per numeric detail figure, the values, the median and
quartiles (`statistics.quantiles(values, n=4)`), and the spread: the
quartile distance as a share of the median. An end-to-end spread of up to a
third of the metric's bound counts as steady; `setup_s` is exempt. Exits 1
when a run fails or a spread is not steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: "
                           f"{proc.stderr[-800:]}")
    path = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    summary = {"runs": args.runs, "first_seed": args.first_seed,
               "run_seconds": declared["run_seconds"], "trace": args.trace, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in declared["workloads"]):
        records = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            record = _record(workload, seed, declared["run_seconds"], args.trace)
            records.append(record)
            summary.setdefault("environment", record["environment"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={m['value']:.6g}" for name, m in record["metrics"].items()), flush=True)
        metrics = {}
        for name, first in records[0]["metrics"].items():
            entry = summarise([r["metrics"][name]["value"] for r in records])
            entry["unit"] = first["unit"]
            if args.trace == 0 and name != "setup_s":
                entry["steady"] = entry["spread"] <= bounds[name] / 3
                steady &= entry["steady"]
            metrics[name] = entry
        detail = {name: summarise([r["detail"][name] for r in records])
                  for name, value in records[0].get("detail", {}).items()
                  if isinstance(value, (int, float))}
        correct = all(r["correct"] for r in records)
        steady &= correct
        summary["workloads"][workload] = {
            "correct": correct,
            "attempted": [r["attempted"] for r in records],
            "failed": [r["failed"] for r in records],
            "metrics": metrics,
            "detail": detail,
        }
        for name, entry in metrics.items():
            flag = "" if entry.get("steady", True) else "  NOT STEADY"
            print(f"  {workload} {name}: median {entry['median']:.6g} {entry['unit']}, "
                  f"quartiles {entry['q1']:.6g}..{entry['q3']:.6g}, "
                  f"spread {entry['spread']:.2%}{flag}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
