"""Run the benchmark over several seeds and summarise the spread.

    python3 benchmarks/collect.py --seeds 1-10 --check-seeds 0,7919 --out benchmarks/baseline.json

Runs ``benchmarks/run.py`` once per (workload, seed), one run after
another, and prints for each end-to-end metric its median and its spread
(Q3 - Q1) / median over the seeds, next to the metric's bound in
``BENCHMARK.json``. Each check seed is run once untraced and once traced;
its results record that the output checks pass on it and give the
per-layer numbers. ``--out`` writes the machine description and every
result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # "# name = value" lines: numbers the run prints besides its metrics.
    info = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("# ") and " = " in line)
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']}", flush=True)
    return {"seed": seed, **result, "info": info}


# Printed numbers, besides the end-to-end metrics, worth a median over seeds.
INFO_SUMMARY = ("train_s", "round_ms_p50", "eval_ms_p50", "nonpart_acc", "holds_fraction")


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def summarise(runs: list[dict], specs: list[dict]) -> dict:
    summary = {s["name"]: quartiles([r["metrics"][s["name"]]["value"] for r in runs]) for s in specs}
    for name in INFO_SUMMARY:
        if all(r["info"].get(name, "None") != "None" for r in runs):
            summary[name] = quartiles([float(r["info"][name]) for r in runs])
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="seeds for the spread, e.g. 1-10")
    p.add_argument("--check-seeds", default="", help="seeds run once untraced and once traced")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    sys.path.insert(0, str(HERE))
    from machine import describe

    report = {"machine": describe(), "run_seconds": seconds, "workloads": {}}
    for name in names:
        runs = [run_once(name, seed, seconds, 0) for seed in seed_list(args.seeds)]
        checks = [run_once(name, seed, seconds, trace)
                  for seed in seed_list(args.check_seeds) for trace in (0, 1)]
        entry = {"runs": runs, "checks": checks}
        if len(runs) >= 2:
            entry["summary"] = summarise(runs, bench["end_to_end"])
            print(f"\n{name}: {len(runs)} seeds")
            bounds = {spec["name"]: spec["bound"] for spec in bench["end_to_end"]}
            for metric, s in entry["summary"].items():
                spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"  {metric:16s} median {s['median']:>12.6g}  spread {spread}"
                      + (f" (bound {bounds[metric]})" if metric in bounds else ""))
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
