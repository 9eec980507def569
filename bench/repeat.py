"""Repeat the benchmark over several seeds and summarise each metric.

Usage (from the root of a checkout):

    python3 bench/repeat.py --seeds 1-10 --seconds 20 [--trace 1] [--out FILE]

Runs ``bench/run.py`` once per workload of BENCHMARK.json and seed, one
run at a time, and prints for every metric its median, first and third
quartile, and the spread (Q3 - Q1) / median, the figure BENCHMARK.json's
bounds are set against.  ``--out`` also writes the summary and every run's result as JSON.
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


def seed_list(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    if len(values) == 1:  # a single run has no spread
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("nan"),
        "values": values,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        metrics = {
            name: summarise([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        report[workload] = {"metrics": metrics, "runs": runs}
        print(f"{workload}:")
        for name, s in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None else (
                f"  bound {bound:g} ({'ok' if s['spread'] < bound / 3 else 'WIDE'})")
            print(f"  {name:32s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  spread {s['spread']:8.4f}{flag}", flush=True)
    if args.out:
        from run import provenance

        doc = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
               "provenance": provenance(), "workloads": report}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
