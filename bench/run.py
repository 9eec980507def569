"""Benchmark for specbounds: one closed-loop client driving the CLI in-process.

Usage (from the root of a checkout):

    python3 bench/run.py --workload report-sweep --seed 7 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each op
untraced and with layer spans, prints the per-layer metrics plus the
tracing overhead, and writes the spans as JSON lines under ``.specbench/``.
Every op's output is checked outside the timed region.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".specbench"
SETUP_LAUNCHES = 12


@dataclass
class OpResult:
    kind: str
    wall_s: float
    problems: list
    rows: int
    vacuous: int
    bytes_out: int
    timed_s: float

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def structural(self) -> bool:
        return any(p.structural for p in self.problems)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="busy time of the timed loop; it ends at the next round boundary")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded; None when unknown."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def time_import() -> float:
    """Wall time for a fresh interpreter to import specbounds.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import specbounds.cli"], env=env, cwd=ROOT,
                   check=True)
    return time.perf_counter() - t0


def execute(cli, checker, op, tracer=None, index: int = 0) -> OpResult:
    """Run one op through ``cli.main`` and check its output afterwards."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.begin_op(index)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(list(op.argv))
        wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    text = out.getvalue()
    check = checker.check_op(op, rc, text, err.getvalue())
    return OpResult(op.kind, wall, check.problems, check.rows, check.vacuous,
                    len(text.encode()), check.timed_s)


def run_loop(cli, checker, rounds, budget_s: float):
    """Closed loop, one client: whole rounds until busy time reaches budget_s.

    The SETUP_LAUNCHES import launches are spread evenly over the loop,
    between ops and outside busy time, so set-up time sees the same drift
    in machine speed as the ops.  Returns the ops and the launch times.
    """
    results, launches, busy = [], [], 0.0
    for batch in rounds:
        if results and busy >= budget_s:
            break
        for op in batch:
            results.append(execute(cli, checker, op))
            busy += results[-1].wall_s
            while len(launches) < SETUP_LAUNCHES * min(busy / budget_s, 1.0):
                launches.append(time_import())
    return results, launches


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")


def measure_end_to_end(cli, checker, rounds, seconds: float):
    """The timed loop with tracing off, set-up launches spread over it.

    Returns the checked ops, the measured ops and the end-to-end metrics.
    """
    results, launches = run_loop(cli, checker, rounds, seconds)
    walls = [r.wall_s for r in results]
    rows = sum(r.rows for r in results)
    vacuous = sum(r.vacuous for r in results)
    failed = sum(r.failed for r in results)
    metrics = {
        "setup_s": (statistics.median(launches), "s"),
        "ops_per_s": (len(walls) / sum(walls), "ops/s"),
        "op_s.p50": (float(np.percentile(walls, 50)), "s"),
        "op_s.p90": (float(np.percentile(walls, 90)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_frac": (1.0 - failed / len(results), "ratio"),
        "asserted_frac": ((rows - vacuous) / rows, "ratio"),
    }
    print(f"{len(results)} ops in {sum(walls):.3f} s busy; "
          f"{sum(w > metrics['op_s.p90'][0] for w in walls)} samples above p90")
    print_metrics(metrics)
    print_metrics({
        "fail_frac": (failed / len(results), "ratio"),
        "vacuous_frac": (vacuous / rows, "ratio"),
    })
    return results, results, metrics


def measure_layers(cli, checker, rounds, seconds: float, trace_path: Path):
    """Each op untraced and traced back to back, alternating which goes first.

    Pairing the runs keeps drift in machine speed out of the tracing
    overhead; the paired differences give its 95% confidence interval, and
    an overhead whose interval holds zero is reported as unresolved.
    Returns checked ops, traced ops and the per-layer metrics.
    """
    from scipy.stats import t as student_t
    from tracer import Tracer

    tracer = Tracer()

    def traced_run(op):
        tracer.install()
        try:
            return execute(cli, checker, op, tracer, len(traced))
        finally:
            tracer.uninstall()

    plain, traced, busy = [], [], 0.0
    for batch in rounds:
        if len(plain) > 1 and busy >= seconds / 2.0:  # two pairs give an interval
            break
        for op in batch:
            if len(plain) % 2:
                traced.append(traced_run(op))
                plain.append(execute(cli, checker, op))
            else:
                plain.append(execute(cli, checker, op))
                traced.append(traced_run(op))
            busy += plain[-1].wall_s
    n = len(plain)
    plain_s = sum(r.wall_s for r in plain)
    traced_s = sum(r.wall_s for r in traced)
    overhead_s = (traced_s - plain_s) / n
    diffs = [t.wall_s - p.wall_s for p, t in zip(plain, traced)]
    ci95_s = float(student_t.ppf(0.975, n - 1)) * statistics.stdev(diffs) / n**0.5
    metrics = tracer.layer_metrics(n)
    metrics.update({
        "report.bytes_out": (sum(r.bytes_out for r in plain) / n, "bytes"),
        "cli.untimed_frac": ((plain_s - sum(r.timed_s for r in plain)) / plain_s, "ratio"),
        "trace.ops": (n, "count"),
        "trace.spans_per_op": (len(tracer.spans) / n, "count"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.overhead_ci95_s": (ci95_s, "s"),
        "trace.overhead_frac": (overhead_s * n / plain_s, "ratio"),
    })
    tracer.write_jsonl(trace_path)
    print(f"{n} ops, untraced {plain_s:.3f} s, traced {traced_s:.3f} s; "
          f"spans in {trace_path.relative_to(ROOT)}")
    if abs(overhead_s) < ci95_s:
        print(f"  tracing overhead unresolved: {overhead_s:.3g} +- {ci95_s:.3g} s/op "
              f"(95% confidence) holds zero")
    print_metrics(metrics)
    return plain + traced, traced, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "specbounds" / "cli.py").is_file():
        print(f"bench: no specbounds sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checker
    import specbounds
    import specbounds.cli as cli
    from workloads import WORKLOADS, Stream

    if Path(specbounds.__file__).resolve().parent != SRC / "specbounds":
        print(f"bench: imported specbounds from {specbounds.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    # Turn a polite kill into SystemExit so the input files are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}; closed loop, 1 client; " + json.dumps(provenance()))
    WORKDIR.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix="inputs-", dir=WORKDIR))
    try:
        warm = next(Stream(args.workload, args.seed, inputs, "warmup").rounds())[:5]
        warmup = [execute(cli, checker, op) for op in warm]
        rounds = Stream(args.workload, args.seed, inputs).rounds()
        if args.trace == 0:
            checked, results, metrics = measure_end_to_end(cli, checker, rounds, args.seconds)
        else:
            trace_path = WORKDIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            checked, results, metrics = measure_layers(
                cli, checker, rounds, args.seconds, trace_path)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    checked = warmup + checked
    for message in dict.fromkeys(p.message for r in checked for p in r.problems
                                 if p.structural):
        print(f"  structural problem: {message}")
    failing = Counter(r.kind for r in results if r.failed)
    if failing:
        print(f"  failed ops by kind: {dict(failing)} of {len(results)}")
    print(json.dumps({
        "correct": not any(r.structural for r in checked),
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
