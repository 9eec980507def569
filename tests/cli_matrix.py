"""Run every subcommand, with its options, in json and csv on a fixed set of
inputs, in process, and write what each case prints.

    PYTHONPATH=src python tests/cli_matrix.py OUTDIR

OUTDIR gets one file per case, named input--command--options--format.txt,
holding the exit code, stderr and stdout, with the JSON "timings" block
(wall-clock times, different on every run) removed.  An uncaught exception
is written as its type and message in place of the exit code.  Two
checkouts give byte-identical output when

    diff -r OUTDIR_A OUTDIR_B

is empty.  stdout longer than STDOUT_LIMIT bytes (the distance matrices of
large graphs) is written as its length and SHA-256 digest.  An OUTDIR that
starts with "-" (such as --help), or arguments matching none of the forms
here, print this text and exit 1 without writing anything.

    PYTHONPATH=src python tests/cli_matrix.py --compare OUTDIR_A OUTDIR_B

compares two such directories.  It prints each case whose exit code,
stderr, row names or pass/vacuous flags differ (or that only one side
has) and exits 1 if there is any.  Otherwise it prints, per row name, the
number of cases in which that row changed (its values or note) and the
largest absolute and relative change of its true, bound and slack values,
plus the number of cases whose output outside the rows changed; it exits 0.
Either way it first prints, per input, how many of its cases changed.

    PYTHONPATH=src python tests/cli_matrix.py --against REF

does both in one command: it extracts the src/ tree of the git revision
REF with git archive into a temporary directory (no worktree, nothing
written in the checkout), runs this harness on that src and on the
working tree's src in two subprocesses, prints the --compare report of
REF against the working tree and exits with its code.

The graph files among the inputs are written to a temporary directory,
which is the working directory during the run, so the paths echoed in each
report's config are the same in every checkout.  pytest does not collect
this file: its name does not start with test_.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from specbounds import WeightedGraph, cli, dumps_graph, generate, random_connected

GENERATED = [
    ("random:100", "every:4"),
    ("random:300", "every:4"),
    ("random:800", "every:4"),
    ("lattice:2:5", "sublattice:2"),
    ("lattice:2:20", "sublattice:3"),
    ("comb:12", "every:3"),
    ("apex_ray:200", "every:4"),
    # The widest error budgets n eps (||H|| + t) against t: where the
    # uncertainty grid may skip fewest couplings (none on comb:26).
    ("comb:26", "every:3"),
    ("random:200:0.001:1000", "every:3"),
    # An explicit centre list, semicolon-separated (lattice ids hold commas).
    ("lattice:2:6", "0,0;6,6;3,3"),
]

# Graph files: measure with a positive potential below and above the sparse
# crossover (256 vertices), and a negative potential on both sides of it.
FILES = {
    "measure60.json": dict(n=60, seed=21, m_range=(0.5, 2.0), potential_range=(0.0, 3.0)),
    "measure300.json": dict(n=300, seed=12, m_range=(0.5, 2.0), potential_range=(0.0, 3.0)),
    "negative30.json": dict(n=30, seed=3, potential_range=(-3.0, -1.0)),
    "negative300.json": dict(n=300, seed=3, potential_range=(-3.0, -1.0)),
}
FILE_CENTERS = "every:4"

# A valid 7-vertex path whose every edge weight is 1e-308: each edge has
# length 1e308, so every distance of two or more edges overflows to inf.
EXTREME_PATH = "path1e-308.json"

# Options per subcommand; [] runs it with its defaults.  "9,9" is a vertex
# id that most inputs lack.
OPTIONS = {
    "validate": [[]],
    "metric": [[], ["--radius", "1.0", "--ball-center", "{first}"],
               ["--radius", "1.0", "--ball-center", "9,9"]],
    "voronoi": [[]],
    "spectrum": [[], ["--interval", "0:0.5"], ["--interval", "3:1"], ["--interval", "auto"]],
    # 1:1:1 is a one-coupling grid: no coupling/monotone_in_t row.
    "bounds": [[], ["--t-grid", "auto"], ["--t-grid", "1:100:3"], ["--t-grid", "1:1:1"]],
    # 0:1e-3 holds lambda_0(H) = 0 of the inputs without a potential, where
    # the two geometric uncertainty rows are asserted.
    "uncertainty": [[], ["--interval", "-4:-3"], ["--interval", "3:1"], ["--interval", "0:1e-3"]],
    "cheeger": [[]],
    "transform": [[], ["--doubling-N", "2"]],
    "report": [[], ["--doubling-N", "3"], ["--interval", "-4:-3"], ["--t-grid", "auto"]],
}
FORMATS = ("json", "csv")
STDOUT_LIMIT = 1 << 20

TIMINGS = re.compile(r', "timings": \{[^{}]*\}')


def run_case(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = f"exit {cli.main(argv)}"
        except Exception as exc:  # an uncaught error is a result too
            status = f"uncaught {type(exc).__name__}: {exc}"
    stdout = TIMINGS.sub("", out.getvalue())
    if len(stdout) > STDOUT_LIMIT:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        stdout = f"<{len(stdout)} characters, sha256 {digest}>\n"
    return f"{status}\n--- stderr\n{err.getvalue()}--- stdout\n{stdout}"


def inputs(workdir: Path):
    """(name, source arguments, centres, first vertex id) of every input."""
    for spec, centers in GENERATED:
        first = generate(spec).vertices[0]
        yield spec, ["--generate", spec], centers, first
    for name, params in FILES.items():
        params = dict(params)
        g = random_connected(params.pop("n"), **params)
        (workdir / name).write_text(dumps_graph(g), encoding="utf-8")
        yield name.removesuffix(".json"), ["--graph", name], FILE_CENTERS, g.vertices[0]
    ids = [f"v{k}" for k in range(7)]
    g = WeightedGraph.from_edge_list(ids, 1.0, [(u, v, 1e-308) for u, v in zip(ids, ids[1:])])
    (workdir / EXTREME_PATH).write_text(dumps_graph(g), encoding="utf-8")
    yield EXTREME_PATH.removesuffix(".json"), ["--graph", EXTREME_PATH], "v0", "v0"


def case_name(*parts: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.:,-]+", "_", "--".join(p for p in parts if p)) + ".txt"


CSV_HEADER = "name,true,bound,relation,slack,pass,vacuous,note"
VALUES = ("true", "bound", "slack")


def parse_case(text: str) -> tuple[str, str, list[dict], str]:
    """(status, stderr, rows, the rest of stdout) of one case file."""
    status, rest = text.split("\n--- stderr\n", 1)
    stderr, stdout = rest.split("--- stdout\n", 1)
    if stdout.startswith("{"):
        doc = json.loads(stdout)
        rows = doc.pop("rows")
        return status, stderr, rows, json.dumps(doc, sort_keys=True)
    head, header, body = stdout.partition(CSV_HEADER + "\n")
    if not header:
        return status, stderr, [], stdout
    rows = []
    for name, true, bound, _, slack, passed, vacuous, note in csv.reader(io.StringIO(body)):
        rows.append({
            "name": name, "true": float(true), "bound": float(bound), "slack": float(slack),
            "pass": passed == "true", "vacuous": vacuous == "true", "note": note,
        })
    return status, stderr, rows, head


def _change(a: float, b: float) -> tuple[float, float]:
    """Absolute and relative change from a to b; (0, 0) when equal."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    delta = abs(a - b)
    return delta, delta / max(abs(a), abs(b))


def compare(dir_a: Path, dir_b: Path) -> int:
    names = sorted({p.name for p in dir_a.iterdir()} | {p.name for p in dir_b.iterdir()})
    broken, identical, outside = [], 0, 0
    moved: dict[str, list] = {}  # row name -> [cases, largest abs, largest rel]
    changed = {name.split("--", 1)[0]: 0 for name in names}  # input -> changed cases
    for name in names:
        path_a, path_b = dir_a / name, dir_b / name
        if not (path_a.exists() and path_b.exists()):
            broken.append(f"{name}: only in {dir_a if path_a.exists() else dir_b}")
            continue
        text_a, text_b = path_a.read_text(encoding="utf-8"), path_b.read_text(encoding="utf-8")
        if text_a == text_b:
            identical += 1
            continue
        changed[name.split("--", 1)[0]] += 1
        status_a, err_a, rows_a, rest_a = parse_case(text_a)
        status_b, err_b, rows_b, rest_b = parse_case(text_b)
        shape_a = [(r["name"], r["pass"], r["vacuous"]) for r in rows_a]
        shape_b = [(r["name"], r["pass"], r["vacuous"]) for r in rows_b]
        if (status_a, err_a, shape_a) != (status_b, err_b, shape_b):
            broken.append(f"{name}: exit code, stderr, row names or flags differ")
            continue
        outside += rest_a != rest_b
        for row_a, row_b in zip(rows_a, rows_b):
            if row_a == row_b:
                continue
            entry = moved.setdefault(row_a["name"], [0, 0.0, 0.0])
            entry[0] += 1
            for key in VALUES:
                delta, rel = _change(float(row_a[key]), float(row_b[key]))
                entry[1], entry[2] = max(entry[1], delta), max(entry[2], rel)
    for line in broken:
        print(line)
    print(f"{len(names)} cases: {identical} identical, {len(broken)} with a different "
          f"exit code, stderr, row names or flags")
    print(f"{'input':44s} {'changed cases':>13s}")
    for source, count in sorted(changed.items()):
        print(f"{source:44s} {count:13d}")
    if broken:
        return 1
    print(f"{outside} cases changed outside their rows")
    print(f"{'row':44s} {'cases':>5s} {'max abs':>10s} {'max rel':>10s}")
    for row, (cases, delta, rel) in sorted(moved.items()):
        print(f"{row:44s} {cases:5d} {delta:10.3g} {rel:10.3g}")
    return 0


def against(ref: str) -> int:
    """Write the cases of ref's src and of the working tree's src, each
    in its own subprocess, and compare them."""
    harness = Path(__file__).resolve()
    root = harness.parent.parent
    archive = subprocess.run(
        ["git", "-C", str(root), "archive", "--format=tar", ref, "src"], capture_output=True
    )
    if archive.returncode:
        print(f"git archive {ref} src failed: {archive.stderr.decode().strip()}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "ref", filter="data")
        sides = {"ref": tmp / "ref" / "src", "work": root / "src"}
        runs = [
            subprocess.Popen(
                [sys.executable, str(harness), str(tmp / f"out-{side}")],
                env=dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1"),
                stdout=subprocess.DEVNULL,
            )
            for side, src in sides.items()
        ]
        if any([run.wait() for run in runs]):  # wait for both
            print("a harness run failed", file=sys.stderr)
            return 1
        print(f"{ref} against the working tree")
        return compare(tmp / "out-ref", tmp / "out-work")


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) == 2 and argv[0] == "--against":
        return against(argv[1])
    # A lone option such as --help is not a directory name.
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 1
    outdir = Path(argv[0]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, source, centers, first in inputs(Path(tmp)):
                for command, variants in OPTIONS.items():
                    for options in variants:
                        options = [o.format(first=first) for o in options]
                        for fmt in FORMATS:
                            case = [command, *source, "--centers", centers, *options,
                                    "--format", fmt]
                            text = run_case(case)
                            path = outdir / case_name(name, command, "_".join(options), fmt)
                            path.write_text(text, encoding="utf-8")
                            count += 1
        finally:
            os.chdir(cwd)
    print(f"{count} cases written to {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
