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
large graphs) is written as its length and SHA-256 digest.

The graph files among the inputs are written to a temporary directory,
which is the working directory during the run, so the paths echoed in each
report's config are the same in every checkout.  pytest does not collect
this file: its name does not start with test_.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

from specbounds import cli, dumps_graph, generate, random_connected

GENERATED = [
    ("random:100", "every:4"),
    ("random:300", "every:4"),
    ("random:800", "every:4"),
    ("lattice:2:5", "sublattice:2"),
    ("lattice:2:20", "sublattice:3"),
    ("comb:12", "every:3"),
    ("apex_ray:200", "every:4"),
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

# Options per subcommand; [] runs it with its defaults.  "9,9" is a vertex
# id that most inputs lack.
OPTIONS = {
    "validate": [[]],
    "metric": [[], ["--radius", "1.0", "--ball-center", "{first}"],
               ["--radius", "1.0", "--ball-center", "9,9"]],
    "voronoi": [[]],
    "spectrum": [[], ["--interval", "0:0.5"], ["--interval", "3:1"], ["--interval", "auto"]],
    "bounds": [[], ["--t-grid", "auto"], ["--t-grid", "1:100:3"]],
    "uncertainty": [[], ["--interval", "-4:-3"], ["--interval", "3:1"], ["--t-grid", "auto"]],
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


def case_name(*parts: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.:,-]+", "_", "--".join(p for p in parts if p)) + ".txt"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
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
