"""Run a fixed census of default reports in process and print, per spec,
its exit code and each failing row with its slack.

    PYTHONPATH=src python tests/census.py
    PYTHONPATH=src python tests/census.py --write

The specs are `report --generate G --centers C` on comb:3 to comb:30 at
every:2, every:3 and every:4; random:20, 50, 100 and 200 at every:3 and
every:4; apex_ray:50, 100 and 200 at every:4; and lattice:2:5, 2:8 and
2:12 at sublattice:3.  Four inputs found to exit 2 follow: a 4-vertex graph
with weights over 0.11-511 (`--centers v3`), a 2-vertex path whose
geometric rows are equalities (`--centers a`), a 24-vertex graph with a
negative potential (`--interval -50:-49`) and `bounds` on random:30 with
couplings from 1e300 to 1e308.  Their graphs are under tests/data.

--write rewrites tests/data/census.json: for each spec its exit code, the
names of its failing rows and the projection rank of its
`uncertainty/energy_form` row (0 when the window is empty, null without
the row).  check() compares a new run with that file: a spec may exit 0
or with its recorded code, and may fail only rows recorded for it.  A
recorded spec that starts to pass is no regression.  pytest does not
collect this file: its name does not start with test_.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from cli_matrix import parse_case, run_case

DATA = Path(__file__).resolve().parent / "data"
RECORD = DATA / "census.json"


def specs() -> list[list[str]]:
    """The argv of every census run, in order."""
    generated = [
        *((f"comb:{k}", f"every:{s}") for k in range(3, 31) for s in (2, 3, 4)),
        *((f"random:{n}", f"every:{s}") for n in (20, 50, 100, 200) for s in (3, 4)),
        *((f"apex_ray:{n}", "every:4") for n in (50, 100, 200)),
        *((f"lattice:2:{L}", "sublattice:3") for L in (5, 8, 12)),
    ]
    files = [
        ("census_four_vertices.json", ["--centers", "v3"]),
        ("census_two_vertices.json", ["--centers", "a"]),
        ("census_negative_potential_24.json", ["--centers", "every:3", "--interval", "-50:-49"]),
    ]
    return [
        *(["report", "--generate", g, "--centers", c] for g, c in generated),
        *(["report", "--graph", str(DATA / name), *rest] for name, rest in files),
        ["bounds", "--generate", "random:30", "--centers", "every:4",
         "--t-grid", "1e300:1e308:3"],
    ]


def label(argv: list[str]) -> str:
    """argv as one string, with a graph file named by its file name."""
    return " ".join(Path(a).name if a.startswith(str(DATA)) else a for a in argv)


def run(argv: list[str]) -> tuple[dict, list[dict]]:
    """One census run: its record entry (exit code, failing row names,
    projection rank) and its failing rows."""
    status, _, rows, _ = parse_case(run_case(argv))
    failing = [r for r in rows if not r["pass"]]
    rank = None
    for r in rows:
        if r["name"] == "uncertainty/energy_form":
            found = re.search(r"projection rank (\d+)", r["note"])
            rank = int(found.group(1)) if found else 0
    entry = {"exit": int(status.removeprefix("exit ")), "failing": [r["name"] for r in failing],
             "rank": rank}
    return entry, failing


def census() -> dict[str, dict]:
    """The record entry of every spec, by label."""
    return {label(argv): run(argv)[0] for argv in specs()}


def check(result: dict[str, dict], record: dict[str, dict]) -> list[str]:
    """The regressions of result against record: a spec that exits neither
    0 nor with its recorded code, a row that fails and is not recorded as
    failing for that spec, and a spec the record lacks."""
    problems = []
    for name, now in result.items():
        was = record.get(name)
        if was is None:
            problems.append(f"{name}: not in the census record")
            continue
        if now["exit"] not in (0, was["exit"]):
            problems.append(f"{name}: exit {now['exit']}, recorded {was['exit']}")
        new_rows = sorted(set(now["failing"]) - set(was["failing"]))
        if new_rows:
            problems.append(f"{name}: new failing rows {', '.join(new_rows)}")
    return problems


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print(__doc__)
        return 1
    result = {}
    for spec in specs():
        entry, failing = result[label(spec)] = run(spec)
        print(f"exit {entry['exit']}  {label(spec)}")
        for r in failing:
            print(f"    {r['name']}  slack {r['slack']!r}")
    codes = [entry["exit"] for entry, _ in result.values()]
    print(", ".join(f"{codes.count(c)} exit {c}" for c in sorted(set(codes))))
    if argv:
        # One spec per line, so a change to the record diffs by spec.
        lines = (f" {json.dumps(name)}: {json.dumps(e)}" for name, (e, _) in result.items())
        RECORD.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
