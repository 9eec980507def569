"""Bound reports and their machine-readable rendering.

A BoundReport records a computed quantity next to a proved bound for it.
Every bound in this package is a theorem, so a failing non-vacuous row
signals an implementation bug.  Reports render to JSON or CSV with reals
printed at 17 significant digits, which round-trips float64 exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__

PASS_TOLERANCE = 1e-9

_RELATIONS = (">=", "<=")


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: true_value RELATION bound_value."""

    name: str
    true_value: float
    bound_value: float
    relation: str
    slack: float
    passed: bool
    vacuous: bool = False
    note: str = ""


def make_report(
    name: str,
    true_value: float,
    bound_value: float,
    relation: str,
    vacuous: bool = False,
    note: str = "",
) -> BoundReport:
    """Build a report row; pass means the relation holds with -1e-9 slack."""
    if relation not in _RELATIONS:
        raise ValueError(f"relation must be one of {_RELATIONS}")
    if relation == ">=":
        slack = true_value - bound_value
    else:
        slack = bound_value - true_value
    vacuous = bool(vacuous)
    passed = bool(vacuous or slack >= -PASS_TOLERANCE)
    return BoundReport(
        name=name,
        true_value=float(true_value),
        bound_value=float(bound_value),
        relation=relation,
        slack=float(slack),
        passed=passed,
        vacuous=vacuous,
        note=note,
    )


def rows_pass(rows) -> bool:
    """True when every non-vacuous row passes."""
    return all(r.passed for r in rows if not r.vacuous)


@dataclass
class Report:
    """A full run: configuration echo, rows, wall-clock timings, version."""

    config: dict
    rows: tuple[BoundReport, ...]
    timings: dict = field(default_factory=dict)
    version: str = __version__


# ---------------------------------------------------------------------------
# Rendering.  Floats are written with %.17g so parsing returns the same bits;
# the writer controls key order explicitly, so equal reports render to equal
# bytes (timings are data like everything else and are simply dropped by
# callers that compare runs).
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("refusing to serialize NaN")
    if math.isinf(x):
        return "1e999" if x > 0 else "-1e999"
    return "%.17g" % x


def _write_value(value, out: list) -> None:
    if isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
    elif isinstance(value, (float, np.floating)):
        out.append(format_float(float(value)))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)) + ": ")
            _write_value(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(", ")
            _write_value(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def dumps_value(value) -> str:
    out: list = []
    _write_value(value, out)
    return "".join(out)


def _row_dict(row: BoundReport) -> dict:
    return {
        "name": row.name,
        "true": row.true_value,
        "bound": row.bound_value,
        "relation": row.relation,
        "slack": row.slack,
        "pass": row.passed,
        "vacuous": row.vacuous,
        "note": row.note,
    }


def render_json(report: Report) -> str:
    doc = {
        "config": report.config,
        "rows": [_row_dict(r) for r in report.rows],
        "timings": report.timings,
        "version": report.version,
    }
    return dumps_value(doc) + "\n"


def render_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["name", "true", "bound", "relation", "slack", "pass", "vacuous", "note"]
    )
    for r in report.rows:
        writer.writerow(
            [
                r.name,
                format_float(r.true_value),
                format_float(r.bound_value),
                r.relation,
                format_float(r.slack),
                str(r.passed).lower(),
                str(r.vacuous).lower(),
                " ".join(r.note.split()),  # keep one physical line per row
            ]
        )
    return buf.getvalue()


def parse_json(text: str) -> Report:
    doc = json.loads(text)
    rows = tuple(
        BoundReport(
            name=r["name"],
            true_value=float(r["true"]),
            bound_value=float(r["bound"]),
            relation=r["relation"],
            slack=float(r["slack"]),
            passed=bool(r["pass"]),
            vacuous=bool(r["vacuous"]),
            note=r["note"],
        )
        for r in doc["rows"]
    )
    return Report(
        config=doc["config"],
        rows=rows,
        timings=doc.get("timings", {}),
        version=doc.get("version", ""),
    )


def render(report: Report, fmt: str) -> str:
    if fmt == "json":
        return render_json(report)
    if fmt == "csv":
        return render_csv(report)
    raise ValueError(f"unknown format {fmt!r}")
