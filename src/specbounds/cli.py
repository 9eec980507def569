"""Command-line front end.

Subcommands: validate | metric | voronoi | spectrum | bounds | uncertainty
| cheeger | transform | report.  Exit codes: 0 when every non-vacuous row
passes, 2 when a bound row fails (an implementation bug, since every bound
is a theorem), 1 for usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import cache, cached_property

import numpy as np

from . import __version__
from .cheeger import cheeger_chain
from .errors import GraphError, InvalidSpec
from .generators import DEFAULT_SEED, generate
from .graph import WeightedGraph, is_combinatorial, load_graph
from .metric import ball, check_homogeneity, covering_radius, covering_radius_by_search
from .potential import (
    GroundState,
    ground_state,
    ground_state_transform_check,
    potential_dirichlet_bound,
)
from .report import Report, dumps_value, format_float, make_report, render, rows_pass
from .spectral import (
    AnalysisContext,
    coupling_rate,
    dirichlet_bounds_finite,
    dirichlet_lower_bound,
    eigenvalues_of,
    resolvent_gap,
    uncertainty_constant,
    window_indices,
)
from .voronoi import VoronoiDecomposition, build_voronoi, verify_voronoi


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="specbounds",
        description="Geometric eigenvalue bounds on finite weighted graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, centers_required: bool = False) -> None:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--graph", help="path to a JSON graph file")
        src.add_argument("--generate", help="generator spec, e.g. lattice:2:8")
        p.add_argument(
            "--centers",
            required=centers_required,
            help=(
                "center spec: explicit ids a,b,c (use ';' between "
                "coordinate ids like 0,0;3,3) | every:k | sublattice:k"
            ),
        )
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out", help="output file (default: stdout)")

    common(sub.add_parser("validate", help="check invariants, print constants"))

    p = sub.add_parser("metric", help="distances, inradius, covering radius")
    common(p)
    p.add_argument("--radius", help="optional ball radius (decimal string)")
    p.add_argument("--ball-center", help="vertex id for the ball query")

    common(sub.add_parser("voronoi", help="build and verify a decomposition"), True)

    p = sub.add_parser("spectrum", help="eigenvalues of the operator")
    common(p)
    p.add_argument("--interval", default=None, help="a:b; also report the window")

    p = sub.add_parser("bounds", help="Dirichlet eigenvalue bounds")
    common(p, True)
    p.add_argument(
        "--t-grid", default=None,
        help="start:stop:points; adds coupling-rate and resolvent rows",
    )

    p = sub.add_parser("uncertainty", help="low-energy uncertainty constants")
    common(p, True)
    p.add_argument("--interval", default="auto", help="a:b or 'auto' (= 0:lam/2)")

    common(sub.add_parser("cheeger", help="isoperimetric bound chain"), True)

    p = sub.add_parser("transform", help="ground state and potential bound")
    common(p, True)
    p.add_argument("--doubling-N", type=float, default=None)

    p = sub.add_parser("report", help="run the whole verification pipeline")
    common(p, True)
    p.add_argument("--interval", default="auto")
    p.add_argument("--t-grid", default="auto")
    p.add_argument("--doubling-N", type=float, default=None)
    return parser


# Options that take a range (a:b or start:stop:points).
RANGE_OPTIONS = ("--interval", "--t-grid")


def join_negative_ranges(argv: list[str]) -> list[str]:
    """Rewrite '--interval -10:-5' as '--interval=-10:-5'.

    argparse reads a separate value that starts with '-' as an option
    unless it is a plain negative number; a range always holds ':', which
    no option does.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in RANGE_OPTIONS and arg.startswith("-") and ":" in arg:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


T_GRID_FORM = (
    "start:stop:points with finite numbers start and stop and a whole number of points >= 1"
)


def _numbers(option: str, spec, form: str, count: int = 1) -> list[float]:
    """The count colon-separated finite numbers of an option's value, or a
    ValueError naming the option and its form."""
    try:
        values = [float(x) for x in str(spec).split(":")]
    except ValueError:
        values = []
    if len(values) != count or not all(map(math.isfinite, values)):
        raise ValueError(f"{option} {spec}: expected {form}")
    return values


def _check_numbers(args) -> None:
    """Refuse a malformed or non-finite number option, a negative seed, or
    half a ball query, before any stage runs; only the 'auto' forms wait
    for the graph."""
    if args.seed < 0:
        raise ValueError(f"--seed {args.seed}: expected a nonnegative integer")
    interval = getattr(args, "interval", None)
    if interval is not None and (interval != "auto" or args.command == "spectrum"):
        parse_interval(interval, None)
    if getattr(args, "t_grid", None) not in (None, "auto"):
        parse_t_grid(args.t_grid, math.nan)
    for option in ("radius", "doubling_N"):
        if getattr(args, option, None) is not None:
            _numbers("--" + option.replace("_", "-"), getattr(args, option), "a finite number")
    if (getattr(args, "radius", None) is None) != (getattr(args, "ball_center", None) is None):
        raise ValueError("--radius and --ball-center ask for one ball: give both or neither")


def parse_centers(g: WeightedGraph, spec: str) -> tuple[str, ...]:
    """Resolve a centers spec against a graph's canonical vertex order."""
    spec = spec.strip()
    kind, colon, arg = spec.partition(":")
    if colon and kind in ("every", "sublattice"):
        try:
            k = int(arg)
        except ValueError:
            raise InvalidSpec(f"--centers {spec}: expected {kind}:k with a whole number k") from None
        if k < 1:
            raise InvalidSpec(f"{kind}:k needs k >= 1")
        if kind == "every":
            return g.vertices[::k]
        chosen = []
        for v in g.vertices:
            try:
                coords = [int(c) for c in v.split(",")]
            except ValueError:
                raise InvalidSpec(
                    "sublattice centers need coordinate-string vertex ids"
                ) from None
            if all(c % k == 0 for c in coords):
                chosen.append(v)
        if not chosen:
            raise InvalidSpec(f"sublattice:{k} selected no vertices")
        return tuple(chosen)
    # Explicit lists: a whole-string id first (lattice ids contain commas),
    # then a semicolon-separated list, then a comma-separated one.
    if spec in g.index:
        return (spec,)
    separator = ";" if ";" in spec else ","
    names = tuple(x.strip() for x in spec.split(separator) if x.strip())
    unknown = [x for x in names if x not in g.index]
    if unknown:
        raise InvalidSpec(f"unknown center ids: {unknown}")
    return names


def parse_interval(spec: str, lam_omega: float | None) -> tuple[float, float]:
    """a:b with finite a <= b, or 'auto' = 0:lam_omega/2 (spectrum passes
    None)."""
    if spec == "auto":
        if lam_omega is None:
            raise ValueError("spectrum --interval takes a:b, not 'auto'")
        if lam_omega < 0.0:
            raise ValueError(
                f"--interval auto means 0:lambda_Omega/2, which is empty because "
                f"lambda_Omega = {lam_omega!r} < 0; give an explicit --interval a:b"
            )
        return (0.0, 0.5 * lam_omega)
    lo, hi = _numbers("--interval", spec, "a:b with finite numbers a and b", 2)
    if lo > hi:
        raise ValueError("interval endpoints must satisfy a <= b")
    return (lo, hi)


def parse_t_grid(spec: str, threshold: float) -> list[float]:
    if spec == "auto":
        if not math.isfinite(100.0 * threshold):
            raise ValueError(
                f"--t-grid auto: 100 times the coupling threshold 2 ||H+1||^2 = "
                f"{threshold!r} overflows float64; give start:stop:points"
            )
        return [0.0] + list(np.geomspace(threshold, 100.0 * threshold, 8))
    start, stop, points = _numbers("--t-grid", spec, T_GRID_FORM, 3)
    if not (points.is_integer() and points >= 1.0):
        raise ValueError(f"--t-grid {spec}: expected {T_GRID_FORM}")
    if not (start > 0.0 and stop > 0.0):
        raise ValueError(f"--t-grid {spec}: couplings start and stop must be positive")
    return list(np.geomspace(start, stop, int(points)))


def load_input(args) -> WeightedGraph:
    if args.graph:
        return load_graph(args.graph)
    return generate(args.generate, seed=args.seed)


def config_echo(args) -> dict:
    keys = (
        "command", "graph", "generate", "centers", "format", "seed",
        "interval", "t_grid", "doubling_N", "radius", "ball_center",
    )
    cfg = {"version": __version__}
    for k in keys:
        if hasattr(args, k):
            cfg[k] = getattr(args, k)
    return cfg


# ---------------------------------------------------------------------------
# Stages.  Each command is a list of stage names.  A stage returns its rows,
# or None when it only adds payload to run.extra; whatever several stages
# share comes from the run's AnalysisContext, computed once.
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _Run:
    """One command: its arguments, context and payload, plus the values
    that more than one stage reads (each computed on first use)."""

    args: argparse.Namespace
    ctx: AnalysisContext | None = None
    extra: dict = field(default_factory=dict)

    @cached_property
    def t_grid(self) -> list[float] | None:
        spec = self.args.t_grid
        return None if spec is None else parse_t_grid(spec, self.ctx.threshold)

    @cached_property
    def voronoi(self) -> VoronoiDecomposition:
        return build_voronoi(self.ctx.graph, self.ctx.centers)

    @cached_property
    def ground_state(self) -> GroundState:
        return ground_state(self.ctx)


def _load(run: _Run) -> None:
    g = load_input(run.args)
    # The validate command checks the graph alone and ignores --centers.
    spec = None if run.args.command == "validate" else run.args.centers
    run.ctx = AnalysisContext(g, parse_centers(g, spec) if spec else ())
    g.constants  # refuse a disconnected graph before any other stage reads it


def _constants(run: _Run) -> None:
    g = run.ctx.graph
    run.extra["constants"] = {"n": g.n, "edges": len(g.edges), **asdict(g.constants)}


def _distances(run: _Run) -> None:
    ctx, args = run.ctx, run.args
    md = ctx.metric
    run.extra["vertices"] = list(ctx.graph.vertices)
    run.extra["distances"] = md.dist.tolist()
    if ctx.centers:
        run.extra["covering_radius"] = covering_radius(md, ctx.centers)
        run.extra["inradius_of_complement"] = ctx.R if ctx.omega else None
    if args.radius is not None:  # with --ball-center, checked up front
        run.extra["ball"] = list(ball(md, args.ball_center, float(args.radius), closed=True))


def _eigenvalues(run: _Run) -> None:
    ctx, args = run.ctx, run.args
    interval = None if args.interval is None else parse_interval(args.interval, None)
    evals = eigenvalues_of(ctx.operator)
    run.extra["eigenvalues"] = evals.tolist()
    if ctx.centers and ctx.omega:
        run.extra["restricted_eigenvalues"] = eigenvalues_of(ctx.region_operator).tolist()
    if interval is not None:
        run.extra["interval"] = list(interval)
        run.extra["eigenvalues_in_interval"] = evals[window_indices(evals, interval)].tolist()


def _covering(run: _Run) -> list:
    ctx = run.ctx
    if not (ctx.centers and ctx.omega):
        return []
    # An independent multi-source search against the table's inradius.
    covr = covering_radius_by_search(ctx.graph, ctx.centers)
    return [make_report("metric/covering_equals_inradius", abs(covr - ctx.R), 0.0, "<=")]


def _cells(run: _Run) -> None:
    vd = run.voronoi
    run.extra["cells"] = {p: list(vs) for p, vs in vd.cells.items()}
    run.extra["witnesses"] = {v: list(vd.witness(v)) for v in run.ctx.graph.vertices}


def _resolvent(run: _Run) -> list:
    if run.t_grid is None:
        return []
    return [resolvent_gap(run.ctx, max(run.t_grid))]


def _cheeger(run: _Run) -> list:
    # report skips the chain on weighted graphs; the cheeger command reports
    # them as an input error.
    if run.args.command == "report" and not is_combinatorial(run.ctx.graph):
        return []
    return cheeger_chain(run.ctx)


def _ground_energy(run: _Run) -> None:
    run.extra["lambda_v"] = run.ground_state.lambda_v
    run.extra["c"] = run.ground_state.c


# Every stage by name, in the row order of the report command.
STAGES = {
    "load": _load,
    "constants": _constants,
    "distances": _distances,
    "eigenvalues": _eigenvalues,
    "region": lambda run: run.ctx.require_region(),
    "operator_norm": lambda run: [
        make_report(
            "operator/norm_vs_weighted_degree",
            run.ctx.norm,
            # ||H|| <= ||L|| + ||V/m||, and ||L|| <= 2 delta.
            run.ctx.graph.constants.operator_norm_bound + run.ctx.potential_norm,
            "<=",
        )
    ],
    "homogeneity": lambda run: check_homogeneity(run.ctx.metric, seed=run.args.seed),
    "covering": _covering,
    "voronoi": lambda run: verify_voronoi(run.voronoi, run.ctx.metric),
    "cells": _cells,
    "finite_volume": lambda run: dirichlet_bounds_finite(run.ctx),
    "ball_volume": lambda run: dirichlet_lower_bound(run.ctx),
    "coupling": lambda run: [] if run.t_grid is None else coupling_rate(run.ctx, run.t_grid),
    "resolvent": _resolvent,
    "uncertainty": lambda run: uncertainty_constant(
        run.ctx, parse_interval(run.args.interval, run.ctx.lambda_omega)
    ),
    "cheeger": _cheeger,
    "ground_energy": _ground_energy,
    "transform_identity": lambda run: [
        ground_state_transform_check(run.ctx.graph, run.ground_state, seed=run.args.seed)
    ],
    "potential_bound": lambda run: potential_dirichlet_bound(
        run.ctx, run.ground_state, doubling_exponent=run.args.doubling_N
    ),
}
# Stages that only add payload, which report does not print.
PAYLOAD_STAGES = ("constants", "distances", "eigenvalues", "cells", "ground_energy")

COMMANDS = {
    "validate": ("load", "constants"),
    "metric": ("load", "distances", "covering"),
    "spectrum": ("load", "eigenvalues"),
    "voronoi": ("load", "voronoi", "cells"),
    "bounds": ("load", "region", "finite_volume", "ball_volume", "coupling", "resolvent"),
    "uncertainty": ("load", "region", "uncertainty"),
    "cheeger": ("load", "region", "cheeger"),
    "transform": ("load", "region", "ground_energy", "transform_identity", "potential_bound"),
    # Every stage that emits rows, including two that only report runs.
    "report": tuple(name for name in STAGES if name not in PAYLOAD_STAGES),
}


def run(args) -> tuple[Report, dict]:
    """Execute one subcommand; returns the report plus extra payload.

    Each stage is timed on its own, so the timings never overlap.
    """
    _check_numbers(args)
    state = _Run(args)
    rows: list = []
    timings: dict = {}
    for name in COMMANDS[args.command]:
        t0 = time.perf_counter()
        rows.extend(STAGES[name](state) or ())
        timings[name] = time.perf_counter() - t0
    return Report(config_echo(args), tuple(rows), timings), state.extra


def _metric_csv(report: Report, extra: dict) -> str:
    """Distance matrix as CSV, with summary radii and the report rows below."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    ids = extra["vertices"]
    writer.writerow(["id"] + ids)
    for vid, row in zip(ids, extra["distances"]):
        writer.writerow([vid] + [format_float(x) for x in row])
    if "covering_radius" in extra:
        writer.writerow(["covering_radius", format_float(extra["covering_radius"])])
    if extra.get("inradius_of_complement") is not None:
        writer.writerow(
            ["inradius_of_complement", format_float(extra["inradius_of_complement"])]
        )
    text = buf.getvalue()
    if report.rows:
        text += "\n" + render(report, "csv")
    return text


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(join_negative_ranges(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 0 if not exc.code else 1

    try:
        report, extra = run(args)
    except (GraphError, OSError, ValueError) as exc:
        print(f"specbounds: error: {exc}", file=sys.stderr)
        return 1

    if args.command == "metric" and args.format == "csv":
        text = _metric_csv(report, extra)
    else:
        text = render(report, args.format)
        if extra and args.format == "json":
            # Extra payload (constants, distances, cells, ...) rides along in JSON.
            text = text.rstrip("\n")[:-1] + ', "extra": ' + dumps_value(extra) + "}\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if rows_pass(report.rows) else 2


if __name__ == "__main__":
    raise SystemExit(main())
