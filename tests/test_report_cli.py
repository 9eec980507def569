"""Report rendering, round trips, CLI contract, and determinism."""

import json
import math
import os
import re
import sys
import tomllib
from collections import Counter
from functools import cached_property
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy import sparse

import specbounds
from specbounds import graph, metric, potential, spectral
from specbounds import (
    AnalysisContext,
    Report,
    WeightedGraph,
    dumps_graph,
    generate,
    make_report,
    random_connected,
    render_csv,
    render_json,
)
from specbounds import cli
from specbounds.metric import MetricData
from specbounds.report import dumps_value

from cli_matrix import run_case
from helpers import (
    assert_no_child_left,
    deadline,
    dijkstra_raising,
    needs_fork,
    parse_json,
    record_coupled,
    uncertainty_grid,
    usable_cpus,
    with_potential,
)
from stage_memory import stage_memory, untraced_table_bytes


def test_report_relations_and_tolerance():
    assert make_report("x", 1.0, 0.5, ">=").passed
    assert not make_report("x", 0.5, 1.0, ">=").passed
    assert make_report("x", 0.5, 1.0, "<=").passed
    # Exactly at the tolerance margin still passes; beyond it fails.
    assert make_report("x", 1.0 - 1e-9, 1.0, ">=").passed
    assert not make_report("x", 1.0 - 2e-9, 1.0, ">=").passed
    assert make_report("x", 0.0, 1.0, ">=", vacuous=True).passed
    with pytest.raises(ValueError):
        make_report("x", 0.0, 0.0, "==")


def _sample_report():
    rows = (
        make_report("a", 1.0 / 3.0, 0.25, ">=", note="one, third"),
        make_report("b", 1e-300, 2.0**-1074, ">=", note='quote " and \n newline'),
        make_report("c", 0.1 + 0.2, 0.3, ">=", vacuous=True),
    )
    return Report(
        config={"command": "bounds", "seed": 7, "interval": [0.0, 0.5], "graph": None},
        rows=rows,
        timings={"metric": 0.001234},
        version="0.1.0",
    )


def test_json_round_trip_is_exact():
    report = _sample_report()
    back = parse_json(render_json(report))
    assert back == report


def _dumps_as_dict(report):
    """Reference for render_json: the whole report through dumps_value."""
    rows = [
        {"name": r.name, "true": r.true_value, "bound": r.bound_value,
         "relation": r.relation, "slack": r.slack, "pass": r.passed,
         "vacuous": r.vacuous, "note": r.note}
        for r in report.rows
    ]
    doc = {"config": report.config, "rows": rows, "timings": report.timings,
           "version": report.version}
    return dumps_value(doc) + "\n"


def test_json_rows_match_the_generic_writer_byte_for_byte(capsys):
    report = _sample_report()
    odd = make_report(
        "odd/\"quoted\"", -0.0, float("inf"), "<=",
        note='say "hi" \\ back\\slash, caf\u00e9 \u03bb\u2080 \U0001d53c',
    )
    report = Report(report.config, report.rows + (odd,), report.timings, report.version)
    assert render_json(report) == _dumps_as_dict(report)
    assert parse_json(render_json(report)) == report
    assert render_json(Report(config={}, rows=())) == _dumps_as_dict(Report(config={}, rows=()))
    # The golden 22-vertex report, timings included.
    expected = json.loads(
        (Path(__file__).parent / "data" / "report_lattice_2_5_region22.json").read_text()
    )
    assert cli.main(expected["argv"]) == expected["exit_code"]
    golden = parse_json(capsys.readouterr().out)
    assert len(golden.rows) == len(expected["rows"])
    assert render_json(golden) == _dumps_as_dict(golden)


def test_json_empty_rows_is_valid():
    report = Report(config={}, rows=())
    doc = json.loads(render_json(report))
    assert doc["rows"] == []


def test_csv_has_header_and_one_line_per_row():
    report = _sample_report()
    lines = render_csv(report).splitlines()
    assert lines[0].startswith("name,true,bound,")
    assert len(lines) == 1 + len(report.rows)


def test_float_format_round_trips_awkward_values():
    for x in (1.0 / 3.0, 0.1, 1e-300, 1e300, 2.0**-1074, 5.0):
        from specbounds.report import format_float

        assert float(format_float(x)) == x


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_bounds_k2(capsys):
    code = cli.main(["bounds", "--generate", "k2", "--centers", "v1"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    rows = {r["name"]: r for r in doc["rows"]}
    assert rows["dirichlet/lower_ball_volume"]["bound"] == 0.5
    assert rows["dirichlet/lower_ball_volume"]["true"] == 1.0
    assert all(r["pass"] for r in doc["rows"])


def test_cli_uncertainty_line_graph(capsys):
    code = cli.main(
        ["uncertainty", "--generate", "path:30", "--centers", "every:3",
         "--interval", "0:0.01"]
    )
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    names = [r["name"] for r in doc["rows"]]
    assert "uncertainty/energy_form" in names
    assert "uncertainty/sampled_coupling" in names


def test_cli_malformed_graph_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    code = cli.main(["validate", "--graph", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error" in err


def test_cli_unknown_center_exits_one(capsys):
    code = cli.main(["bounds", "--generate", "k2", "--centers", "zz"])
    assert code == 1


def test_cli_usage_error_exits_one(capsys):
    assert cli.main(["bounds", "--generate", "k2"]) == 1  # centers required
    assert cli.main(["nonsense"]) == 1


def test_parser_is_built_once_per_process(capsys):
    assert cli.build_parser() is cli.build_parser()
    # A usage error leaves the shared parser usable.
    assert cli.main(["report", "--generate", "path:6"]) == 1  # centers required
    assert cli.main(["report", "--generate", "path:6", "--centers", "every:3"]) == 0


@pytest.mark.parametrize("command", [["report"], ["bounds", "--t-grid", "auto"]], ids=" ".join)
def test_cli_repeated_center_id_counts_once(capsys, command):
    """A centre named twice is one centre; two equal columns of E_D made
    the resolvent row's block on D singular."""

    def rows(centers):
        assert cli.main([*command, "--generate", "path:6", "--centers", centers]) == 0
        return json.loads(capsys.readouterr().out)["rows"]

    assert rows("v0,v0") == rows("v0")


def test_bounds_explicit_t_grid_is_geometric(capsys):
    """--t-grid start:stop:points samples t geometrically; the resolvent
    row reads the largest t."""
    assert cli.parse_t_grid("1:100:3", 1.0) == [1.0, 10.0, 100.0]
    argv = ["bounds", "--generate", "path:6", "--centers", "every:3", "--t-grid", "1:100:3"]
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["t_grid"] == "1:100:3"
    notes = {r["name"]: r["note"] for r in doc["rows"]}
    for k, t in enumerate(("1.0", "10.0", "100.0")):
        assert notes[f"coupling/rate#{k}"].split(";")[0] == f"t={t}"
    assert "coupling/rate#3" not in notes
    assert notes["resolvent/schur_gap"].startswith("t=100.0, ")


def test_cli_injected_bound_violation_exits_two(monkeypatch, capsys):
    def broken(ctx):
        return [make_report("dirichlet/lower_ball_volume", 0.0, 1.0, ">=")]

    monkeypatch.setattr(cli, "dirichlet_lower_bound", broken)
    code = cli.main(["bounds", "--generate", "k2", "--centers", "v1"])
    assert code == 2


def test_cli_graph_file_round_trip(tmp_path, capsys):
    g = random_connected(10, seed=2, m_range=(0.5, 2.0))
    path = tmp_path / "g.json"
    path.write_text(dumps_graph(g), encoding="utf-8")
    code = cli.main(["metric", "--graph", str(path), "--centers", "v0,v3"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["extra"]["covering_radius"] == doc["extra"]["inradius_of_complement"]


def test_cli_ball_query(capsys):
    code = cli.main(
        ["metric", "--generate", "path:5", "--centers", "v0",
         "--radius", "1.5", "--ball-center", "v2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["extra"]["ball"] == ["v1", "v2", "v3"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "spec, center", [("lattice:2:5", "9,9"), ("lattice:2:5", "v0"), ("comb:12", "v0"),
                     ("apex_ray:20", "v0")]
)
def test_cli_unknown_ball_center_exits_one(capsys, fmt, spec, center):
    code = cli.main(
        ["metric", "--generate", spec, "--radius", "1.0", "--ball-center", center,
         "--format", fmt]
    )
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == f"specbounds: error: unknown ball center id: {center!r}\n"


INTERVAL_FORM = "a:b with finite numbers a and b"
T_GRID_FORM = (
    "start:stop:points with finite numbers start and stop and a whole number of points >= 1"
)
HALF_A_BALL = "--radius and --ball-center ask for one ball: give both or neither"
BAD_NUMBERS = [
    (["spectrum", "--interval", "0:nan"], f"--interval 0:nan: expected {INTERVAL_FORM}"),
    (["uncertainty", "--interval", "0:nan"], f"--interval 0:nan: expected {INTERVAL_FORM}"),
    (["report", "--interval", "0:nan"], f"--interval 0:nan: expected {INTERVAL_FORM}"),
    (["uncertainty", "--interval", "nan:0.1"], f"--interval nan:0.1: expected {INTERVAL_FORM}"),
    (["spectrum", "--interval", "0.1"], f"--interval 0.1: expected {INTERVAL_FORM}"),
    (["report", "--interval", "0:1:2"], f"--interval 0:1:2: expected {INTERVAL_FORM}"),
    (["transform", "--doubling-N", "nan"], "--doubling-N nan: expected a finite number"),
    (["report", "--doubling-N", "inf"], "--doubling-N inf: expected a finite number"),
    (["bounds", "--t-grid", "1:inf:3"], f"--t-grid 1:inf:3: expected {T_GRID_FORM}"),
    (["report", "--t-grid", "1:2"], f"--t-grid 1:2: expected {T_GRID_FORM}"),
    (["bounds", "--t-grid", "1:100:2.5"], f"--t-grid 1:100:2.5: expected {T_GRID_FORM}"),
    (["bounds", "--t-grid", "1:100:-1"], f"--t-grid 1:100:-1: expected {T_GRID_FORM}"),
    (["bounds", "--t-grid", "1:2:0"], f"--t-grid 1:2:0: expected {T_GRID_FORM}"),
    (["metric", "--radius", "nan", "--ball-center", "v0"], "--radius nan: expected a finite number"),
    (["metric", "--radius", "abc", "--ball-center", "v0"], "--radius abc: expected a finite number"),
    (["report", "--centers", "every:x"], "--centers every:x: expected every:k with a whole number k"),
    (["cheeger", "--centers", "sublattice:y"],
     "--centers sublattice:y: expected sublattice:k with a whole number k"),
    (["report", "--seed", "-1"], "--seed -1: expected a nonnegative integer"),
    (["metric", "--radius", "1.0"], HALF_A_BALL),
    (["metric", "--ball-center", "v0"], HALF_A_BALL),
]


@pytest.mark.parametrize("argv, message", BAD_NUMBERS, ids=[" ".join(a) for a, _ in BAD_NUMBERS])
def test_cli_bad_number_is_a_one_line_error(monkeypatch, capsys, argv, message):
    """A malformed or non-finite number option exits 1 with one line that
    names the option and its form, and half a ball query with one line
    that names both its options.  Every option but --centers (which
    needs the graph) is refused before any stage runs: loading the graph
    would fail the test here."""
    command, options = argv[0], argv[1:]
    if "--centers" not in options:
        options = options + ["--centers", "every:3"]

        def no_stage(args):
            raise AssertionError("a stage ran before the options were checked")

        monkeypatch.setattr(cli, "load_input", no_stage)
    assert cli.main([command, "--generate", "path:6", *options]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"specbounds: error: {message}\n"


RANDOM_RANGE_FORM = "expected random:n:wlo:whi with finite numbers 0 < wlo <= whi"
INPUT_ERRORS = [
    (["validate", "--generate", "cycle:2"], "cycle needs n >= 3"),
    (["validate", "--generate", "complete:0"], "complete graph needs n >= 1"),
    (["validate", "--generate", "lattice:2:1000"], "lattice box too large"),
    (["validate", "--generate", "apex_ray:10001"], "apex_ray truncation too large"),
    (["validate", "--generate", "comb:27"], "comb truncation limited to N <= 26 (exact weights)"),
    (["validate", "--generate", "random:0"], "random graph needs n >= 1"),
    (["validate", "--generate", "normalized:"], "normalized needs an inner spec"),
    (["validate", "--generate", "normalized:path:1"],
     "normalized measure needs at least one edge"),
    (["validate", "--generate", "lattice:2"], "lattice spec is lattice:d:L"),
    (["validate", "--generate", "random:5:1"], "random spec is random:n or random:n:wlo:whi"),
    (["validate", "--generate", "path:x"], "path: expected an integer, got 'x'"),
    (["validate", "--generate", "random:5:a:1"], f"random:5:a:1: {RANDOM_RANGE_FORM}"),
    (["validate", "--generate", "random:5:1:inf"], f"random:5:1:inf: {RANDOM_RANGE_FORM}"),
    (["validate", "--generate", "random:5:nan:1"], f"random:5:nan:1: {RANDOM_RANGE_FORM}"),
    (["report", "--generate", "path:6", "--centers", "every:0"], "every:k needs k >= 1"),
    (["report", "--generate", "apex_ray:3", "--centers", "sublattice:5"],
     "sublattice:5 selected no vertices"),
    # --graph takes the file's JSON text here.
    (["validate", "--graph", "[]"], "expected an object with 'vertices' and 'edges'"),
    (["validate", "--graph", '{"vertices": [{"id": "a"}], "edges": []}'],
     "vertex entries need 'id' and 'm'"),
    (["validate", "--graph",
      '{"vertices": [{"id": "a", "m": 1}, {"id": "b", "m": 1}], "edges": [{"u": "a", "w": "b"}]}'],
     "edge entries need 'u', 'w' and 'b'"),
    (["validate", "--graph", '{"vertices": [{"id": "a", "m": "x"}], "edges": []}'],
     "malformed graph entry: could not convert string to float: 'x'"),
    (["validate", "--graph",
      '{"vertices": [{"id": "a", "m": 1}], "edges": [{"u": "a", "w": "z", "b": 1}]}'],
     "edge references unknown vertex: 'a'-'z'"),
]


@pytest.mark.parametrize(
    "argv, message", INPUT_ERRORS, ids=[" ".join(a[1:]) for a, _ in INPUT_ERRORS]
)
def test_cli_input_error_is_a_one_line_error(tmp_path, capsys, argv, message):
    """A generator spec, a --centers spec or a JSON graph file that breaks
    its form exits 1 with exactly one error line and no output."""
    if "--graph" in argv:
        k = argv.index("--graph") + 1
        path = tmp_path / "graph.json"
        path.write_text(argv[k])
        argv = [*argv[:k], str(path), *argv[k + 1:]]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"specbounds: error: {message}\n"


def test_uncertainty_t_grid_option_is_unknown(capsys):
    argv = ["uncertainty", "--generate", "path:6", "--centers", "every:3"]
    assert cli.main(argv) == 0
    assert "t_grid" not in json.loads(capsys.readouterr().out)["config"]
    assert cli.main(argv + ["--t-grid", "garbage"]) == 1
    assert "unrecognized arguments: --t-grid garbage" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "uncertainty", "report"])
def test_cli_interval_with_a_above_b_exits_one(capsys, command):
    argv = [command, "--generate", "path:6", "--centers", "every:3", "--interval", "3:1"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "specbounds: error: interval endpoints must satisfy a <= b\n"


def test_cli_spectrum_interval_auto_exits_one(capsys):
    assert cli.main(["spectrum", "--generate", "path:6", "--interval", "auto"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "specbounds: error: spectrum --interval takes a:b, not 'auto'\n"
    assert "could not convert" not in err


def test_cli_spectrum_interval_keeps_its_window(capsys):
    assert cli.main(["spectrum", "--generate", "path:6", "--interval", "0:1"]) == 0
    extra = json.loads(capsys.readouterr().out)["extra"]
    assert extra["interval"] == [0.0, 1.0]
    assert extra["eigenvalues_in_interval"] == [x for x in extra["eigenvalues"] if x <= 1.0 + 1e-12]
    assert list(extra) == ["eigenvalues", "interval", "eigenvalues_in_interval"]


def test_cli_csv_format(capsys):
    code = cli.main(["bounds", "--generate", "path:6", "--centers", "v0,v5", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].startswith("name,")


def test_cli_metric_csv_contains_distance_matrix(capsys):
    code = cli.main(
        ["metric", "--generate", "path:4", "--centers", "v3", "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "id,v0,v1,v2,v3"
    assert lines[1].split(",")[:3] == ["v0", "0", "1"]
    assert any(line.startswith("covering_radius,3") for line in lines)
    assert any(line.startswith("inradius_of_complement,3") for line in lines)


def test_cli_semicolon_center_lists_for_coordinate_ids(capsys):
    code = cli.main(["voronoi", "--generate", "lattice:2:3", "--centers", "0,0;3,3"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert set(doc["extra"]["cells"]) == {"0,0", "3,3"}
    code = cli.main(["voronoi", "--generate", "lattice:2:2", "--centers", "0,0"])
    assert code == 0


def _strip_timings(text: str) -> str:
    doc = json.loads(text)
    doc.pop("timings", None)
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--generate", "lattice:2:5", "--centers", "sublattice:2", "--seed", "9"],
        ["report", "--generate", "random:18", "--centers", "every:4", "--seed", "9"],
        # Coupled ground energies from the sparse solver.
        ["report", "--generate", f"random:{spectral.SPARSE_MIN_N}", "--centers", "every:4"],
    ],
)
def test_cli_report_is_deterministic(tmp_path, argv):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    text1 = out1.read_text(encoding="utf-8")
    text2 = out2.read_text(encoding="utf-8")
    assert _strip_timings(text1) == _strip_timings(text2)


def test_cli_sublattice_parse_errors(capsys):
    assert cli.main(["bounds", "--generate", "path:6", "--centers", "sublattice:2"]) == 1


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
@pytest.mark.parametrize("command", ["validate", "report"])
def test_cli_rejects_non_finite_potential(tmp_path, capsys, literal, command):
    g = random_connected(8, seed=3, potential_range=(0.0, 1.0))
    doc = json.loads(dumps_graph(g))
    doc["vertices"][3]["v"] = "@"
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc).replace('"@"', literal), encoding="utf-8")
    code = cli.main([command, "--graph", str(path), "--centers", "every:4"])
    err = capsys.readouterr().err
    assert code == 1
    assert "potential at vertex 'v3' is not finite" in err


@pytest.mark.parametrize(
    "field, index, literal, message",
    [
        ("edges", 0, "NaN", "weight on edge 'v0'-'v1' is not finite: nan"),
        ("edges", 0, "Infinity", "weight on edge 'v0'-'v1' is not finite: inf"),
        ("vertices", 3, "NaN", "measure at vertex 'v3' is not finite: nan"),
        ("vertices", 3, "Infinity", "measure at vertex 'v3' is not finite: inf"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "report"])
def test_cli_rejects_non_finite_weight_or_measure(tmp_path, capsys, field, index, literal,
                                                  message, command):
    g = random_connected(8, seed=3)
    doc = json.loads(dumps_graph(g))
    entry = doc[field][index]
    entry["b" if field == "edges" else "m"] = "@"
    assert (entry.get("u"), entry.get("w")) in ((None, None), ("v0", "v1"))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc).replace('"@"', literal), encoding="utf-8")
    code = cli.main([command, "--graph", str(path), "--centers", "every:4"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"specbounds: error: {message}\n"


def _overflow_path(tmp_path, weights):
    ids = ("a", "b", "c", "d")
    g = graph.WeightedGraph.from_edge_list(ids, 1.0, list(zip(ids, ids[1:], weights)))
    path = tmp_path / "g.json"
    path.write_text(dumps_graph(g), encoding="utf-8")
    return path


def test_cli_report_with_overflowing_threshold_is_a_one_line_error(tmp_path, capsys):
    """||H+1|| near 1e300: 2 ||H+1||^2 leaves float64, so the automatic
    coupling grid cannot be built.  The report says so in one line instead
    of an OverflowError traceback from 4 ||H+1||^4."""
    path = _overflow_path(tmp_path, (1e300, 1e-300, 0.5))
    code = cli.main(["report", "--graph", str(path), "--centers", "a"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("specbounds: error: --t-grid auto: ")
    assert "overflows float64" in err and err.count("\n") == 1


def test_cli_report_with_overflowing_fourth_power_of_norm(tmp_path, capsys):
    """||H+1|| near 1e100: the threshold is finite but 4 ||H+1||^4 is not.
    The coarse coupling rows on the automatic grid get the finite bound
    lambda_Omega - (4 ||H+1||^2)(||H+1||^2 / (t+1)); only at t = 0, where
    that bound is about -6e401, is it -inf.  The geometric uncertainty
    form gets the bound 0.  All hold, with no OverflowError."""
    path = _overflow_path(tmp_path, (1e100, 1.0, 1.0))
    assert cli.main(["report", "--graph", str(path), "--centers", "a"]) == 0
    rows = {r["name"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
    coarse = [r for name, r in rows.items() if name.startswith("coupling/rate#")]
    assert len(coarse) == 9  # t = 0 and the 8 points of the automatic grid
    assert coarse[0]["note"].startswith("t=0.0;") and coarse[0]["bound"] == -math.inf
    assert all(math.isfinite(r["bound"]) and r["pass"] and not r["vacuous"] for r in coarse[1:])
    assert all(r["bound"] > -math.inf for name, r in rows.items()
               if name.startswith("coupling/rate_refined#"))


@pytest.mark.filterwarnings("error")
def test_cli_uncertainty_on_an_overflowing_coupling_grid(tmp_path, capsys):
    """||H+1|| = 2e153: the threshold 8e306 is finite, but the other 15
    couplings of the uncertainty grid and t_opt overflow to inf.  Only the
    finite one is sampled, the note says so, and nothing warns (np.geomspace
    warned where the grid overflows, and the inf couplings gave NaN samples)."""
    path = _overflow_path(tmp_path, (1e153, 1.0, 1.0))
    assert cli.main(["uncertainty", "--graph", str(path), "--centers", "a"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    keys = ("name", "true", "bound", "pass", "vacuous", "note")
    assert [tuple(r[k] for k in keys) for r in rows] == [
        ("uncertainty/energy_form", 0.4999999999999999, 2.98410946289146e-310, True, False,
         "projection rank 1"),
        ("uncertainty/geometry_form", 0.4999999999999999, 0.0, True, True,
         "interval reaches the geometric bound; variant skipped"),
        ("uncertainty/sampled_coupling", 0.4999999999999999, 2.387287570313158e-308, True, False,
         "best of 1 finite of 17 sampled couplings"),
        ("uncertainty/sampled_vs_energy", 2.387287570313158e-308, 2.98410946289146e-310, True,
         False, "sampled constant at the analytic optimizer dominates"),
    ]


@pytest.mark.filterwarnings("error")
def test_cli_uncertainty_with_an_overflowing_threshold_is_a_one_line_error(tmp_path, capsys):
    """||H+1|| = 2e155: the threshold 2 ||H+1||^2 itself overflows, so no
    coupling of the uncertainty grid is finite.  The command says so in one
    line, where it stopped on a NaN sample with a traceback."""
    path = _overflow_path(tmp_path, (1e155, 1.0, 1.0))
    assert cli.main(["uncertainty", "--graph", str(path), "--centers", "a"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("specbounds: error: the coupling threshold 2 ||H+1||^2 = inf overflows")


def test_cli_geometry_form_where_the_fourth_power_of_the_norm_overflows(tmp_path, capsys):
    """||H+1|| = 2e78: ||H+1||^4 overflows, so the geometric uncertainty
    constant is evaluated as (geo - max I)^2 / (16 ||H+1||^2) / ||H+1||^2,
    a subnormal 5.17e-317, where it was (geo - max I)^2 / inf = 0."""
    path = _overflow_path(tmp_path, (1e78, 1.0, 1.0))
    argv = ["uncertainty", "--graph", str(path), "--centers", "a", "--interval", "0:0.01"]
    assert cli.main(argv) == 0
    rows = {r["name"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
    ctx = AnalysisContext(graph.load_graph(path), ("a",))
    h1, geo = ctx.shifted_norm, 1.0 / (ctx.R * ctx.vol_R)
    with pytest.raises(OverflowError):
        h1**4
    kappa_cor = (geo - 0.01) ** 2 / (16.0 * h1 * h1) / (h1 * h1)
    assert kappa_cor == 5.1660156e-317
    for name in ("uncertainty/geometry_form", "uncertainty/energy_vs_geometry"):
        assert rows[name]["bound"] == kappa_cor
        assert rows[name]["pass"] and not rows[name]["vacuous"]


DISTANCE_COMMANDS = ("report", "metric", "voronoi", "bounds", "uncertainty", "transform")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, weights, pair",
    [pytest.param(c, (1e-308, 1e-308, 1e-308), "'a' to 'c'", id=c) for c in DISTANCE_COMMANDS]
    + [
        pytest.param(c, (1e-320, 1.0, 1.0), "'a' to 'b'", id=f"{c}-subnormal")
        for c in DISTANCE_COMMANDS
    ],
)
def test_cli_overflowing_distance_is_a_one_line_error(tmp_path, capsys, command, weights, pair):
    """Edges of length 1e308: the distance over two of them is inf.  A
    subnormal weight 1e-320: its own length 1/b is inf.  Every command that
    reads distances refuses them in one line naming the first such pair,
    with no warning on the way.  On the first path report, metric and
    voronoi once raised an uncaught NaN error and the others built rows on
    R = inf; on the second, each place that computed 1/b warned of an
    overflow."""
    path = _overflow_path(tmp_path, weights)
    code = cli.main([command, "--graph", str(path), "--centers", "a"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == f"specbounds: error: the distance from {pair} overflows float64\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["validate", "spectrum"])
def test_cli_commands_without_distances_accept_overflowing_ones(tmp_path, capsys, command):
    path = _overflow_path(tmp_path, (1e-308, 1e-308, 1e-308))
    assert cli.main([command, "--graph", str(path), "--centers", "a"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["report"], ["transform", "--doubling-N", "2"]])
def test_vol_bracket_is_evaluated_once_per_radius(monkeypatch, capsys, argv):
    """Without a potential c = 1, so vol[c^2 R] is vol[R]; the doubling grid
    asks for vol[R] again, and for each scale at factor 1.0.  Each distinct
    radius is evaluated once per context."""
    asked, evaluated = [], []
    vol_bracket = metric.MetricData.vol_bracket

    def asking(self, s):
        asked.append(s)
        return vol_bracket(self, s)

    class Evaluations(dict):
        def __setitem__(self, s, value):
            evaluated.append(s)
            super().__setitem__(s, value)

    brackets = cached_property(lambda self: Evaluations())
    brackets.__set_name__(metric.MetricData, "_brackets")
    monkeypatch.setattr(metric.MetricData, "_brackets", brackets)
    monkeypatch.setattr(metric.MetricData, "vol_bracket", asking)
    code = cli.main([*argv, "--generate", "random:40", "--centers", "every:4"])
    assert code == 0
    capsys.readouterr()
    assert len(asked) == (2 if argv == ["report"] else 22)
    assert sorted(evaluated) == sorted(set(asked))


@pytest.mark.parametrize("command", ["transform", "report"])
@pytest.mark.parametrize("with_v", [False, True], ids=["no_potential", "potential"])
def test_cli_doubling_exponent_whose_powers_overflow(tmp_path, capsys, command, with_v):
    """With --doubling-N 2000, a^N leaves float64 for every factor a > 1
    of the doubling grid, and so does c^(4+2N) where a potential makes
    c > 1.  Each is inf: every volume satisfies the grid, and the doubling
    row's bound is lambda_V where c^(4+2N) overflows."""
    if with_v:
        g = random_connected(30, seed=3, potential_range=(0.0, 3.0))
    else:
        g = generate("random:30")
    path = tmp_path / "g.json"
    path.write_text(dumps_graph(g), encoding="utf-8")
    argv = [command, "--graph", str(path), "--centers", "every:4", "--doubling-N", "2000"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    (row,) = [
        r for r in json.loads(out)["rows"] if r["name"] == "potential/dirichlet_lower_doubling"
    ]
    assert row["pass"] and not row["vacuous"]
    gs = potential.ground_state(AnalysisContext(g))
    assert (gs.c > 1.0) == with_v
    if with_v:
        assert row["bound"] == gs.lambda_v


def test_version_agrees_everywhere(capsys):
    assert cli.main(["--version"]) == 0
    printed = capsys.readouterr().out.strip()
    assert cli.main(["report", "--generate", "path:6", "--centers", "every:3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert printed == doc["config"]["version"] == doc["version"] == specbounds.__version__
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in meta["project"] and "version" in meta["project"]["dynamic"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "specbounds.__version__"}


def _count_calls(monkeypatch, calls, targets, coupled):
    """Count calls of each (module, name) in targets, under every name a
    specbounds module binds it to, and eigenvalues_of calls on an operator
    from AnalysisContext.coupled as coupled_eigenvalues_of."""

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "eigenvalues_of" and any(args[0] is op for op in coupled):
                calls["coupled_eigenvalues_of"] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in targets:
        original = getattr(module, name)
        wrapped = counting(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "specbounds" or mod_name.startswith("specbounds."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, wrapped)


def test_report_computes_each_shared_quantity_once(monkeypatch, capsys):
    """One report densifies H once (the restriction and the coupled
    operators are cut from that array), computes the geometry constants
    once (the transformed graph of the transform identity computes none),
    and solves H once (eigh): besides the coupled operators, eigvalsh runs
    only on the restriction."""
    calls = Counter()
    coupled = record_coupled(monkeypatch)
    _count_calls(
        monkeypatch,
        calls,
        [(spectral, "eigenvalues_of"), (spectral, "eigdecompose"), (graph, "GeometryConstants")],
        coupled,
    )
    toarray = sparse.csc_matrix.toarray

    def counting_toarray(self, *args, **kwargs):
        calls["toarray"] += 1
        return toarray(self, *args, **kwargs)

    monkeypatch.setattr(sparse.csc_matrix, "toarray", counting_toarray)

    assert cli.main(["report", "--generate", "random:40", "--centers", "every:4"]) == 0
    capsys.readouterr()
    assert calls["GeometryConstants"] == 1
    assert calls["eigdecompose"] == 1
    assert calls["toarray"] == 1
    # One coupled copy more than the eigensolves: the resolvent row's.
    assert calls["coupled_eigenvalues_of"] == len(coupled) - 1 > 0
    assert calls["eigenvalues_of"] == 1 + calls["coupled_eigenvalues_of"]


def _solve_skipped(monkeypatch, ctx, ts):
    """Solve, on ctx's own warm-started chain, the couplings of the auto
    uncertainty grid that the report skipped (those not in ts), and check
    each against dense eigvalsh within n eps (||H|| + t) plus its residual.
    Returns how many there were."""
    interval = cli.parse_interval("auto", ctx.lambda_omega)
    skipped = [t for t in uncertainty_grid(ctx, interval) if t not in ts]
    results = []
    solve = spectral.sparse_ground_state

    def recording(A, *args, **kwargs):
        lam, x, residual = solve(A, *args, **kwargs)
        results.append((A, lam, residual))
        return lam, x, residual

    monkeypatch.setattr(spectral, "sparse_ground_state", recording)
    for t in skipped:
        ctx.coupled_ground_energy(t)
    assert len(results) == len(skipped)
    for t, (A, lam, residual) in zip(skipped, results):
        assert ctx.coupled_ground_energy(t) == lam
        dense = np.linalg.eigvalsh(A.toarray())
        assert abs(lam - dense[0]) <= ctx.graph.n * np.finfo(float).eps * (ctx.norm + t) + residual
    return len(skipped)


def _count_ground_solves(monkeypatch, calls):
    """Count the runs of AnalysisContext._ground_solve, H's ground-state
    solve, as calls["_ground_solve"]."""
    prop = vars(AnalysisContext)["_ground_solve"]
    solve = prop.func

    def counting(self):
        calls["_ground_solve"] += 1
        return solve(self)

    monkeypatch.setattr(prop, "func", counting)


def test_report_above_crossover_solves_coupled_energies_sparse(monkeypatch, capsys):
    """From SPARSE_MIN_N vertices on, a report makes one sparse solve per
    distinct coupling t > 0 it asks for (8: the uncertainty grid adds none
    to the coupling grid's) plus one for lambda_Omega and one ground solve
    for lambda_0(H), runs eigvalsh on no coupled operator, and cuts no
    dense coupled matrix (the resolvent row factors the sparse one).  The
    coupling grid's t = 0 is answered from the curve's seed, lambda_0(H),
    with no solve."""
    calls = Counter()
    ts, contexts = set(), set()
    coupled = record_coupled(monkeypatch)
    _count_calls(
        monkeypatch,
        calls,
        [(spectral, "eigenvalues_of"), (spectral, "sparse_ground_state")],
        coupled,
    )
    _count_ground_solves(monkeypatch, calls)
    solve = AnalysisContext.coupled_ground_energy

    def recording(self, t):
        ts.add(t)
        contexts.add(self)
        return solve(self, t)

    monkeypatch.setattr(AnalysisContext, "coupled_ground_energy", recording)
    argv = ["report", "--generate", f"random:{spectral.SPARSE_MIN_N}", "--centers", "every:4"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls["coupled_eigenvalues_of"] == 0
    assert coupled == []
    assert 0.0 in ts
    solved = ts - {0.0}
    assert len(solved) == 8
    assert calls["sparse_ground_state"] == len(solved) + 1
    assert calls["_ground_solve"] == 1
    (ctx,) = contexts
    assert ctx.coupled_ground_energy(0.0) == ctx.lambda_0
    assert _solve_skipped(monkeypatch, ctx, ts) == 16
    assert calls["sparse_ground_state"] == len(ts - {0.0}) + 1 == 25
    assert calls["_ground_solve"] == 1


def test_report_above_crossover_orders_each_pattern_once(monkeypatch, capsys):
    """From SPARSE_MIN_N vertices on, SuperLU searches for a fill-reducing
    ordering twice per report, once for H's sparsity pattern and once for
    the region block; every other factorization reuses H's.  Every coupled
    solve takes the shift just below its own eigenvalue, with no fallback:
    one Lanczos run with NEAR_SHIFT_NCV vectors.  So do the couplings the
    report skips when solved after it; t = 0 takes no solve at all."""
    orderings, solves, calls = Counter(), Counter(), Counter()
    ts, contexts, runs = set(), set(), []
    splu, lanczos = spectral.splu, spectral._lanczos
    ground_state = spectral.sparse_ground_state
    energy = AnalysisContext.coupled_ground_energy

    def recording_splu(A, permc_spec=None, **kwargs):
        orderings[permc_spec] += 1
        return splu(A, permc_spec=permc_spec, **kwargs)

    def recording_lanczos(A, k, v0, budget, factor=None, ncv=None):
        runs.append(ncv)
        return lanczos(A, k, v0, budget, factor, ncv)

    def recording_ground_state(*args, **kwargs):
        before = len(runs)
        result = ground_state(*args, **kwargs)
        solves["near" if runs[before:] == [spectral.NEAR_SHIFT_NCV] else "far"] += 1
        return result

    def recording_energy(self, t):
        ts.add(t)
        contexts.add(self)
        return energy(self, t)

    monkeypatch.setattr(spectral, "splu", recording_splu)
    monkeypatch.setattr(spectral, "_lanczos", recording_lanczos)
    monkeypatch.setattr(spectral, "sparse_ground_state", recording_ground_state)
    monkeypatch.setattr(AnalysisContext, "coupled_ground_energy", recording_energy)
    _count_ground_solves(monkeypatch, calls)
    argv = ["report", "--generate", f"random:{spectral.SPARSE_MIN_N}", "--centers", "every:4"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert orderings["MMD_AT_PLUS_A"] == 2
    assert set(orderings) == {"MMD_AT_PLUS_A", "NATURAL"}
    assert 0.0 in ts
    solved = ts - {0.0}
    assert len(solved) == 8
    # lambda_0(H) and lambda_Omega take a shift far below the spectrum.
    assert solves == {"near": len(solved), "far": 1} and calls["_ground_solve"] == 1
    (ctx,) = contexts
    assert _solve_skipped(monkeypatch, ctx, ts) == 16
    assert orderings["MMD_AT_PLUS_A"] == 2
    assert solves == {"near": len(ts - {0.0}), "far": 1} and len(ts - {0.0}) == 24
    assert calls["_ground_solve"] == 1


def test_cli_interval_auto_on_negative_potential(tmp_path, capsys):
    g = random_connected(30, seed=3, potential_range=(-3.0, -1.0))
    path = tmp_path / "g.json"
    path.write_text(dumps_graph(g), encoding="utf-8")
    code = cli.main(["uncertainty", "--graph", str(path), "--centers", "every:4"])
    err = capsys.readouterr().err
    assert code == 1
    assert "lambda_Omega = -1.6" in err and "explicit --interval" in err
    assert "a <= b" not in err


@pytest.mark.parametrize(
    "argv, option, value, code",
    [
        (["spectrum", "--generate", "random:20"], "--interval", "-10:-5", 0),
        (["report", "--generate", "random:20", "--centers", "every:4"], "--interval", "-9:-0.5", 0),
        (["bounds", "--generate", "path:6", "--centers", "every:3"], "--t-grid", "-10:-1:3", 1),
    ],
)
def test_cli_negative_range_after_space(capsys, argv, option, value, code):
    """'--interval -10:-5' reads like '--interval=-10:-5' (and so for --t-grid)."""
    outputs = []
    for form in ([option, value], [f"{option}={value}"]):
        assert cli.main(argv + form) == code
        out, err = capsys.readouterr()
        outputs.append((_strip_timings(out) if out else out, err))
    assert outputs[0] == outputs[1]
    assert "expected one argument" not in outputs[0][1]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_notes_print_plain_floats(capsys, fmt):
    """A coupling t that reaches a note as np.float64 must print as a float,
    not as 'np.float64(...)'."""
    argv = ["report", "--generate", "random:40", "--centers", "every:4", "--format", fmt]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        notes = [row["note"] for row in json.loads(out)["rows"]]
        assert any(note.startswith("t=") for note in notes)
        assert not [note for note in notes if "np." in note]
    else:
        assert "t=" in out and "np." not in out


def test_report_runs_without_dense_inverse_or_svd(monkeypatch, capsys):
    """No stage of a report inverts a dense matrix or takes an SVD (the
    2-norm of a matrix is one)."""

    def forbidden(*args, **kwargs):
        raise AssertionError("dense inverse or SVD called")

    # norm(., 2) looks svd up in the module that defines it.
    for namespace in (vars(np.linalg), np.linalg.norm.__wrapped__.__globals__):
        for name in ("inv", "svd"):
            monkeypatch.setitem(namespace, name, forbidden)
    assert cli.main(["report", "--generate", "random:256", "--centers", "every:4"]) == 0
    capsys.readouterr()


def test_report_above_crossover_runs_no_dense_eigensolve_or_solve(monkeypatch, capsys):
    """From SPARSE_MIN_N vertices on, no eigh, eigvalsh or solve runs on an
    n x n matrix in a report."""
    n = spectral.SPARSE_MIN_N

    def guarded(name, fn):
        def wrapper(a, *args, **kwargs):
            if np.shape(a)[-2:] == (n, n):
                raise AssertionError(f"dense {name} on an n x n matrix")
            return fn(a, *args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh", "solve"):
        monkeypatch.setitem(vars(np.linalg), name, guarded(name, getattr(np.linalg, name)))
    argv = ["report", "--generate", f"random:{n}", "--centers", "every:4"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    # The guard is live: the spectrum command still prints the dense spectrum.
    with pytest.raises(AssertionError, match="dense eigvalsh"):
        cli.main(["spectrum", "--generate", f"random:{n}"])


def test_uncertainty_forms_no_projection_matrix(capsys):
    """uncertainty_constant reads only the window's pairs: the package
    has no code that forms the n x n spectral projection (its reference
    implementation lives in tests/helpers.py)."""
    assert not hasattr(spectral, "spectral_projection")
    assert not hasattr(spectral, "SpectralProjection")
    assert cli.main(["uncertainty", "--generate", "random:40", "--centers", "every:4"]) == 0
    assert "projection rank" in capsys.readouterr().out


DIRICHLET_LOWER_ROWS = (
    "dirichlet/lower_inradius_volume",
    "dirichlet/lower_ball_volume",
    "dirichlet/lower_ball_volume_in_region",
    "dirichlet/lower_center_balls",
)
GEOMETRIC_UNCERTAINTY_ROWS = ("uncertainty/geometry_form", "uncertainty/energy_vs_geometry")


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("potential_range", [(-3.0, -1.0), (-20.0, -5.0)])
@pytest.mark.parametrize("command", ["bounds", "report"])
def test_cli_negative_potential_gives_vacuous_rows(tmp_path, capsys, seed, potential_range, command):
    """The geometric lower bounds on lambda_Omega, and the uncertainty rows
    built on them, hold for V >= 0, and the resolvent estimate for H >= 0;
    on a negative potential they are reported as not asserted, and the run
    exits 0."""
    g = random_connected(30, seed=seed, potential_range=potential_range)
    path = tmp_path / "g.json"
    path.write_text(dumps_graph(g), encoding="utf-8")
    ctx = AnalysisContext(g, g.vertices[::4])
    lam_0 = spectral.eigenvalues_of(ctx.operator)[0]
    assert lam_0 < 0.0 and ctx.lambda_omega < 0.0
    argv = [command, "--graph", str(path), "--centers", "every:4"]
    if command == "bounds":
        argv += ["--t-grid", "auto"]
    else:
        # Below lambda_Omega, since --interval auto is empty here.
        argv.append(f"--interval={lam_0 - 1.0}:{ctx.lambda_omega - 0.1}")
    assert cli.main(argv) == 0
    rows = {row["name"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
    min_v = f"min V = {float(g.V.min())!r}"
    for name in DIRICHLET_LOWER_ROWS:
        assert rows[name]["vacuous"] and min_v in rows[name]["note"]
        assert rows[name]["true"] < rows[name]["bound"]
    for name in GEOMETRIC_UNCERTAINTY_ROWS:
        # bounds has no uncertainty rows; an empty window drops the second.
        assert rows.get(name, {"vacuous": True})["vacuous"]
    resolvent = rows["resolvent/schur_gap"]
    assert resolvent["vacuous"] and min_v in resolvent["note"]
    assert "H >= 0 fails" in resolvent["note"]
    others = set(rows) - {*DIRICHLET_LOWER_ROWS, *GEOMETRIC_UNCERTAINTY_ROWS, "resolvent/schur_gap"}
    assert others and not any("min V" in rows[name]["note"] for name in others)


CHEEGER_BETA_ROWS = ("cheeger/eigenvalue_vs_cheeger", "cheeger/region_constant_vs_volume")


def test_report_asserts_cheeger_rows_on_a_large_region(capsys):
    """The region constant is exact at any size: on 392 region vertices
    both rows built on it are asserted and pass, and no note speaks of a
    size limit."""
    argv = ["report", "--generate", "lattice:2:20", "--centers", "sublattice:3"]
    assert cli.main(argv) == 0
    rows = {row["name"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
    for name in CHEEGER_BETA_ROWS:
        assert rows[name]["pass"] and not rows[name]["vacuous"]
    assert not any("cap" in row["note"] for row in rows.values())


def test_report_on_22_vertex_region_matches_expectation(capsys):
    """Every row of a report on a 22-vertex region (the largest the bitmask
    enumeration took) equals the committed expectation: name, values,
    flags and note."""
    expected = json.loads(
        (Path(__file__).parent / "data" / "report_lattice_2_5_region22.json").read_text()
    )
    assert cli.main(expected["argv"]) == expected["exit_code"]
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"] == expected["rows"]
    assert "exhaustive_cap" not in doc["config"]


def test_cli_upper_bounds_count_a_constant_potential(tmp_path, capsys):
    """On the path a-b-c with V = 10 and D = {a}, ||H|| = 13 and
    lambda_Omega = (23 - sqrt 5)/2 = 10.38 exceed the Laplacian's bounds
    2 delta = 4 and 4 (1/3).  With the potential's terms the bounds are
    2 delta + max |V/m| = 14 and (13 + 10)(1/3) + 10, both rows are
    asserted and pass, and the report exits 0."""
    g = WeightedGraph.from_edge_list(
        ("a", "b", "c"), 1.0, [("a", "b", 1.0), ("b", "c", 1.0)], potential=(10.0,) * 3
    )
    path = tmp_path / "g.json"
    path.write_text(dumps_graph(g), encoding="utf-8")
    assert cli.main(["report", "--graph", str(path), "--centers", "a"]) == 0
    rows = {row["name"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
    norm, upper = rows["operator/norm_vs_weighted_degree"], rows["dirichlet/upper_complement_fraction"]
    assert norm["true"] == pytest.approx(13.0, rel=1e-14) and norm["bound"] == 14.0
    assert upper["true"] == pytest.approx((23.0 - math.sqrt(5.0)) / 2.0, rel=1e-14)
    assert upper["bound"] == pytest.approx((13.0 + 10.0) / 3.0 + 10.0, rel=1e-14)
    for row in (norm, upper):
        assert row["pass"] and not row["vacuous"]


@pytest.mark.parametrize("argv", [["cheeger"], ["report", "--interval", "-5:-4"]])
def test_cli_cheeger_energy_rows_are_not_asserted_on_a_negative_potential(
    tmp_path, capsys, argv
):
    """beta^2/(2 delta) and 1/(R vol[R]) bound lambda_Omega for V >= 0 only.
    On lattice:2:5 with V = -3 (lambda_Omega = -2.618) both rows are
    reported but not asserted, with the note of the Dirichlet lower rows;
    the region constant's row, geometry alone, stays asserted."""
    g = with_potential(generate("lattice:2:5"), [-3.0] * 36)
    path = tmp_path / "g.json"
    path.write_text(dumps_graph(g), encoding="utf-8")
    argv = [argv[0], "--graph", str(path), "--centers", "every:3", *argv[1:]]
    assert cli.main(argv) == 0
    rows = {row["name"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
    for name in ("cheeger/eigenvalue_vs_cheeger", "cheeger/eigenvalue_vs_ball_volume"):
        assert rows[name]["vacuous"] and rows[name]["true"] < rows[name]["bound"]
        assert rows[name]["note"] == "min V = -3.0 < 0; bound proved for V >= 0 only, not asserted"
    region = rows["cheeger/region_constant_vs_volume"]
    assert region["pass"] and not region["vacuous"]
    assert all(row["pass"] for row in rows.values())


@pytest.mark.parametrize("command", ["cheeger", "report"])
def test_exhaustive_cap_option_is_unknown(capsys, command):
    argv = [command, "--generate", "lattice:2:3", "--centers", "sublattice:2"]
    assert cli.main(argv) == 0
    assert cli.main(argv + ["--exhaustive-cap", "22"]) == 1
    assert "unrecognized arguments: --exhaustive-cap" in capsys.readouterr().err


# Scaling b, m and V by one constant c leaves H unchanged and divides every
# length by c; with c = 4^5 every scaled value is exact.
SCALE = 1024.0
# Rows whose true, bound and slack values are lengths.
LENGTH_ROWS = ("homogeneity/min_distance", "voronoi/cell_in_covering_ball")
# Radii printed in the notes of homogeneity/ball_count and
# potential/dirichlet_lower.
NOTE_RADIUS = re.compile(r"\b([rR])=([^,\s]+)")


def _scaled(g: WeightedGraph, c: float) -> WeightedGraph:
    ids = g.vertices
    potential = None if g.potential is None else list(np.asarray(g.potential) * c)
    return WeightedGraph.from_edge_list(
        ids, list(g.m * c), [(ids[i], ids[j], w * c) for i, j, w in g.edges], potential=potential
    )


def _report_rows(tmp_path, capsys, g: WeightedGraph) -> list[dict]:
    path = tmp_path / "graph.json"
    path.write_text(dumps_graph(g), encoding="utf-8")
    code = cli.main(["report", "--graph", str(path), "--centers", "every:4", "--format", "json"])
    assert code == 0
    return json.loads(capsys.readouterr().out)["rows"]


@pytest.mark.parametrize(
    "g",
    [
        random_connected(40, seed=1, m_range=(0.5, 2.0)),
        random_connected(40, seed=1, m_range=(0.5, 2.0), potential_range=(0.0, 3.0)),
        generate("random:300"),
    ],
    ids=["measure40", "potential40", "random300"],
)
def test_report_is_invariant_under_scaling_weights_measure_and_potential(tmp_path, capsys, g):
    """Metamorphic: b, m and V times 1024 give every row its bits back,
    except the two length rows and the radii in two notes, which come out
    divided by exactly 1024."""
    rows = _report_rows(tmp_path, capsys, g)
    scaled = _report_rows(tmp_path, capsys, _scaled(g, SCALE))
    assert [r["name"] for r in scaled] == [r["name"] for r in rows]
    seen = set()
    for row, back in zip(rows, scaled):
        if row["name"] in LENGTH_ROWS:
            seen.add(row["name"])
            for key in ("true", "bound", "slack"):
                assert back[key] == row[key] / SCALE
            back = {**back, **{key: row[key] for key in ("true", "bound", "slack")}}
        note = NOTE_RADIUS.sub(lambda m: f"{m[1]}={float(m[2]) / SCALE!r}", row["note"])
        assert back == {**row, "note": note}
    assert seen == set(LENGTH_ROWS)
    moved = {r["name"] for r in rows if NOTE_RADIUS.search(r["note"])}
    assert moved == {"homogeneity/ball_count", "potential/dirichlet_lower"}


@needs_fork
def test_report_holds_the_distance_table_and_o_n_beside_it():
    """On random:800 every:4 no stage of the report reaches 1.8 times the
    n x n distance table in tracemalloc peak, with the table counted: the
    predecessors are never formed, the resolvent writes its unit columns
    straight into factored order, and the transform check evaluates its
    samples in row blocks.  At one usable CPU numpy allocates the table;
    at two it is the forked workers' shared mapping, which stage_memory
    adds because tracemalloc does not see it."""
    argv = ["report", "--generate", "random:800", "--centers", "every:4"]
    for cpus in (1, 2):
        with usable_cpus(cpus):
            stages, state = stage_memory(argv)
        md = state.ctx.metric
        assert "pred" not in md.__dict__
        assert untraced_table_bytes(state) == (cpus - 1) * md.dist.nbytes
        worst = max(stages, key=lambda stage: stage[1])
        assert worst[1] < 1.8 * md.dist.nbytes, (cpus, worst)


@needs_fork
def test_reports_are_the_same_at_one_and_two_usable_cpus():
    """report on random:800 every:4 prints the same bytes outside timings
    whether its distance table comes from one process or from two (one
    fork), and leaves no child behind."""
    argv = ["report", "--generate", "random:800", "--centers", "every:4"]
    outputs = []
    for cpus in (1, 2):
        with usable_cpus(cpus), mock.patch("os.fork", wraps=os.fork) as fork, deadline(120):
            outputs.append(run_case(argv))
        assert fork.call_count == cpus - 1
        assert_no_child_left()
    assert outputs[0].startswith("exit 0\n")
    assert outputs[0] == outputs[1]


@needs_fork
def test_report_exits_one_when_a_distance_worker_fails(monkeypatch, capsys):
    """A worker whose Dijkstra raises ends the report as a
    ChildProcessError, an OSError, which the CLI prints; exit 1."""
    monkeypatch.setattr(metric, "_dijkstra", dijkstra_raising(MemoryError(), in_workers=True))
    with usable_cpus(2), deadline(120):
        code = cli.main(["report", "--generate", "random:800", "--centers", "every:4"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("specbounds: error: distance rows 400-799: worker exited with status 1")
    assert_no_child_left()


@needs_fork
def test_report_exits_one_when_a_later_fork_fails(capsys):
    """At 3 usable CPUs, an os.fork that fails on the second worker
    (BlockingIOError, as at the process limit) propagates as the OSError it
    is: the first worker is killed and reaped, and the CLI prints the error
    and exits 1."""
    real_fork, forks = os.fork, []

    def fork():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    with usable_cpus(3), mock.patch("os.fork", fork), deadline(120):
        code = cli.main(["report", "--generate", "random:800", "--centers", "every:4"])
    assert code == 1
    assert len(forks) == 2
    err = capsys.readouterr().err
    assert err.startswith("specbounds: error: [Errno 11] Resource temporarily unavailable")
    assert_no_child_left()


def test_covering_row_fails_on_a_table_with_two_worker_shares_swapped(monkeypatch):
    """metric/covering_equals_inradius compares the table's inradius with
    a multi-source Dijkstra run that reads no table, so a table assembled
    with the two worker shares of random:800 in each other's rows fails it
    (the centres all lie in the first share)."""
    g = generate("random:800")
    dist = metric.compute_metric(g).dist
    swapped = MetricData(g, np.concatenate([dist[400:], dist[:400]]))

    def covering_row(md):
        monkeypatch.setattr(spectral, "compute_metric", lambda _: md)
        run = cli._Run(args=None, ctx=AnalysisContext(g, g.vertices[:400:4]))
        [row] = cli.STAGES["covering"](run)
        assert row.name == "metric/covering_equals_inradius"
        return row

    assert covering_row(MetricData(g, dist)).true_value == 0.0
    row = covering_row(swapped)
    assert not row.passed
    assert row.true_value > 0.01
