"""Tests of the benchmark itself: one op per workload, and the output checker.

Run from the root of the repository:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import checker
import run
import specbounds.cli as cli
import specbounds.spectral as spectral
from specbounds.generators import apex_ray
from specbounds.graph import save_graph
from tracer import EIGENSOLVERS, Tracer
from workloads import WORKLOADS, Op, Stream


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_op_smoke(workload, tmp_path):
    op = next(Stream(workload, 3, tmp_path).rounds())[0]
    result = run.execute(cli, checker, op)
    assert result.wall_s > 0.0 and result.rows > 0
    assert not result.structural, result.problems
    # comb ops fail a coupling row today (absolute tolerance on wide weights).
    assert result.failed == (op.kind == "comb"), result.problems


def test_setup_launches_spread_over_the_loop(monkeypatch):
    """Import launches run between ops across the whole loop, not in a burst."""
    done, launched_after = [], []

    def one_second_op(cli_, checker_, op):
        done.append(op)
        return run.OpResult("stub", 1.0, [], 1, 0, 0, 1.0)

    monkeypatch.setattr(run, "execute", one_second_op)
    monkeypatch.setattr(run, "time_import", lambda: launched_after.append(len(done)) or 0.5)
    budget = 2.0 * run.SETUP_LAUNCHES  # one launch per two one-second ops
    results, launches = run.run_loop(None, None, ([i] for i in range(100)), budget)
    assert len(results) == budget and launches == [0.5] * run.SETUP_LAUNCHES
    assert launched_after == [2 * i + 1 for i in range(run.SETUP_LAUNCHES)]


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    """A passing report op on apex_ray:20 and its output."""
    g = apex_ray(20)
    path = tmp_path_factory.mktemp("graph") / "apex.json"
    save_graph(g, path)
    argv = ("report", "--graph", str(path), "--centers", "every:4")
    op = Op("apex_ray", "weighted", argv, g, tuple(range(0, g.n, 4)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return op, out.getvalue()


def _edit(text: str, fn) -> str:
    doc = json.loads(text)
    fn(doc)
    return json.dumps(doc)


def _row(doc, name):
    return next(r for r in doc["rows"] if r["name"] == name)


def test_checker_accepts_real_output(small_report):
    op, text = small_report
    check = checker.check_op(op, 0, text)
    assert check.problems == []
    assert check.rows == 41 and check.vacuous == 3


def test_checker_flags_dropped_row(small_report):
    op, text = small_report
    dropped = _edit(text, lambda doc: doc["rows"].pop(10))
    problems = checker.check_op(op, 0, dropped).problems
    assert [p.structural for p in problems] == [True]
    assert "match no committed list" in problems[0].message


def test_checker_flags_row_turned_vacuous(small_report):
    op, text = small_report

    def make_vacuous(doc):
        _row(doc, "dirichlet/lower_ball_volume")["vacuous"] = True

    problems = checker.check_op(op, 0, _edit(text, make_vacuous)).problems
    assert [p.message for p in problems] == ["row dirichlet/lower_ball_volume turned vacuous"]


@pytest.mark.parametrize("rc", [1, 2])
def test_checker_flags_nonzero_exit(small_report, rc):
    op, text = small_report
    problems = checker.check_op(op, rc, text if rc == 2 else "", "boom").problems
    assert problems and all(p.structural for p in problems)
    assert f"exit {rc}" in problems[0].message


def test_checker_separates_verdict_failures(small_report):
    op, text = small_report

    def fail_row(doc):
        doc["rows"][0]["pass"] = False

    problems = checker.check_op(op, 2, _edit(text, fail_row)).problems
    assert [p.structural for p in problems] == [False]


def test_checker_recomputes_inradius_with_dijkstra(small_report):
    op, text = small_report

    def stretch(doc):
        _row(doc, "dirichlet/lower_inradius_volume")["bound"] *= 1.0 + 1e-6

    problems = checker.check_op(op, 0, _edit(text, stretch)).problems
    assert len(problems) == 1 and "independent Dijkstra" in problems[0].message


def test_tracer_patches_every_namespace_and_restores(small_report):
    op, text = small_report
    original = spectral.eigenvalues_of
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.eigenvalues_of is spectral.eigenvalues_of is not original
        result = run.execute(cli, checker, op, tracer, 0)
    finally:
        tracer.uninstall()
    assert spectral.eigenvalues_of is original and cli.eigenvalues_of is original
    assert not result.problems
    eig = [s for s in tracer.spans if s.name in EIGENSOLVERS]
    assert eig and all(s.attrs["n"] in (op.graph.n, op.region) for s in eig)
    assert all("digest" in s.attrs for s in eig)
    assert tracer.layer_metrics(1)["spectral.eig_calls"][0] == len(eig)
    # Self times partition the time of the root spans (one per cli.main call).
    own = tracer.self_times()
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["main"]
    assert min(own) >= 0.0
    assert sum(own) == pytest.approx(roots[0].dur)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "report-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
