"""The output-identity check of tests/cli_matrix.py: compare() on two
directories of cases written with its own run_case and case_name."""

import json

import pytest

from cli_matrix import against, case_name, compare, main, run_case

CASES = [
    ("bounds", "json"),
    ("bounds", "csv"),
    ("uncertainty", "json"),
]


def _write(outdir, edit=None):
    """Write the cases into outdir, each through edit(name, text) if given;
    returns the case names."""
    outdir.mkdir()
    names = []
    for command, fmt in CASES:
        argv = [command, "--generate", "random:12", "--centers", "every:4", "--format", fmt]
        name = case_name("random:12", command, "", fmt)
        text = run_case(argv)
        (outdir / name).write_text(text if edit is None else edit(name, text), encoding="utf-8")
        names.append(name)
    return names


@pytest.fixture
def parent(tmp_path):
    names = _write(tmp_path / "a")
    assert len(set(names)) == len(CASES)
    return tmp_path / "a"


def _first_row(edit_row):
    """An edit of the first JSON case: edit_row applied to its first row."""
    def edit(name, text):
        if name != case_name("random:12", "bounds", "", "json"):
            return text
        status, stdout = text.split("--- stdout\n")
        doc = json.loads(stdout)
        edit_row(doc["rows"][0])
        return status + "--- stdout\n" + json.dumps(doc) + "\n"
    return edit


def test_identical_output_compares_equal(parent, tmp_path, capsys):
    _write(tmp_path / "b")
    assert compare(parent, tmp_path / "b") == 0
    assert f"{len(CASES)} cases: {len(CASES)} identical" in capsys.readouterr().out


def test_a_different_exit_code_fails_the_comparison(parent, tmp_path, capsys):
    def edit(name, text):
        assert text.startswith("exit 0\n")
        return "exit 2\n" + text.removeprefix("exit 0\n") if "csv" in name else text

    _write(tmp_path / "b", edit)
    assert compare(parent, tmp_path / "b") == 1
    out = capsys.readouterr().out
    assert "bounds--csv.txt: exit code, stderr, row names or flags differ" in out


def test_a_different_pass_flag_fails_the_comparison(parent, tmp_path, capsys):
    def flip(row):
        row["pass"] = not row["pass"]

    _write(tmp_path / "b", _first_row(flip))
    assert compare(parent, tmp_path / "b") == 1
    out = capsys.readouterr().out
    assert "bounds--json.txt: exit code, stderr, row names or flags differ" in out


def test_a_moved_value_is_reported_but_passes(parent, tmp_path, capsys):
    """Values may move at rounding level with the same flags: compare()
    lists the row with its largest change and still returns 0."""
    def nudge(row):
        row["true"] *= 1.0 + 2.0**-52

    _write(tmp_path / "b", _first_row(nudge))
    assert compare(parent, tmp_path / "b") == 0
    out = capsys.readouterr().out
    assert "0 with a different exit code" in out


def test_against_an_unknown_revision_fails_before_any_run(capsys):
    assert against("no-such-revision") == 1
    assert capsys.readouterr().err.startswith("git archive no-such-revision src failed: ")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["-o"], [], ["out", "more"]])
def test_an_option_as_outdir_prints_the_usage_and_writes_nothing(
    argv, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert list(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "PYTHONPATH=src python tests/cli_matrix.py OUTDIR" in captured.err
