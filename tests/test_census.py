"""The census of default reports against its committed record."""

import json

import census


def test_census_has_no_new_exit_code_or_failing_row():
    """Every census spec exits 0 or with its recorded code, and fails no row
    that tests/data/census.json does not list for it."""
    record = json.loads(census.RECORD.read_text(encoding="utf-8"))
    result = census.census()
    assert len(result) == len(record) == 102
    assert census.check(result, record) == []


def test_census_check_flags_regressions_only():
    record = {
        "a": {"exit": 2, "failing": ["coupling/limit_dominates"], "rank": 1},
        "b": {"exit": 0, "failing": [], "rank": 1},
        "c": {"exit": 1, "failing": [], "rank": None},
    }
    passing = {"exit": 0, "failing": [], "rank": 2}
    # A recorded exit 2 or exit 1 that starts to pass is no regression.
    assert census.check({"a": passing, "b": passing, "c": passing}, record) == []
    assert census.check(record, record) == []
    assert census.check(
        {
            "a": {"exit": 2, "failing": ["coupling/monotone_in_t"], "rank": 1},
            "b": {"exit": 2, "failing": ["coupling/limit_dominates"], "rank": 1},
            "c": {"exit": 2, "failing": [], "rank": None},
            "d": passing,
        },
        record,
    ) == [
        "a: new failing rows coupling/monotone_in_t",
        "b: exit 2, recorded 0",
        "b: new failing rows coupling/limit_dominates",
        "c: exit 2, recorded 1",
        "d: not in the census record",
    ]
