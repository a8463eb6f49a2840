"""The tree against the golden records of ``golden_records.py``: every count,
flag and non-float field exactly, every float within ``REL_TOL`` relative."""

import json

import pytest

import golden_records as golden


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check(kind: str, expected: dict, actual: dict) -> None:
    assert sorted(actual) == sorted(expected)
    for name in sorted(expected):
        count, largest, errors = golden.moves(expected[name], actual[name], name)
        print(f"{kind} {name}: {count} floats moved, largest {largest:.2e}")
        assert errors == []
        assert largest <= golden.REL_TOL, (name, largest)


def test_suite_records_match():
    _check("suite", _load(golden.SUITES_FILE), golden.suite_records())


def test_cli_records_match(tmp_path):
    _check("cli", _load(golden.CLI_FILE), golden.cli_records(str(tmp_path)))


@pytest.mark.parametrize(
    "expected,actual,count,bad",
    [
        ({"a": [1.0, 2]}, {"a": [1.0 + 1e-15, 2]}, 1, 0),
        ({"a": [1.0, 2]}, {"a": [1.0, 3]}, 0, 1),
        ({"a": True}, {"a": 1}, 0, 1),
        ({"a": float("nan")}, {"a": float("nan")}, 0, 0),
        ({"a": float("inf")}, {"a": 1e308}, 0, 1),
        ({"a": 1.0}, {"b": 1.0}, 0, 1),
    ],
)
def test_moves_counts_floats_and_flags_the_rest(expected, actual, count, bad):
    moved, _, errors = golden.moves(expected, actual)
    assert (moved, len(errors)) == (count, bad)
