"""Golden outputs: what each suite and the CI read commands produce.

``tests/golden/suites.json`` holds, for each of the 13 suites, the record of
``run_suite(name, 64, 9, tolerance=-1.0)``: its counts and, for every trial
(each one fails at a negative tolerance), ``(trial, lhs, rhs, gap, passed,
equality)``.  ``tests/golden/cli.json`` holds, for each read command of the
CI determinism step, its exit code and the JSON it prints on stdout or
stderr.  ``test_golden.py`` compares the tree against these records, floats
within :data:`REL_TOL` relative and everything else exactly.

Regenerate the records, and print how far each value moved, with::

    PYTHONPATH=src python tests/golden_records.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
import warnings

from renyi.cli import main
from renyi.harness import SUITES, run_suite

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SUITES_FILE = os.path.join(HERE, "suites.json")
CLI_FILE = os.path.join(HERE, "cli.json")

TRIALS, SEED = 64, 9
# a float may move by REL_TOL * max(1, |x|), as a change of the order of
# floating-point operations moves it; anything else must match exactly
REL_TOL = 1e-11


def suite_record(name: str) -> dict:
    """The counts and per-trial fields of one suite's forced-failure run."""
    report = run_suite(name, TRIALS, SEED, tolerance=-1.0)
    return {
        "trials": report.trials,
        "failures": len(report.failures),
        "max_violation": report.max_violation,
        "injected_equality": report.injected_equality,
        "equality_flagged": report.equality_flagged,
        "records": [
            [f.trial, f.report.lhs, f.report.rhs, f.report.gap, f.report.passed,
             f.report.equality]
            for f in report.failures
        ],
    }


def suite_records() -> dict:
    return {name: suite_record(name) for name in sorted(SUITES)}


def _run(argv: list[str]) -> dict:
    """Exit code and the JSON of stdout and stderr of one in-process CLI call,
    with RuntimeWarnings as errors."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return {
        "code": code,
        "stdout": json.loads(out.getvalue()) if out.getvalue() else None,
        "stderr": json.loads(err.getvalue()) if err.getvalue() else None,
    }


def cli_commands(directory: str) -> dict[str, list[str]]:
    """The read commands of the CI determinism step, by name, on inputs that
    ``gen`` writes into ``directory``."""
    path = lambda name: os.path.join(directory, f"{name}.json")  # noqa: E731
    for argv in (
        ["density", "--dim", "8", "--seed", "3"],
        ["pd", "--dim", "8", "--seed", "4"],
        ["density", "--dim", "4", "--seed", "3", "--dims", "2,2"],
        ["simplex", "--dim", "6", "--seed", "5", "--zeros", "2"],
    ):
        name = "bipartite" if "--dims" in argv else argv[0]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen", *argv, "--out", path(name)]) == 0
    # files the reader cannot decode or parse, as the CI step writes them
    for name, data in (
        ("not-utf8", b'{"p": [\xff]}\n'),
        ("deep", b"[" * 100_000 + b"\n"),
        ("long-int", b'{"dim": 1' + b"0" * 4300 + b"}\n"),
    ):
        with open(path(name), "wb") as fh:
            fh.write(data)
    simplex = ["--dist", path("simplex")]
    pair = ["--state", path("density"), "--sigma", path("pd")]
    bipartite = ["--state", path("bipartite")]
    commands = {
        "entropy-classical": ["entropy", "classical", *simplex, "--beta", "2", "--json"],
        "entropy-quantum": ["entropy", "quantum", "--state", path("density"), "--alpha", "2",
                            "--json"],
        "entropy-classical-1": ["entropy", "classical", *simplex, "--beta", "1", "--json"],
        "entropy-quantum-1": ["entropy", "quantum", "--state", path("density"), "--alpha", "1",
                              "--json"],
        "type-beta": ["type-beta", *simplex, "--beta", "0.5", "--json"],
        "beta-0": ["entropy", "classical", *simplex, "--beta", "0"],
        "alpha-1": ["divergence", *pair, "--alpha", "1"],
        "bounds-lemma2": ["bounds", "lemma2", "--a", path("density"), "--b", path("pd"), "--json"],
        "bounds-lemma3": ["bounds", "lemma3", "--a", path("density"), "--b", path("pd"), "--json"],
        "bounds-lemma4": ["bounds", "lemma4", "--a", path("pd"), "--json"],
        "bounds-t2_2-0.5": ["bounds", "t2_2", *simplex, "--beta", "0.5", "--json"],
        "bounds-t6-dims": ["bounds", "t6", *bipartite, "--dims", "2,2", "--alpha", "2", "--json"],
        "bounds-t3-dims": ["bounds", "t3", *bipartite, "--dims", "2,2", "--alpha", "2", "--json"],
        "not-utf8": ["entropy", "classical", "--dist", path("not-utf8"), "--beta", "2"],
        "deep": ["entropy", "quantum", "--state", path("deep"), "--alpha", "2"],
        "long-int": ["divergence", "--state", path("long-int"), "--sigma", path("pd"),
                     "--alpha", "2"],
    }
    for beta in ("0.5", "2"):
        commands[f"bounds-t1-{beta}"] = ["bounds", "t1", *simplex, "--beta", beta, "--json"]
    for alpha in ("0.5", "1e5"):
        commands[f"entropy-quantum-{alpha}"] = [
            "entropy", "quantum", "--state", path("density"), "--alpha", alpha, "--json"
        ]
    for alpha in ("0.5", "2"):
        for theorem in ("t3", "t3_2"):
            commands[f"bounds-{theorem}-{alpha}"] = [
                "bounds", theorem, "--state", path("density"), "--alpha", alpha, "--json"
            ]
    for alpha in ("2", "1e5", "1e308"):
        commands[f"divergence-{alpha}"] = ["divergence", *pair, "--alpha", alpha, "--json"]
        for theorem in ("t4", "triangle"):
            commands[f"bounds-{theorem}-{alpha}"] = [
                "bounds", theorem, *pair, "--alpha", alpha, "--json"
            ]
    # at 2000 a Gram factor weight underflows: each command is one error object
    for alpha in ("2", "3", "10", "2000"):
        for command in ("conditional", "mutual-info"):
            commands[f"{command}-{alpha}"] = [command, *bipartite, "--alpha", alpha, "--json"]
        commands[f"bounds-t6-{alpha}"] = ["bounds", "t6", *bipartite, "--alpha", alpha, "--json"]
    return commands


def cli_records(directory: str) -> dict:
    return {name: _run(argv) for name, argv in cli_commands(directory).items()}


def moves(expected, actual, where: str = "") -> tuple[int, float, list[str]]:
    """Compare two JSON values: the number of finite floats that differ, the
    largest relative move ``|a - b| / max(1, |a|)`` among them, and a line
    for every other difference (of type, key, length, non-finite float or
    any other value).  The caller applies the tolerance to the moves."""
    if type(expected) is not type(actual):
        return 0, 0.0, [f"{where}: {expected!r} != {actual!r}"]
    if isinstance(expected, float):
        if expected == actual or (math.isnan(expected) and math.isnan(actual)):
            return 0, 0.0, []
        if not (math.isfinite(expected) and math.isfinite(actual)):
            return 0, 0.0, [f"{where}: {expected!r} != {actual!r}"]
        return 1, abs(actual - expected) / max(1.0, abs(expected)), []
    if isinstance(expected, dict):
        if list(expected) != list(actual):
            return 0, 0.0, [f"{where}: keys {sorted(expected)} != {sorted(actual)}"]
        items = [(f"{where}.{key}", expected[key], actual[key]) for key in expected]
    elif isinstance(expected, list):
        if len(expected) != len(actual):
            return 0, 0.0, [f"{where}: length {len(expected)} != {len(actual)}"]
        items = [(f"{where}[{i}]", a, b) for i, (a, b) in enumerate(zip(expected, actual))]
    else:
        return (0, 0.0, []) if expected == actual else (0, 0.0, [f"{where}: {expected!r} != {actual!r}"])
    count, largest, errors = 0, 0.0, []
    for key, a, b in items:
        n, move, bad = moves(a, b, key)
        count, largest, errors = count + n, max(largest, move), errors + bad
    return count, largest, errors


def _summary(kind: str, old: dict, new: dict) -> list[str]:
    lines = []
    for name in sorted(set(old) | set(new)):
        if name not in old or name not in new:
            lines.append(f"{kind} {name}: {'added' if name in new else 'removed'}")
            continue
        count, largest, errors = moves(old[name], new[name], name)
        if count or errors:
            lines.append(
                f"{kind} {name}: {count} floats moved, largest {largest:.2e}"
                + (f", {len(errors)} other differences" if errors else "")
            )
    return lines


def main_regenerate() -> None:
    with tempfile.TemporaryDirectory() as directory:
        records = {SUITES_FILE: suite_records(), CLI_FILE: cli_records(directory)}
    lines = []
    for path, new in records.items():
        kind = os.path.basename(path)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                lines += _summary(kind, json.load(fh), new)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(new, fh, separators=(",", ":"))
            fh.write("\n")
    print("\n".join(lines) if lines else "no value moved")


if __name__ == "__main__":
    sys.exit(main_regenerate())
