"""Golden outputs, and the one table of the commands they pin.

``commands`` is the table: every ``gen``, ``verify`` and read command that
``determinism.py`` runs twice, each with its exit code.  No other file lists
a command.

``tests/golden/suites.json`` holds, for each of the 13 suites, the record of
``run_suite(name, 64, 9, tolerance=-1.0)``: its counts and, for every trial
(each one fails at a negative tolerance), ``(trial, lhs, rhs, gap, passed,
equality)``.  ``tests/golden/cli.json`` holds, for each read command of the
table, its exit code and the JSON it prints on stdout or stderr;
``cli_records`` runs the table's ``gen`` entries in process for the inputs,
skips its ``verify`` entries (``suites.json`` pins the suites) and asserts
each read command's exit code.  ``test_golden.py`` compares the tree against
these records, floats within :data:`REL_TOL` relative and everything else
exactly.

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


def write_inputs(directory: str) -> None:
    """Write the read commands' inputs that ``gen`` does not into ``directory``:
    files the reader cannot decode or parse, and two whose values overflow."""
    for name, data in (
        ("not-utf8", b'{"p": [\xff]}\n'),
        ("deep", b"[" * 100_000 + b"\n"),
        ("long-int", b'{"dim": 1' + b"0" * 4300 + b"}\n"),
        # eigenvalues 0 and 2e308, and probabilities that sum to 2e308
        ("overflow-spectrum", b'{"dim": 2, "matrix": [[[1e308, 0], [1e308, 0]], '
                              b'[[1e308, 0], [1e308, 0]]]}\n'),
        ("overflow-sum", b'{"p": [1e308, 1e308]}\n'),
    ):
        with open(os.path.join(directory, f"{name}.json"), "wb") as fh:
            fh.write(data)


def commands(directory: str) -> dict[str, tuple[int, list[str]]]:
    """Every command that ``determinism.py`` runs, by name: its exit code and
    its argv, on inputs in ``directory``.  The ``gen`` runs come first and write
    the inputs that ``write_inputs`` does not; then the ``verify`` runs; then
    the read commands, whose records ``cli.json`` holds."""
    path = lambda name: os.path.join(directory, f"{name}.json")  # noqa: E731
    table = {}
    for name, argv in (
        ("density", ["density", "--dim", "8", "--seed", "3"]),
        ("pd", ["pd", "--dim", "8", "--seed", "4"]),
        ("bipartite", ["density", "--dim", "4", "--seed", "3", "--dims", "2,2"]),
        ("simplex", ["simplex", "--dim", "6", "--seed", "5", "--zeros", "2"]),
    ):
        table[name] = (0, ["gen", *argv, "--out", path(name)])
    seeded = ["--seed", "9", "--json"]
    for suite in ("t1", "t2_2", "info_fn_eq", "eq4_roundtrip"):
        table[suite] = (0, ["verify", suite, "--trials", "500", *seeded])
    for suite in ("lemma2", "lemma3", "lemma4", "t3", "t3_2", "t4", "triangle", "diag_oracle"):
        table[suite] = (0, ["verify", suite, "--trials", "200", *seeded])
    table["t6"] = (0, ["verify", "t6", "--trials", "40", *seeded])
    # 4 blocks, the last one partial: block and shape-group boundaries
    table["diag_oracle-882"] = (0, ["verify", "diag_oracle", "--trials", "882", *seeded])
    # 3 blocks, the last one partial, each checked per shape group, so every
    # kernel suite's verdict join is compared across blocks (t6's blocks each
    # hold both dims tags of its 6x6 states)
    for suite in ("t4", "lemma2", "lemma3", "lemma4", "t3", "t3_2", "triangle", "t6"):
        table[f"{suite}-600"] = (0, ["verify", suite, "--trials", "600", *seeded])
    simplex = ["--dist", path("simplex")]
    pair = ["--state", path("density"), "--sigma", path("pd")]
    bipartite = ["--state", path("bipartite")]
    table.update({
        "entropy-classical": (0, ["entropy", "classical", *simplex, "--beta", "2", "--json"]),
        "entropy-quantum": (0, ["entropy", "quantum", "--state", path("density"), "--alpha", "2",
                                "--json"]),
        # order 1: the Shannon and von Neumann limits
        "entropy-classical-1": (0, ["entropy", "classical", *simplex, "--beta", "1", "--json"]),
        "entropy-quantum-1": (0, ["entropy", "quantum", "--state", path("density"), "--alpha",
                                  "1", "--json"]),
        "type-beta": (0, ["type-beta", *simplex, "--beta", "0.5", "--json"]),
        # orders outside their interval
        "beta-0": (1, ["entropy", "classical", *simplex, "--beta", "0"]),
        "alpha-1": (1, ["divergence", *pair, "--alpha", "1"]),
        "bounds-lemma2": (0, ["bounds", "lemma2", "--a", path("density"), "--b", path("pd"),
                              "--json"]),
        "bounds-lemma3": (0, ["bounds", "lemma3", "--a", path("density"), "--b", path("pd"),
                              "--json"]),
        "bounds-lemma4": (0, ["bounds", "lemma4", "--a", path("pd"), "--json"]),
        "bounds-t2_2-0.5": (0, ["bounds", "t2_2", *simplex, "--beta", "0.5", "--json"]),
        "bounds-t6-dims": (0, ["bounds", "t6", *bipartite, "--dims", "2,2", "--alpha", "2",
                               "--json"]),
        "bounds-t3-dims": (0, ["bounds", "t3", *bipartite, "--dims", "2,2", "--alpha", "2",
                               "--json"]),
        # files the reader cannot decode or parse
        "not-utf8": (1, ["entropy", "classical", "--dist", path("not-utf8"), "--beta", "2"]),
        "deep": (1, ["entropy", "quantum", "--state", path("deep"), "--alpha", "2"]),
        "long-int": (1, ["divergence", "--state", path("long-int"), "--sigma", path("pd"),
                         "--alpha", "2"]),
        # values past the float range: each command exits 1 with one error object
        "entropy-quantum-overflow": (1, ["entropy", "quantum", "--state", path("overflow-spectrum"),
                                         "--alpha", "2", "--json"]),
        "divergence-state-overflow": (1, ["divergence", "--state", path("overflow-spectrum"),
                                          "--sigma", path("pd"), "--alpha", "2", "--json"]),
        "divergence-sigma-overflow": (1, ["divergence", "--state", path("density"), "--sigma",
                                          path("overflow-spectrum"), "--alpha", "2", "--json"]),
        "bounds-t4-overflow": (1, ["bounds", "t4", "--state", path("overflow-spectrum"), "--sigma",
                                   path("pd"), "--alpha", "2", "--json"]),
        "mutual-info-overflow": (1, ["mutual-info", "--state", path("overflow-spectrum"), "--dims",
                                     "1,2", "--alpha", "2", "--json"]),
        "entropy-classical-overflow": (1, ["entropy", "classical", "--dist", path("overflow-sum"),
                                           "--beta", "2", "--json"]),
        "bounds-t1-overflow": (1, ["bounds", "t1", "--dist", path("overflow-sum"), "--beta", "2",
                                   "--json"]),
    })
    for beta in ("0.5", "2"):
        table[f"bounds-t1-{beta}"] = (0, ["bounds", "t1", *simplex, "--beta", beta, "--json"])
    # the entropy from the eigvalsh spectrum, at an ordinary and an extreme order
    for alpha in ("0.5", "1e5"):
        table[f"entropy-quantum-{alpha}"] = (0, [
            "entropy", "quantum", "--state", path("density"), "--alpha", alpha, "--json"
        ])
    # the spectrum-only bounds, on eigvalsh spectra
    for alpha in ("0.5", "2"):
        for theorem in ("t3", "t3_2"):
            table[f"bounds-{theorem}-{alpha}"] = (0, [
                "bounds", theorem, "--state", path("density"), "--alpha", alpha, "--json"
            ])
    # the divergence commands at ordinary and extreme orders
    for alpha in ("2", "1e5", "1e308"):
        table[f"divergence-{alpha}"] = (0, ["divergence", *pair, "--alpha", alpha, "--json"])
        for theorem in ("t4", "triangle"):
            table[f"bounds-{theorem}-{alpha}"] = (0, [
                "bounds", theorem, *pair, "--alpha", alpha, "--json"
            ])
    # the optimized quantities at ordinary orders and at 10; at 2000 a Gram
    # factor weight underflows, and each command exits 1 with one error object
    for alpha in ("2", "3", "10", "2000"):
        code = 1 if alpha == "2000" else 0
        for command in ("conditional", "mutual-info"):
            table[f"{command}-{alpha}"] = (code, [command, *bipartite, "--alpha", alpha, "--json"])
        table[f"bounds-t6-{alpha}"] = (code, ["bounds", "t6", *bipartite, "--alpha", alpha,
                                              "--json"])
    return table


def cli_records(directory: str) -> dict:
    """The record of each read command of ``commands``, on inputs written into
    ``directory`` (the ``gen`` runs in process); each exit code must be the
    table's.  The ``verify`` runs are skipped: ``suites.json`` pins the suites."""
    write_inputs(directory)
    records = {}
    for name, (code, argv) in commands(directory).items():
        if argv[0] == "gen":
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == code, name
        elif argv[0] != "verify":
            records[name] = _run(argv)
            assert records[name]["code"] == code, (name, records[name])
    return records


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
