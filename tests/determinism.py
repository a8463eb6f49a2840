"""Run every command of the golden records' table twice, each in a fresh
interpreter, and check that the two runs write the same bytes::

    PYTHONPATH=src python tests/determinism.py OUT

Run ``k`` works in ``OUT/k``: it writes the table's inputs there, then runs
each command as ``python -W error::RuntimeWarning -m renyi.cli ARGV`` in that
directory, on relative paths, with stdout and stderr in ``<name>.out`` and
``<name>.err``.  Every exit code must be the table's, and every file of the
two trees must match its twin byte for byte.  The hash seed is left to each
interpreter, so the two runs differ in it.  Exits 1 on any failure.
"""

import filecmp
import os
import subprocess
import sys

import golden_records as golden


def run(directory: str) -> list[str]:
    """Run the table in ``directory``; a line for each unexpected exit code."""
    os.makedirs(directory)
    golden.write_inputs(directory)
    # the children run in their own directory, so each path must be absolute
    paths = filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(os.path.abspath, paths)))
    failures = []
    for name, (code, argv) in golden.commands(os.curdir).items():
        stem = os.path.join(directory, name)
        with open(f"{stem}.out", "wb") as out, open(f"{stem}.err", "wb") as err:
            got = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", "renyi.cli", *argv],
                cwd=directory, env=env, stdout=out, stderr=err,
            ).returncode
        if got != code:
            failures.append(f"{stem}: exit {got}, not {code}")
    return failures


def main(out: str) -> int:
    first, second = os.path.join(out, "1"), os.path.join(out, "2")
    failures = run(first) + run(second)
    names = sorted(set(os.listdir(first)) | set(os.listdir(second)))
    _, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    failures += [f"{name}: the two runs differ" for name in mismatch + errors]
    print("\n".join(failures) or f"{len(names)} files identical across the two runs")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT")
    sys.exit(main(sys.argv[1]))
