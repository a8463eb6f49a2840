"""Child processes the benchmark starts in a fresh interpreter.

``child.py setup ENTRY WORKLOAD SEED DIR`` imports ``ENTRY`` (``renyi`` or
``renyi.cli``), builds the workload's inputs into ``DIR`` and prints one JSON
line with the import and build times; the parent times it from spawn to
that line, which is the workload's set-up time.

``child.py trace-cli SPANS -- ARGS...`` imports ``renyi.cli``, installs the
tracer and runs ``renyi.cli.main(ARGS)``, so the CLI's own stdout and exit
code are unchanged; the span summary and import time are appended to
``SPANS`` as one JSON line.
"""

import importlib
import json
import sys
import time


def setup(entry: str, workload: str, seed: str, workdir: str) -> int:
    start = time.perf_counter()
    importlib.import_module(entry)
    imported = time.perf_counter()
    import workloads

    wl = workloads.make(workload, int(seed), workdir, "")
    wl.build_inputs()
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "build_s": built - imported}), flush=True)
    return 0


def trace_cli(spans_path: str, argv: list[str]) -> int:
    start = time.perf_counter()
    cli = importlib.import_module("renyi.cli")
    import_s = time.perf_counter() - start
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"import_s": import_s, **tracer.summary()}) + "\n")
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(*rest))
    if mode == "trace-cli":
        sys.exit(trace_cli(rest[0], rest[2:]))
    sys.exit(f"unknown child mode {mode!r}")
