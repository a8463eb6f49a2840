"""Benchmark of the renyi library and CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.NAMES``) in a closed loop with one caller
for ``S`` seconds, checks every result against an oracle, and prints, as
the last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` first runs the workload untraced for half
the time, then repeats the same operations with every public layer function
wrapped in a span, and reports the per-layer metrics.  Lines before the last
one start with ``#`` and record the environment and run details.

BLAS is pinned to one thread for this process and every child it starts, so
timings measure the program rather than the scheduler.  Bytecode caching is
off for all of them, so every fresh interpreter compiles ``renyi`` from
source whatever the caller's environment, and the checkout is not written.
"""

import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import glob  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_SAMPLES = 3
# Share of --seconds the untraced half of a traced run gets.
TRACE_SPLIT = 0.5

ALL_SUITES = [suite for suite, _ in workloads.MATRIX_MIX + workloads.CLASSICAL_MIX]
DECOMP_SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 32, 64)


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas_name,
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_in_effect": _openblas_threads(numpy),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def _openblas_threads(numpy):
    """Thread count OpenBLAS reports, if numpy bundles a loadable OpenBLAS."""
    import ctypes

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def drive(wl, seconds=None, count=None):
    """Run operations back to back for ``seconds`` or exactly ``count`` ops.

    A speed calibration precedes any operation that starts ``speed.EVERY_S``
    after the last one, and one follows the last operation; each outcome's
    ``scale`` comes from the two calibrations around it.
    """
    outcomes, marks = [], []
    cals = [speed.sample()]
    last = start = time.perf_counter()
    deadline = start + seconds if seconds is not None else None
    while count is None or len(outcomes) < count:
        if time.perf_counter() - last >= speed.EVERY_S:
            cals.append(speed.sample())
            last = time.perf_counter()
        outcomes.append(wl.run(wl.op(len(outcomes))))
        marks.append(len(cals) - 1)
        if deadline is not None and time.perf_counter() >= deadline:
            break
    cals.append(speed.sample())
    for outcome, k in zip(outcomes, marks):
        outcome.scale = speed.scale(cals[k], cals[k + 1])
    return outcomes, time.perf_counter() - start


def measure_setup(wl, args, workdir) -> list[dict]:
    """Time ``SETUP_SAMPLES`` fresh interpreters from spawn to inputs built.

    Each sample carries the speed scale from the calibrations around it.
    """
    child = os.path.join(HERE, "child.py")
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    before = speed.sample()
    for k in range(SETUP_SAMPLES):
        target = os.path.join(workdir, f"setup-{k}")
        os.mkdir(target)
        cmd = [sys.executable, child, "setup", wl.entry_module, args.workload, str(args.seed), target]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True) as proc:
            try:
                line = proc.stdout.readline()
                wall = time.perf_counter() - start
                proc.stdout.read()
            finally:
                if proc.wait(timeout=60) != 0:
                    raise RuntimeError(f"set-up child exited with {proc.returncode}")
        after = speed.sample()
        samples.append({"wall_s": wall, "scale": speed.scale(before, after), **json.loads(line)})
        before = after
    return samples


def mix_rates(outcomes) -> tuple[float, float]:
    """Trials and calls per second over the workload's fixed mix.

    Each class of the mix (a suite, a split, a CLI cycle position) is an equal
    share of the cycle and counts through its mean cost, so the rate does not
    depend on where in the cycle a run happened to stop.
    """
    by_class: dict = {}
    for o in outcomes:
        by_class.setdefault(o.mix_class, []).append(o)
    cost = sum(statistics.fmean(o.cost for o in group) for group in by_class.values())
    trials = sum(statistics.fmean(o.trials for o in group) for group in by_class.values())
    return trials / cost, len(by_class) / cost


def tail(costs: list[float], pct: float) -> tuple[float, int]:
    """Percentile ``pct``, interpolated between order statistics as the median
    is, and the number of calls above it."""
    ordered = sorted(costs)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return value, sum(c > value for c in ordered)


def end_to_end(wl, args, workdir) -> tuple[dict, list]:
    warm = wl.run(wl.op(0))  # file caches and lazy imports; checked, not timed
    outcomes, wall = drive(wl, seconds=args.seconds)
    setups = measure_setup(wl, args, workdir)
    costs = [o.cost for o in outcomes]
    trials_per_s, calls_per_s = mix_rates(outcomes)
    tail_value, beyond = tail(costs, wl.TAIL_PCT)
    if args.workload == "cli":
        rss_kb = max(o.rss_kb for o in outcomes)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(s["wall_s"] * s["scale"] for s in setups), "s"),
        "trials_per_s": (trials_per_s, "trials/s"),
        "calls_per_s": (calls_per_s, "calls/s"),
        "call_p50_ms": (1e3 * statistics.median(costs), "ms"),
        "call_tail_ms": (1e3 * tail_value, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    raw = [o.latency for o in outcomes]
    print(
        f"# {args.workload}: {len(outcomes)} calls in {wall:.3f} s wall; "
        f"call_tail_ms is p{wl.TAIL_PCT} with {beyond} calls beyond it; "
        f"speed scale median {statistics.median(o.scale for o in outcomes):.4f}"
    )
    print(
        f"# unscaled: calls_per_s {len(raw) / sum(raw):.6g}, "
        f"call_p50_ms {1e3 * statistics.median(raw):.6g}, "
        f"setup_s {statistics.median(s['wall_s'] for s in setups):.6g}"
    )
    return metrics, [warm] + outcomes


def per_layer(wl, args, workdir) -> tuple[dict, list]:
    import tracing

    warm = wl.run(wl.op(0))  # checked, not timed
    plain, _ = drive(wl, seconds=TRACE_SPLIT * args.seconds)
    if args.workload == "cli":
        spans = os.path.join(workdir, "spans.jsonl")
        wl.child_prefix = [sys.executable, os.path.join(HERE, "child.py"), "trace-cli", spans, "--"]
        traced, _ = drive(wl, count=len(plain))
        merged: dict = {}
        with open(spans, encoding="utf-8") as fh:
            for line in fh:
                tracing.merge(merged, json.loads(line))
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _ = drive(wl, count=len(plain))
        finally:
            tracer.uninstall()
        merged = tracer.summary()
    setups = measure_setup(wl, args, workdir)
    ops = sum(o.trials for o in traced)  # suite trials, or calls
    traced_scale = statistics.median(o.scale for o in traced)
    metrics = layer_metrics(merged, ops, traced_scale, plain, traced, wl)
    metrics["cli.import_s"] = (statistics.median(s["import_s"] * s["scale"] for s in setups), "s")
    overhead = sum(o.cost for o in traced) - sum(o.cost for o in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    print(f"# {args.workload}: {len(plain)} calls untraced, then traced; overhead {overhead:.4f} s")
    return metrics, [warm] + plain + traced


def layer_metrics(summary: dict, ops: int, k: float, plain: list, traced: list, wl) -> dict:
    """Per-layer metrics from a span summary; ``k`` scales span times to
    the reference speed."""
    names, tags = summary.get("names", {}), summary.get("tags", {})

    def row(name):
        return names.get(name, (0, 0.0, 0.0))

    def layer(prefix, column):
        return sum(r[column] for n, r in names.items() if n.split(".")[0] == prefix)

    def tagged(name, tag):
        return tags.get(f"{name}|{tag}", (0, 0.0))

    def per_op(x):
        return x / ops if ops else 0.0

    def per_op_s(x):
        return k * per_op(x)

    m = {}
    for fn in ("linalg.spectral_decompose", "linalg.as_hermitian"):
        m[f"{fn}.calls_per_op"] = (per_op(row(fn)[0]), "calls/op")
        m[f"{fn}.self_s"] = (per_op_s(row(fn)[2]), "s/op")
    for n in DECOMP_SIZES:
        count, total = tagged("linalg.spectral_decompose", n)
        m[f"linalg.decompose_us.n{n}"] = (1e6 * k * total / count if count else 0.0, "us")
    m["linalg.self_s"] = (per_op_s(layer("linalg", 2)), "s/op")
    m["quantum.DensityMatrix.calls_per_op"] = (per_op(row("quantum.DensityMatrix")[0]), "calls/op")
    m["quantum.self_s"] = (per_op_s(layer("quantum", 2)), "s/op")
    m["classical.calls_per_op"] = (per_op(layer("classical", 0)), "calls/op")
    m["classical.self_s"] = (per_op_s(layer("classical", 2)), "s/op")
    m["divergence.self_s"] = (per_op_s(layer("divergence", 2)), "s/op")
    for d_b in (2, 3):
        count = total = 0.0
        for fn in ("divergence.mutual_information", "divergence.conditional_entropy"):
            c, t = tagged(fn, d_b)
            count, total = count + c, total + t
        m[f"divergence.call_ms.dB{d_b}"] = (1e3 * k * total / count if count else 0.0, "ms")
    m["divergence.max_ref_err"] = (max(o.ref_err for o in plain + traced), "nats")
    gen = sum(r[1] for n, r in names.items() if n.startswith("harness.gen."))
    check = sum(r[1] for n, r in names.items() if n.startswith("harness.check."))
    m["harness.gen_s"] = (per_op_s(gen), "s/op")
    m["harness.check_s"] = (per_op_s(check), "s/op")
    m["harness.self_s"] = (per_op_s(layer("harness", 2)), "s/op")
    for suite in ALL_SUITES:
        done = [o for o in plain if o.mix_class == suite]
        rate = sum(o.trials for o in done) / sum(o.cost for o in done) if done else 0.0
        m[f"harness.suite_trials_per_s.{suite}"] = (rate, "trials/s")
    for fn in ("fileformat.matrix_from_payload", "fileformat.matrix_payload"):
        m[f"{fn}.calls_per_op"] = (per_op(row(fn)[0]), "calls/op")
    m["fileformat.self_s"] = (per_op_s(layer("fileformat", 2)), "s/op")
    payload_bytes = sum(
        int(key.split("|")[1]) * c for key, (c, _) in tags.items() if key.startswith("fileformat.")
    )
    m["fileformat.bytes_per_op"] = (per_op(payload_bytes), "B/op")
    m["cli.main_self_s"] = (per_op_s(row("cli.main")[2]), "s/op")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "renyi", "__init__.py")):
        print(f"bench: no renyi package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    workdir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        wl = workloads.make(args.workload, args.seed, workdir, SRC)
        wl.prepare()
        measure = per_layer if args.trace else end_to_end
        metrics, outcomes = measure(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(not o.ok for o in outcomes)
    print(f"# error_rate {failed / len(outcomes):.6g} ({failed} of {len(outcomes)} ops failed)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(outcomes),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
