"""Command-line front end.

Subcommands: ``entropy classical|quantum``, ``type-beta``, ``divergence``,
``conditional``, ``mutual-info``, ``bounds <theorem-id>``, ``verify``, and
``gen``.  Each read command builds one ordered record of its output fields,
and :func:`_emit` prints it: by default as ``key value`` lines, numbers with
12 significant digits; under ``--json`` as one object with the tolerances,
the command, the fields and every input needed to recompute the result.
One reader, :func:`_read`, turns each file flag into its input; the matrix
parser caps a declared ``dim`` at ``RENYI_MAX_DIM`` (default 64), as ``gen``
caps ``--dim``, with one ``fileformat.check_dim``, before any row is parsed.
A file that does not decode or parse is a FileFormatError.
Exit codes: 0 success, 1 computation/validation error (machine-readable error
object on stderr; a reader that closes stdout early, as ``| head`` does, is an
``IoError``), 2 usage error (for ``bounds`` also a missing input flag, or a
given one its theorem does not read; for ``gen`` a flag its kind does not read).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import divergence as dv
from . import harness
from .classical import entropy_type_beta, renyi_entropy
from .exceptions import FileFormatError, IoError, RenyiError, SuiteFailures
from .fileformat import (
    check_dim,
    distribution_from_payload,
    distribution_payload,
    dump_payload,
    load_payload,
    matrix_from_payload,
    matrix_payload,
)
from .linalg import _LN2, CHAIN_TOL, EQ_TOL, HERM_TOL, PSD_TOL, ZERO_THRESHOLD
from .quantum import DensityMatrix, _renyi_entropy, _spectra

# the flag that names each suite input, where the two differ
_FLAGS = {"rho": "state", "p": "dist"}
# the input flags of ``bounds``: a theorem reads the flags of its suite's
# inputs, and ``--dims`` when it reads ``rho``
_BOUNDS_FLAGS = ("a", "b", "dist", "state", "sigma", "dims", "beta", "alpha")

LINALG_TOLERANCES = {
    "herm_tol": HERM_TOL,
    "psd_tol": PSD_TOL,
    "chain_tol": CHAIN_TOL,
    "eq_tol": EQ_TOL,
    "zero_threshold": ZERO_THRESHOLD,
}


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _read(args, flag: str):
    """The input of one file flag and the payload the output echoes: the
    distribution for ``--dist``, else ``(matrix, dims)``, a ``--state``'s tag
    replaced by ``--dims`` where that is given."""
    path = getattr(args, flag)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}")
    payload = load_payload(data)
    if flag == "dist":
        return distribution_from_payload(payload), payload
    matrix, dims = matrix_from_payload(payload)
    if flag == "state" and getattr(args, "dims", None):
        dims = _parse_dims(args.dims)
    return (matrix, dims), payload


def _parse_dims(text: str) -> tuple[int, int]:
    try:
        d_a, d_b = (int(part) for part in text.split(","))
    except ValueError:
        raise FileFormatError(f"--dims expects 'dA,dB', got {text!r}", "dims")
    if d_a < 1 or d_b < 1:
        raise FileFormatError(f"--dims parts must be positive, got {text!r}", "dims")
    return d_a, d_b


def _emit(
    args, command: str, record: dict, inputs: dict | None = None,
    shown: dict | None = None,
) -> None:
    """Print one command's ordered output ``record``.

    By default each field of ``shown`` (the record itself unless given) is a
    ``key value`` line: a float with 12 significant digits, any other scalar
    as ``str``, and a matrix as its name line plus one line per row.
    ``--json`` prints the object ``{tolerances, command, **record, inputs}``,
    each matrix as its payload.
    """
    if args.json:
        payload = {"tolerances": LINALG_TOLERANCES, "command": command}
        for key, value in record.items():
            payload[key] = matrix_payload(value) if isinstance(value, np.ndarray) else value
        if inputs is not None:
            payload["inputs"] = inputs
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for key, value in (record if shown is None else shown).items():
        if isinstance(value, np.ndarray):
            print(key)
            for row in value:
                print("  " + "  ".join(f"{_fmt(z.real)}{z.imag:+.12g}j" for z in row))
        else:
            print(key, _fmt(value) if isinstance(value, float) else value)


def _cmd_entropy(args) -> int:
    if args.which == "classical":
        p, payload = _read(args, "dist")
        value = renyi_entropy(p, args.beta) * (_LN2 if args.units == "nats" else 1.0)
        record = {"value": value, "units": args.units, "beta": args.beta}
        inputs = {"dist": payload}
    else:
        state, payload = _read(args, "state")
        value = _renyi_entropy(_spectra(*state), args.alpha, args.units).value
        record = {"value": value, "units": args.units, "alpha": args.alpha}
        inputs = {"state": payload}
    _emit(args, f"entropy {args.which}", record, inputs)
    return 0


def _cmd_type_beta(args) -> int:
    p, payload = _read(args, "dist")
    value = entropy_type_beta(p, args.beta)
    record = {"value": value, "beta": args.beta}
    shown = {**record, "units": "type-beta"}
    _emit(args, "type-beta", record, {"dist": payload}, shown=shown)
    return 0


def _cmd_divergence(args) -> int:
    state, state_payload = _read(args, "state")
    (sigma, _), sigma_payload = _read(args, "sigma")
    result = dv.renyi_relative_entropy(DensityMatrix(*state), sigma, args.alpha)
    value = result.value if args.units == "nats" else result.value / _LN2
    record = {"value": value, "units": args.units, "alpha": args.alpha,
              "equality_case": result.equality_case}
    _emit(args, "divergence", record, {"state": state_payload, "sigma": sigma_payload})
    return 0


def _optimized(args, mode: str, quantity) -> int:
    state, payload = _read(args, "state")
    rho = DensityMatrix(*state)
    value, outcome = quantity(rho, args.alpha)
    if args.units == "bits":
        value /= _LN2
    record = {"value": value, "units": args.units, "alpha": args.alpha,
              "sigma_b": outcome.optimizer_sigma.matrix}
    _emit(args, mode, record, {"state": payload, "dims": list(rho.dims)})
    return 0


def _cmd_bounds(args) -> int:
    suite = harness.SUITES[args.theorem]
    flags = [_FLAGS.get(name, name) for name in suite.inputs]
    missing = [flag for flag in flags if getattr(args, flag) is None]
    reads = flags + (["dims"] if "rho" in suite.inputs else [])
    unread = [f for f in _BOUNDS_FLAGS if f not in reads and getattr(args, f) is not None]
    for problem, names in (("requires", missing), ("does not read", unread)):
        if names:
            message = f"error: bounds {args.theorem} {problem} --" + " --".join(names)
            print(message, file=sys.stderr)
            return 2
    inputs, echo = {}, {}
    for (name, kind), flag in zip(suite.inputs.items(), flags):
        if kind == harness.NUMBER:
            inputs[name] = echo[flag] = getattr(args, flag)
        else:
            inputs[name], echo[flag] = _read(args, flag)
    if args.dims:
        echo["dims"] = list(inputs["rho"][1])
    report = suite.check([inputs])[0]
    # the human form flattens the report under "check", its extras sorted
    flat = report.to_dict()
    extras = flat.pop("extras")
    shown = {"check": flat.pop("name"), **flat, **dict(sorted(extras.items()))}
    _emit(args, f"bounds {args.theorem}", {"report": report.to_dict()}, echo, shown=shown)
    return 0


def _cmd_verify(args) -> int:
    report = harness.run_suite(args.suite, args.trials, args.seed)
    summary = report.to_dict()
    shown = {**summary, "failures": len(report.failures)}
    _emit(args, "verify", {"seed": args.seed, **summary}, shown=shown)
    if not args.json:
        for record in report.failures:
            print(
                f"failure trial={record.trial} gap={_fmt(record.report.gap)} "
                + json.dumps(record.inputs, sort_keys=True)
            )
    if report.failures:
        raise SuiteFailures(
            f"suite {report.name} recorded {len(report.failures)} "
            f"violation(s) beyond tolerance"
        )
    return 0


def _cmd_gen(args) -> int:
    dim = args.dim
    check_dim(dim)
    if args.kind == "density":
        rho = harness.random_density_array(dim, args.seed, rank=args.rank)
        dims = _parse_dims(args.dims) if args.dims else None
        if dims is not None and dims[0] * dims[1] != dim:
            raise FileFormatError(f"dims {dims} do not multiply to {dim}", "dims")
        payload = matrix_payload(rho, dims=dims)
    elif args.kind == "pd":
        payload = matrix_payload(harness.random_pd(dim, args.seed, args.cap))
    else:
        payload = distribution_payload(
            harness.random_simplex(dim, args.seed, zeros=args.zeros)
        )
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dump_payload(payload))
    except OSError as exc:
        raise IoError(f"cannot write {args.out}: {exc}")
    print(args.out)
    return 0


def _read_command(sub, name: str, func, flags, units=None, required=True, **kwargs):
    """Add one read subcommand: a flag for each input, ``--alpha`` and
    ``--beta`` floats and every flag but ``--dims`` required (in ``bounds``
    none is), ``--units`` with the command's default, and ``--json``."""
    cmd = sub.add_parser(name, **kwargs)
    for flag in flags:
        cmd.add_argument(
            f"--{flag}",
            type=float if flag in ("alpha", "beta") else str,
            required=required and flag != "dims",
            help="dA,dB bipartite split" if flag == "dims" else None,
        )
    if units:
        cmd.add_argument("--units", choices=("bits", "nats"), default=units)
    cmd.add_argument("--json", action="store_true")
    cmd.set_defaults(func=func)
    return cmd


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renyi",
        description="Classical/quantum Renyi entropies, divergences, and bound suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    entropy = sub.add_parser("entropy", help="entropy of a distribution or state")
    entropy_sub = entropy.add_subparsers(dest="which", required=True)
    _read_command(entropy_sub, "classical", _cmd_entropy, ("dist", "beta"), "bits")
    _read_command(entropy_sub, "quantum", _cmd_entropy, ("state", "alpha"), "nats")
    _read_command(sub, "type-beta", _cmd_type_beta, ("dist", "beta"),
                  help="entropy of type beta")
    _read_command(sub, "divergence", _cmd_divergence, ("state", "sigma", "alpha"), "nats",
                  help="Renyi relative entropy")
    for mode, name, quantity in (("conditional", "conditional", dv.conditional_entropy),
                                 ("mutual", "mutual-info", dv.mutual_information)):
        _read_command(sub, name, lambda args, m=mode, q=quantity: _optimized(args, m, q),
                      ("state", "dims", "alpha"), "nats", help=f"optimized {mode} quantity")
    bounds = _read_command(sub, "bounds", _cmd_bounds, _BOUNDS_FLAGS, required=False,
                           help="evaluate one theorem's bound report")
    bounds.add_argument(
        "theorem",
        choices=("lemma2", "lemma3", "lemma4", "t1", "t2_2", "t3", "t3_2", "t4", "t6", "triangle"),
    )

    verify = sub.add_parser("verify", help="run a randomized property suite")
    verify.add_argument("suite", choices=sorted(harness.SUITES))
    verify.add_argument("--trials", type=int, required=True)
    verify.add_argument("--seed", type=int, required=True)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.set_defaults(func=_cmd_gen)
    # each kind takes only the flags it reads
    kinds = gen.add_subparsers(dest="kind", required=True)
    density, pd, simplex = (kinds.add_parser(kind) for kind in ("density", "pd", "simplex"))
    for cmd in (density, pd, simplex):
        cmd.add_argument("--dim", type=int, required=True)
        cmd.add_argument("--seed", type=int, required=True)
        cmd.add_argument("--out", required=True)
    density.add_argument("--rank", type=int)
    density.add_argument("--dims")
    pd.add_argument("--cap", type=float, default=100.0)
    simplex.add_argument("--zeros", type=int, default=0)

    return parser


def _run(args) -> int:
    """Run the command with stdout flushed, also when it raises; a reader that
    closed stdout early is an IoError."""
    try:
        try:
            return args.func(args)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # what stdout still buffers goes to devnull, so the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise IoError("stdout was closed before the output was complete")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except RenyiError as exc:
        error = {
            "code": type(exc).__name__,
            "message": str(exc),
            "offending_field": getattr(exc, "offending_field", ""),
        }
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
