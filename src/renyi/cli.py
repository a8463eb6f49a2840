"""Command-line front end.

Subcommands: ``entropy classical|quantum``, ``type-beta``, ``divergence``,
``conditional``, ``mutual-info``, ``bounds <theorem-id>``, ``verify``, and
``gen``.  Human-readable output prints numbers with 12 significant digits;
``--json`` switches to a structured report that echoes every input needed to
recompute the result.  Exit codes: 0 success, 1 computation/validation error
(machine-readable error object on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import divergence as dv
from . import harness
from .classical import entropy_type_beta, probability_vector, renyi_entropy
from .exceptions import BadKind, FileFormatError, IoError, RenyiError
from .fileformat import (
    distribution_from_payload,
    distribution_payload,
    dump_payload,
    load_payload,
    matrix_from_payload,
    matrix_payload,
)
from .linalg import CHAIN_TOL, EQ_TOL, HERM_TOL, PSD_TOL, ZERO_THRESHOLD
from .quantum import DensityMatrix, quantum_renyi_entropy

_LN2 = math.log(2.0)

# the flag that names each suite input, where the two differ
_FLAGS = {"rho": "state", "p": "dist"}

LINALG_TOLERANCES = {
    "herm_tol": HERM_TOL,
    "psd_tol": PSD_TOL,
    "chain_tol": CHAIN_TOL,
    "eq_tol": EQ_TOL,
    "zero_threshold": ZERO_THRESHOLD,
}


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _max_dim() -> int:
    raw = os.environ.get("RENYI_MAX_DIM", "64")
    try:
        return int(raw)
    except ValueError:
        raise IoError(f"RENYI_MAX_DIM must be an integer, got {raw!r}")


def _read_payload(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_payload(fh.read())
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}")


def _load_matrix(path: str) -> tuple[np.ndarray, tuple[int, int] | None, dict]:
    payload = _read_payload(path)
    matrix, dims = matrix_from_payload(payload)
    if matrix.shape[0] > _max_dim():
        raise FileFormatError(
            f"matrix dimension {matrix.shape[0]} exceeds RENYI_MAX_DIM={_max_dim()}",
            "dim",
        )
    return matrix, dims, payload


def _load_distribution(path: str) -> tuple[np.ndarray, dict]:
    payload = _read_payload(path)
    p = probability_vector(distribution_from_payload(payload))
    return p, payload


def _parse_dims(text: str) -> tuple[int, int]:
    try:
        d_a, d_b = (int(part) for part in text.split(","))
    except ValueError:
        raise FileFormatError(f"--dims expects 'dA,dB', got {text!r}", "dims")
    if d_a < 1 or d_b < 1:
        raise FileFormatError(f"--dims parts must be positive, got {text!r}", "dims")
    return d_a, d_b


def _emit(args, human_lines: list[str], payload: dict) -> None:
    if getattr(args, "json", False):
        payload = {"tolerances": LINALG_TOLERANCES, **payload}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _report_lines(report) -> list[str]:
    lines = [
        f"check {report.name}",
        f"lhs {_fmt(report.lhs)}",
        f"rhs {_fmt(report.rhs)}",
        f"gap {_fmt(report.gap)}",
        f"passed {report.passed}",
        f"equality {report.equality}",
        f"tolerance {_fmt(report.tolerance)}",
    ]
    for key in sorted(report.extras):
        value = report.extras[key]
        if isinstance(value, float):
            lines.append(f"{key} {_fmt(value)}")
        else:
            lines.append(f"{key} {value}")
    return lines


def _matrix_lines(name: str, matrix: np.ndarray) -> list[str]:
    lines = [name]
    for row in matrix:
        lines.append(
            "  "
            + "  ".join(f"{_fmt(z.real)}{z.imag:+.12g}j" for z in row)
        )
    return lines


def _cmd_entropy(args) -> int:
    if args.which == "classical":
        p, payload = _load_distribution(args.dist)
        units = args.units or "bits"
        value = renyi_entropy(p, args.beta)
        if units == "nats":
            value *= _LN2
        _emit(
            args,
            [f"value {_fmt(value)}", f"units {units}", f"beta {_fmt(args.beta)}"],
            {
                "command": "entropy classical",
                "beta": args.beta,
                "units": units,
                "value": value,
                "inputs": {"dist": payload},
            },
        )
    else:
        matrix, dims, payload = _load_matrix(args.state)
        units = args.units or "nats"
        rho = DensityMatrix(matrix, dims=dims)
        value = quantum_renyi_entropy(rho, args.alpha, units=units).value
        _emit(
            args,
            [f"value {_fmt(value)}", f"units {units}", f"alpha {_fmt(args.alpha)}"],
            {
                "command": "entropy quantum",
                "alpha": args.alpha,
                "units": units,
                "value": value,
                "inputs": {"state": payload},
            },
        )
    return 0


def _cmd_type_beta(args) -> int:
    p, payload = _load_distribution(args.dist)
    value = entropy_type_beta(p, args.beta)
    _emit(
        args,
        [f"value {_fmt(value)}", f"beta {_fmt(args.beta)}", "units type-beta"],
        {
            "command": "type-beta",
            "beta": args.beta,
            "value": value,
            "inputs": {"dist": payload},
        },
    )
    return 0


def _cmd_divergence(args) -> int:
    rho_m, rho_dims, rho_payload = _load_matrix(args.state)
    sigma, _, sigma_payload = _load_matrix(args.sigma)
    units = args.units or "nats"
    result = dv.renyi_relative_entropy(
        DensityMatrix(rho_m, dims=rho_dims), sigma, args.alpha
    )
    value = result.value if units == "nats" else result.value / _LN2
    _emit(
        args,
        [
            f"value {_fmt(value)}",
            f"units {units}",
            f"alpha {_fmt(args.alpha)}",
            f"equality_case {result.equality_case}",
        ],
        {
            "command": "divergence",
            "alpha": args.alpha,
            "units": units,
            "value": value,
            "equality_case": result.equality_case,
            "inputs": {"state": rho_payload, "sigma": sigma_payload},
        },
    )
    return 0


def _optimized(args, mode: str) -> int:
    matrix, dims, payload = _load_matrix(args.state)
    if args.dims:
        dims = _parse_dims(args.dims)
    rho = DensityMatrix(matrix, dims=dims)
    units = args.units or "nats"
    if mode == "conditional":
        value, outcome = dv.conditional_entropy(rho, args.alpha)
    else:
        value, outcome = dv.mutual_information(rho, args.alpha)
    shown = value if units == "nats" else value / _LN2
    sigma = outcome.optimizer_sigma.matrix
    lines = [
        f"value {_fmt(shown)}",
        f"units {units}",
        f"alpha {_fmt(args.alpha)}",
    ] + _matrix_lines("sigma_b", sigma)
    _emit(
        args,
        lines,
        {
            "command": mode,
            "alpha": args.alpha,
            "units": units,
            "value": shown,
            "sigma_b": matrix_payload(sigma),
            "inputs": {"state": payload, "dims": list(rho.dims)},
        },
    )
    return 0


def _cmd_bounds(args) -> int:
    suite = harness.SUITES[args.theorem]
    flags = [_FLAGS.get(name, name) for name in suite.inputs]
    missing = [flag for flag in flags if getattr(args, flag) is None]
    if missing:
        message = f"error: bounds {args.theorem} requires --" + " --".join(missing)
        print(message, file=sys.stderr)
        return 2
    inputs, echo = {}, {}
    for (name, kind), flag in zip(suite.inputs.items(), flags):
        value = getattr(args, flag)
        if kind == harness.MATRIX:
            matrix, dims, value = _load_matrix(value)
            if name == "rho" and args.dims:
                dims = _parse_dims(args.dims)
            inputs[name] = (matrix, dims)
        elif kind == harness.DISTRIBUTION:
            value = _read_payload(value)
            inputs[name] = distribution_from_payload(value)
        else:
            inputs[name] = value
        echo[flag] = value
    report = suite.check([inputs])[0]
    _emit(
        args,
        _report_lines(report),
        {"command": f"bounds {args.theorem}", "report": report.to_dict(), "inputs": echo},
    )
    return 0


def _cmd_verify(args) -> int:
    report = harness.run_suite(args.suite, args.trials, args.seed)
    lines = [
        f"suite {report.name}",
        f"trials {report.trials}",
        f"failures {len(report.failures)}",
        f"max_violation {_fmt(report.max_violation)}",
        f"injected_equality {report.injected_equality}",
        f"equality_flagged {report.equality_flagged}",
    ]
    for record in report.failures:
        lines.append(
            f"failure trial={record.trial} gap={_fmt(record.report.gap)} "
            + json.dumps(record.inputs, sort_keys=True)
        )
    _emit(
        args,
        lines,
        {
            "command": "verify",
            "seed": args.seed,
            **report.to_dict(include_elapsed=False),
        },
    )
    if report.failures:
        error = {
            "code": "SuiteFailures",
            "message": f"suite {report.name} recorded {len(report.failures)} "
            f"violation(s) beyond tolerance",
            "offending_field": "",
        }
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 1
    return 0


def _cmd_gen(args) -> int:
    dim = args.dim
    if dim > _max_dim():
        raise FileFormatError(
            f"dim {dim} exceeds RENYI_MAX_DIM={_max_dim()}", "dim"
        )
    if args.kind == "density":
        rho = harness.random_density_array(dim, args.seed, rank=args.rank)
        dims = _parse_dims(args.dims) if args.dims else None
        if dims is not None and dims[0] * dims[1] != dim:
            raise FileFormatError(f"dims {dims} do not multiply to {dim}", "dims")
        payload = matrix_payload(rho, dims=dims)
    elif args.kind == "pd":
        payload = matrix_payload(harness.random_pd(dim, args.seed, args.cap))
    elif args.kind == "simplex":
        payload = distribution_payload(
            harness.random_simplex(dim, args.seed, zeros=args.zeros)
        )
    else:  # pragma: no cover - argparse choices guard this
        raise BadKind(f"unknown kind {args.kind!r}")
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dump_payload(payload))
    except OSError as exc:
        raise IoError(f"cannot write {args.out}: {exc}")
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renyi",
        description="Classical/quantum Renyi entropies, divergences, and bound suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    entropy = sub.add_parser("entropy", help="entropy of a distribution or state")
    entropy_sub = entropy.add_subparsers(dest="which", required=True)
    ec = entropy_sub.add_parser("classical")
    ec.add_argument("--dist", required=True)
    ec.add_argument("--beta", type=float, required=True)
    ec.add_argument("--units", choices=("bits", "nats"))
    ec.add_argument("--json", action="store_true")
    ec.set_defaults(func=_cmd_entropy)
    eq = entropy_sub.add_parser("quantum")
    eq.add_argument("--state", required=True)
    eq.add_argument("--alpha", type=float, required=True)
    eq.add_argument("--units", choices=("bits", "nats"))
    eq.add_argument("--json", action="store_true")
    eq.set_defaults(func=_cmd_entropy)

    tb = sub.add_parser("type-beta", help="entropy of type beta")
    tb.add_argument("--dist", required=True)
    tb.add_argument("--beta", type=float, required=True)
    tb.add_argument("--json", action="store_true")
    tb.set_defaults(func=_cmd_type_beta)

    div = sub.add_parser("divergence", help="Renyi relative entropy")
    div.add_argument("--state", required=True)
    div.add_argument("--sigma", required=True)
    div.add_argument("--alpha", type=float, required=True)
    div.add_argument("--units", choices=("bits", "nats"))
    div.add_argument("--json", action="store_true")
    div.set_defaults(func=_cmd_divergence)

    for mode, name in (("conditional", "conditional"), ("mutual", "mutual-info")):
        cmd = sub.add_parser(name, help=f"optimized {mode} quantity")
        cmd.add_argument("--state", required=True)
        cmd.add_argument("--dims", help="dA,dB bipartite split")
        cmd.add_argument("--alpha", type=float, required=True)
        cmd.add_argument("--units", choices=("bits", "nats"))
        cmd.add_argument("--json", action="store_true")
        cmd.set_defaults(func=lambda args, _m=mode: _optimized(args, _m))

    bounds = sub.add_parser("bounds", help="evaluate one theorem's bound report")
    bounds.add_argument(
        "theorem",
        choices=("lemma2", "lemma3", "lemma4", "t1", "t2_2", "t3", "t3_2", "t4", "t6", "triangle"),
    )
    bounds.add_argument("--a")
    bounds.add_argument("--b")
    bounds.add_argument("--dist")
    bounds.add_argument("--state")
    bounds.add_argument("--sigma")
    bounds.add_argument("--dims")
    bounds.add_argument("--beta", type=float)
    bounds.add_argument("--alpha", type=float)
    bounds.add_argument("--json", action="store_true")
    bounds.set_defaults(func=_cmd_bounds)

    verify = sub.add_parser("verify", help="run a randomized property suite")
    verify.add_argument("suite", choices=sorted(harness.SUITES))
    verify.add_argument("--trials", type=int, required=True)
    verify.add_argument("--seed", type=int, required=True)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("kind", choices=("density", "pd", "simplex"))
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--rank", type=int)
    gen.add_argument("--zeros", type=int, default=0)
    gen.add_argument("--cap", type=float, default=100.0)
    gen.add_argument("--dims")
    gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
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
