"""Matrix and distribution payloads: the on-disk JSON format.

A matrix file is ``{"dim": n, "matrix": [[[re, im], ...], ...]}`` with an
optional ``"dims": [d_a, d_b]`` bipartite tag; a distribution file is
``{"p": [...]}``.  Each number read is finite as a float and never a
boolean (``_number``), else a FileFormatError names its field.  A matrix's
``dim`` is capped at ``RENYI_MAX_DIM`` (default 64; ``check_dim``) before
its tag or any row is read.  Numbers are serialized as shortest round-trip
decimals, so dump(parse(text)) reproduces a generated file byte for byte.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .exceptions import FileFormatError, IoError


def _number(x) -> bool:
    """The format's one number rule: an int or float, not a bool, finite as a float."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an int past the float range
        return False


def _positive_int(x) -> bool:
    return _number(x) and isinstance(x, int) and x > 0


def check_dim(dim: int) -> None:
    """Reject a declared or requested ``dim`` over ``RENYI_MAX_DIM`` (default
    64), before any array of that size is allocated; a cap that is not an
    integer is an IoError."""
    raw = os.environ.get("RENYI_MAX_DIM", "64")
    try:
        cap = int(raw)
    except ValueError:
        raise IoError(f"RENYI_MAX_DIM must be an integer, got {raw!r}")
    if dim > cap:
        raise FileFormatError(f"dim {dim} exceeds RENYI_MAX_DIM={cap}", "dim")


def matrix_payload(matrix, dims=None) -> dict:
    a = np.asarray(matrix, dtype=np.complex128)
    obj: dict = {"dim": int(a.shape[0])}
    if dims is not None:
        obj["dims"] = [int(dims[0]), int(dims[1])]
    obj["matrix"] = [
        [[float(z.real), float(z.imag)] for z in row] for row in a
    ]
    return obj


def matrix_from_payload(obj) -> tuple[np.ndarray, tuple[int, int] | None]:
    """Parse and structurally validate a matrix payload."""
    if not isinstance(obj, dict):
        raise FileFormatError("matrix payload must be an object", "")
    dim = obj.get("dim")
    if not _positive_int(dim):
        raise FileFormatError(f"dim must be a positive integer, got {dim!r}", "dim")
    check_dim(dim)
    dims = None
    if "dims" in obj:
        raw = obj["dims"]
        if not isinstance(raw, list) or len(raw) != 2 or not all(map(_positive_int, raw)):
            raise FileFormatError("dims must be two positive integers", "dims")
        if raw[0] * raw[1] != dim:
            raise FileFormatError(
                f"dims {raw} do not multiply to dim {dim}", "dims"
            )
        dims = (raw[0], raw[1])
    rows = obj.get("matrix")
    if not isinstance(rows, list) or len(rows) != dim:
        raise FileFormatError(f"matrix must be a list of {dim} rows", "matrix")
    # every row's shape before the dim x dim array is allocated
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise FileFormatError(f"row {i} must have {dim} entries", "matrix")
    out = np.empty((dim, dim), dtype=np.complex128)
    for i, row in enumerate(rows):
        for j, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2 or not all(map(_number, pair)):
                raise FileFormatError(
                    f"entry ({i},{j}) must be an [re, im] pair of finite numbers", "matrix"
                )
            out[i, j] = complex(pair[0], pair[1])
    return out, dims


def distribution_payload(p) -> dict:
    return {"p": [float(x) for x in np.asarray(p, dtype=np.float64)]}


def distribution_from_payload(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise FileFormatError("distribution payload must be an object", "")
    p = obj.get("p")
    if not isinstance(p, list) or not p or not all(map(_number, p)):
        raise FileFormatError("p must be a non-empty list of finite numbers", "p")
    return np.asarray(p, dtype=np.float64)


def dump_payload(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def load_payload(data: bytes | str) -> dict:
    """Parse UTF-8 bytes or text.  Bytes that are not UTF-8, an integer past
    Python's digit limit (ValueErrors, as invalid JSON is) and JSON nested past
    the recursion limit are each a FileFormatError with no field."""
    try:
        obj = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:
        raise FileFormatError(f"invalid JSON: {exc}", "") from exc
    if not isinstance(obj, dict):
        raise FileFormatError("top-level value must be an object", "")
    return obj
