"""Every value the library returns is plain data: a pickle, copy or deep copy
round trip gives the same type and the same bits in every field."""

import copy
import dataclasses
import enum
import math
import pickle

import numpy as np
import pytest

from renyi.divergence import mutual_information, renyi_relative_entropy, t5_closed_form
from renyi.harness import random_density_array, random_pd, run_suite
from renyi.linalg import classify_definiteness, spectral_decompose
from renyi.quantum import DensityMatrix, _density_decompose, quantum_renyi_entropy, t3_bound


def _state() -> DensityMatrix:
    return DensityMatrix(random_density_array(4, seed=11), dims=(2, 2))


def _stack() -> DensityMatrix:
    stack = np.stack([random_density_array(4, seed=s) for s in (12, 13, 14)])
    return DensityMatrix._trusted(_density_decompose(stack), (2, 2))


VALUES = {
    "density-matrix": _state,
    "density-stack": _stack,
    "optimization-outcome": lambda: mutual_information(_state(), 2.0)[1],
    "t5-closed-form": lambda: t5_closed_form(
        DensityMatrix(np.eye(4) / 4, dims=(2, 2)), 2.0, "conditional"
    ),
    "spectral-decomposition": lambda: spectral_decompose(random_pd(3, seed=15)),
    "entropy-value": lambda: quantum_renyi_entropy(_state(), 2.0),
    "divergence-result": lambda: renyi_relative_entropy(_state(), np.eye(4), 2.0),
    "psd-class": lambda: classify_definiteness(np.diag([1.0, 0.0])),
    "bound-report": lambda: t3_bound(_state(), 0.5),
    # a negative tolerance fails every trial, so the report carries records
    "suite-report": lambda: run_suite("t4", 3, seed=16, tolerance=-1.0),
}

ROUND_TRIPS = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _assert_same(a, b, where: str = "value") -> None:
    """``a`` and ``b`` have one type and the same bits: each array its dtype,
    shape, read-only flag and bytes, each float its bit pattern."""
    assert type(a) is type(b), where
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), where
        assert a.flags.writeable == b.flags.writeable, where
        assert a.tobytes() == b.tobytes(), where
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, dict):
        assert list(a) == list(b), where
        for key in a:
            _assert_same(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert a.hex() == b.hex() or (math.isnan(a) and math.isnan(b)), where
    elif isinstance(a, enum.Enum):
        assert a is b, where
    else:
        assert a == b, where


@pytest.mark.parametrize("trip", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("name", sorted(VALUES))
def test_round_trip_keeps_every_field(name, trip):
    value = VALUES[name]()
    assert value is not None
    _assert_same(value, ROUND_TRIPS[trip](value))


@pytest.mark.parametrize("trip", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("build", [_state, _stack], ids=["one", "stack"])
def test_density_matrix_round_trip_stays_read_only(build, trip):
    rho = ROUND_TRIPS[trip](build())
    assert rho.dims == (2, 2)
    for array in (rho.matrix, rho.eigenvalues):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flat[0] = 0.0
