"""Random instance generators and the randomized property suites.

Randomness comes from numpy's Philox counter-based generator keyed by
``(seed, stream)``, so every trial owns an order-independent substream and
suite reports are reproducible bit for bit; :func:`run_suite` re-keys one
generator per trial instead of building a new one.  Each suite knows how to
generate one trial's inputs as arrays, and its check is a kernel over a
block of trials that returns a :class:`Verdict`: one gap, one equality flag
and one failure tolerance per trial, as arrays.  :func:`run_suite` reduces
those arrays to the maximum violation, the failure mask and the equality
counts, and builds a trial's :class:`~renyi.report.BoundReport` only when the
trial fails.  The classical checks stack a block by vector length, evaluate
each formula once per stack and apply the :mod:`renyi.report` rules to the
stacked values; the matrix checks run their one-trial check on each input
and collect its reports.  ``bounds`` and :func:`replay` run the same kernel
on a batch of one and take its report.  A matrix input is an ``(array,
dims)`` pair and a distribution a float array; they are serialized to the CLI
file format only when a failure is recorded, and :func:`replay` parses that
form back.  One trial in a hundred is a constructed equality-case instance
so the equality flags get exercised.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .classical import (
    _check_beta,
    _check_product_beta,
    _entropy_type_beta,
    _order_from_type,
    _product_bound,
    _renyi_entropy,
    _t1_bound,
    info_function_beta,
    probability_vector,
)
from .divergence import (
    renyi_relative_entropy,
    t4_lower_bound,
    t6_lower_bound,
    triangle_bound_check,
)
from .exceptions import BadCap, BadDim, BadRank, BadTrials, BadZeros, UnknownSuite
from .fileformat import (
    distribution_from_payload,
    distribution_payload,
    matrix_from_payload,
    matrix_payload,
)
from .linalg import lemma2_check, lemma3_check, lemma4_check
from .quantum import DensityMatrix, log_dim_cap, quantum_renyi_entropy, t3_bound
from .report import (
    CHAIN_TOL,
    BoundReport,
    chain_gap,
    chain_report,
    chain_tight,
    identity_gap,
    identity_report,
    normalized_slack,
)

_MASK64 = (1 << 64) - 1

DIMS_CYCLE = (1, 2, 3, 4, 5, 6, 7, 8)
ORDERS_CYCLE = (0.3, 0.5, 0.9, 1.5, 2.0, 3.0, 5.0)
ORDERS_BELOW_ONE = (0.3, 0.5, 0.9)
ORDERS_ABOVE_ONE = (1.5, 2.0, 3.0, 5.0)
T6_DIMS_CYCLE = ((2, 2), (2, 3), (3, 2), (3, 3))
CONDITION_CAPS = (10.0, 100.0, 1000.0)

_EQUALITY_EVERY = 100

# trials generated and checked together by run_suite
BLOCK = 256

_PHILOX_ZEROS = np.zeros(4, dtype=np.uint64)
_PHILOX_ZEROS.setflags(write=False)

MATRIX, DISTRIBUTION, NUMBER = "matrix", "distribution", "number"


def _substream(seed: int, stream: int) -> dict:
    """Philox state at the start of the substream keyed by (seed, stream)."""
    key = np.array([int(seed) & _MASK64, int(stream) & _MASK64], dtype=np.uint64)
    return {
        "bit_generator": "Philox",
        "state": {"counter": _PHILOX_ZEROS, "key": key},
        "buffer": _PHILOX_ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def derive_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream): portable and splittable."""
    rng = np.random.Generator(np.random.Philox(key=_PHILOX_ZEROS[:2]))
    rng.bit_generator.state = _substream(seed, stream)
    return rng


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _density_from_rng(rng, dim: int, rank: int) -> np.ndarray:
    """Unit-trace Ginibre state ``(m + m†)/2``: a valid density matrix as is."""
    g = _ginibre(rng, dim, rank)
    m = g @ g.conj().T
    m /= np.trace(m).real
    return (m + m.conj().T) / 2.0


def _basis_from_rng(rng, dim: int) -> np.ndarray:
    """Haar-random unitary: the QR factor of a Ginibre matrix with the phases
    of ``diag(R)`` moved into ``Q`` (Mezzadri, Notices AMS 54, 2007)."""
    q, r = np.linalg.qr(_ginibre(rng, dim, dim))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _pd_from_rng(rng, dim: int, condition_cap: float) -> np.ndarray:
    if not math.isfinite(condition_cap) or condition_cap < 1.0:
        raise BadCap(f"condition cap must be finite and >= 1, got {condition_cap!r}")
    basis = _basis_from_rng(rng, dim)
    lo, hi = 1.0 / math.sqrt(condition_cap), math.sqrt(condition_cap)
    spectrum = rng.uniform(lo, hi, dim)
    m = (basis * spectrum) @ basis.conj().T
    return (m + m.conj().T) / 2.0


def _simplex_from_rng(rng, n: int, zeros: int) -> np.ndarray:
    if zeros < 0 or zeros >= n:
        raise BadZeros(f"zeros must lie in [0, n), got {zeros} for n = {n}")
    m = n - zeros
    draws = rng.standard_exponential(m)
    p = np.zeros(n)
    p[:m] = draws / draws.sum()
    rng.shuffle(p)
    return p


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise BadDim(f"dimension must be at least 1, got {dim}")


def random_density_array(dim: int, seed: int, rank: int | None = None) -> np.ndarray:
    """The matrix of :func:`random_density`, without building the state."""
    _check_dim(dim)
    rank = dim if rank is None else int(rank)
    if not 1 <= rank <= dim:
        raise BadRank(f"rank must lie in [1, {dim}], got {rank}")
    return _density_from_rng(derive_rng(seed), dim, rank)


def random_density(
    dim: int, seed: int, rank: int | None = None
) -> DensityMatrix:
    """Ginibre-construction random density matrix, deterministic per seed."""
    return DensityMatrix(random_density_array(dim, seed, rank))


def random_pd(dim: int, seed: int, condition_cap: float = 100.0) -> np.ndarray:
    """Random PD matrix with eigenvalue ratio at most ``condition_cap``."""
    _check_dim(dim)
    return _pd_from_rng(derive_rng(seed), dim, condition_cap)


def random_simplex(n: int, seed: int, zeros: int = 0) -> np.ndarray:
    """Uniform (Dirichlet) distribution with ``zeros`` exact zero entries."""
    _check_dim(n)
    return _simplex_from_rng(derive_rng(seed), n, zeros)


# --- suite generators / checks -------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """A checked block: per-trial ``gap``, ``equality`` and ``tolerance``
    arrays, and ``report(i)``, which builds trial ``i``'s report.  Indexing
    builds that report, so ``check([inputs])[0]`` is the trial's report."""

    gap: np.ndarray
    equality: np.ndarray
    tolerance: np.ndarray
    report: Callable[[int], BoundReport]

    @property
    def violation(self) -> np.ndarray:
        """``max(0, -gap)`` per trial with Python's ``max`` rule, as in
        BoundReport.violation: a NaN gap or a zero of either sign gives +0."""
        return np.where(-self.gap > 0.0, -self.gap, 0.0)

    def __len__(self) -> int:
        return len(self.gap)

    def __getitem__(self, i: int) -> BoundReport:
        return self.report(i)


def _chain_verdict(name: str, parts: list, extras: dict) -> Verdict:
    """The verdict of stacked chains: ``parts`` are ``(label, lhs, rhs)`` with
    one array entry per trial, and a report is :func:`chain_report` of one
    trial's entries."""
    slacks = [normalized_slack(lo, hi) for _, lo, hi in parts]
    gap = chain_gap(slacks)

    def report(i: int) -> BoundReport:
        return chain_report(
            name,
            [(label, float(lo[i]), float(hi[i])) for label, lo, hi in parts],
            extras={key: float(value[i]) for key, value in extras.items()},
        )

    return Verdict(gap, chain_tight(slacks), np.full(len(gap), CHAIN_TOL), report)


def _identity_verdict(
    name: str, value: np.ndarray, expected: np.ndarray, tolerance: float
) -> Verdict:
    """The verdict of stacked identities, each reported by :func:`identity_report`."""
    gap = identity_gap(value, expected)

    def report(i: int) -> BoundReport:
        return identity_report(name, float(value[i]), float(expected[i]), tolerance)

    return Verdict(gap, gap >= -tolerance, np.full(len(gap), tolerance), report)


def _psd_pair(rng, i: int, equal_case: bool) -> tuple[np.ndarray, np.ndarray]:
    dim = DIMS_CYCLE[i % 8]
    if equal_case:
        if dim == 1:
            return np.array([[rng.uniform(0.5, 2.0)]]), np.array([[0.0]])
        basis = _basis_from_rng(rng, dim)
        split = int(rng.integers(1, dim))
        wa = np.zeros(dim)
        wb = np.zeros(dim)
        wa[:split] = rng.uniform(0.5, 2.0, split)
        wb[split:] = rng.uniform(0.5, 2.0, dim - split)
        a = (basis * wa) @ basis.conj().T
        b = (basis * wb) @ basis.conj().T
        return (a + a.conj().T) / 2.0, (b + b.conj().T) / 2.0
    rank_a = int(rng.integers(1, dim + 1))
    rank_b = int(rng.integers(1, dim + 1))
    ga = _ginibre(rng, dim, rank_a)
    gb = _ginibre(rng, dim, rank_b)
    return ga @ ga.conj().T, gb @ gb.conj().T


def _gen_lemma2(rng, i: int) -> dict:
    eq = i % _EQUALITY_EVERY == 0
    a, b = _psd_pair(rng, i, eq)
    return {"a": (a, None), "b": (b, None), "equality_injected": eq}


def _check_lemma2(inputs: dict) -> BoundReport:
    a, _ = inputs["a"]
    b, _ = inputs["b"]
    return lemma2_check(a, b)


def _gen_lemma3(rng, i: int) -> dict:
    eq = i % _EQUALITY_EVERY == 0
    if eq:
        dim = DIMS_CYCLE[i % 8]
        basis = _basis_from_rng(rng, dim)
        spectrum = rng.uniform(0.5, 2.0, dim)
        c = rng.uniform(0.5, 3.0)
        b = (basis * spectrum) @ basis.conj().T
        a = (basis * (c / spectrum)) @ basis.conj().T
        a = (a + a.conj().T) / 2.0
        b = (b + b.conj().T) / 2.0
    else:
        a, b = _psd_pair(rng, i, False)
    return {"a": (a, None), "b": (b, None), "equality_injected": eq}


def _check_lemma3(inputs: dict) -> BoundReport:
    a, _ = inputs["a"]
    b, _ = inputs["b"]
    return lemma3_check(a, b)


def _gen_lemma4(rng, i: int) -> dict:
    eq = i % _EQUALITY_EVERY == 0
    dim = DIMS_CYCLE[i % 8]
    if eq:
        a = np.eye(dim)
    else:
        a = _pd_from_rng(rng, dim, CONDITION_CAPS[i % 3])
    return {"a": (a, None), "equality_injected": eq}


def _check_lemma4(inputs: dict) -> BoundReport:
    a, _ = inputs["a"]
    return lemma4_check(a)


def _uniform_support(rng, n: int, zeros: int) -> np.ndarray:
    p = np.zeros(n)
    p[: n - zeros] = 1.0 / (n - zeros)
    rng.shuffle(p)
    return p


def _gen_t1(rng, i: int) -> dict:
    eq = i % _EQUALITY_EVERY == 0
    n = DIMS_CYCLE[i % 8]
    beta = ORDERS_CYCLE[i % 7]
    zeros = int(rng.integers(0, n))
    p = _uniform_support(rng, n, zeros) if eq else _simplex_from_rng(rng, n, zeros)
    return {"p": p, "beta": beta, "equality_injected": eq}


def _stacked(batch: list[dict], kernel: Callable) -> list[np.ndarray]:
    """Evaluate ``kernel(p, beta)`` once per stack of same-length distributions.

    Groups the batch by vector length and validates each stack once; returns
    the arrays ``kernel`` gives, with one entry per trial in batch order.
    """
    groups: dict[int, list[int]] = {}
    for i, inputs in enumerate(batch):
        groups.setdefault(len(inputs["p"]), []).append(i)
    columns: list[np.ndarray] = []
    for idx in groups.values():
        p = probability_vector([batch[i]["p"] for i in idx])
        beta = _check_beta([batch[i]["beta"] for i in idx])
        values = kernel(p, beta)
        columns = columns or [np.empty(len(batch)) for _ in values]
        for column, value in zip(columns, values):
            column[idx] = value
    return columns


def _check_t1(batch: list[dict]) -> Verdict:
    h, bound, beta = _stacked(
        batch, lambda p, beta: (_renyi_entropy(p, beta), _t1_bound(p, beta), beta)
    )
    # a lower bound below order one, an upper bound above it
    below = beta < 1.0
    parts = [("t1", np.where(below, bound, h), np.where(below, h, bound))]
    return _chain_verdict("t1", parts, {"entropy": h, "bound": bound})


def _gen_t2_2(rng, i: int) -> dict:
    eq = i % _EQUALITY_EVERY == 0
    n = DIMS_CYCLE[i % 8]
    beta = ORDERS_BELOW_ONE[i % 3]
    zeros = int(rng.integers(0, n))
    p = _uniform_support(rng, n, zeros) if eq else _simplex_from_rng(rng, n, zeros)
    return {"p": p, "beta": beta, "equality_injected": eq}


def _check_t2_2(batch: list[dict]) -> Verdict:
    h, bound = _stacked(
        batch,
        lambda p, beta: (
            _entropy_type_beta(p, beta),
            _product_bound(p, _check_product_beta(beta)),
        ),
    )
    parts = [("nonneg", np.zeros_like(h), h), ("product", bound, h)]
    return _chain_verdict("t2_2", parts, {"bound": bound})


def _gen_t3(rng, i: int) -> dict:
    eq = i % _EQUALITY_EVERY == 0
    dim = DIMS_CYCLE[i % 8]
    alpha = ORDERS_CYCLE[i % 7]
    rank = int(rng.integers(1, dim + 1))
    if eq:
        basis = _basis_from_rng(rng, dim)
        w = np.zeros(dim)
        w[:rank] = 1.0 / rank
        m = (basis * w) @ basis.conj().T
        rho = (m + m.conj().T) / 2.0
    else:
        rho = _density_from_rng(rng, dim, rank)
    return {"rho": (rho, None), "alpha": alpha, "equality_injected": eq}


def _check_t3(inputs: dict) -> BoundReport:
    m, dims = inputs["rho"]
    return t3_bound(DensityMatrix(m, dims=dims), float(inputs["alpha"]))


def _check_t3_2(inputs: dict) -> BoundReport:
    m, dims = inputs["rho"]
    return log_dim_cap(DensityMatrix(m, dims=dims), float(inputs["alpha"]))


def _gen_t3_2(rng, i: int) -> dict:
    eq = i % _EQUALITY_EVERY == 0
    dim = DIMS_CYCLE[i % 8]
    alpha = ORDERS_CYCLE[i % 7]
    if eq:
        rho = np.eye(dim) / dim
    else:
        rho = _density_from_rng(rng, dim, int(rng.integers(1, dim + 1)))
    return {"rho": (rho, None), "alpha": alpha, "equality_injected": eq}


def _gen_t4(rng, i: int) -> dict:
    eq = i % _EQUALITY_EVERY == 0
    dim = DIMS_CYCLE[i % 8]
    alpha = ORDERS_ABOVE_ONE[i % 4]
    if eq:
        # maximally mixed against a scaled identity: the bound is exactly
        # tight there and the proportionality flag fires
        rho = np.eye(dim) / dim
        sigma = rng.uniform(0.5, 2.0) * np.eye(dim)
    else:
        rho = _density_from_rng(rng, dim, dim)
        sigma = _pd_from_rng(rng, dim, CONDITION_CAPS[i % 3])
    return {
        "rho": (rho, None),
        "sigma": (sigma, None),
        "alpha": alpha,
        "equality_injected": eq,
    }


def _check_t4(inputs: dict) -> BoundReport:
    rho, dims = inputs["rho"]
    sigma, _ = inputs["sigma"]
    return t4_lower_bound(DensityMatrix(rho, dims=dims), sigma, float(inputs["alpha"]))


def _gen_triangle(rng, i: int) -> dict:
    eq = i % _EQUALITY_EVERY == 0
    dim = 1 if eq else DIMS_CYCLE[i % 8]
    alpha = ORDERS_ABOVE_ONE[i % 4]
    rho = np.array([[1.0]]) if eq else _density_from_rng(rng, dim, dim)
    sigma = (
        np.array([[rng.uniform(0.5, 2.0)]])
        if eq
        else _pd_from_rng(rng, dim, CONDITION_CAPS[i % 3])
    )
    return {
        "rho": (rho, None),
        "sigma": (sigma, None),
        "alpha": alpha,
        "equality_injected": eq,
    }


def _check_triangle(inputs: dict) -> BoundReport:
    rho, dims = inputs["rho"]
    sigma, _ = inputs["sigma"]
    return triangle_bound_check(
        DensityMatrix(rho, dims=dims), sigma, float(inputs["alpha"])
    )


def _gen_t6(rng, i: int) -> dict:
    eq = i % _EQUALITY_EVERY == 0
    d_a, d_b = T6_DIMS_CYCLE[i % 4]
    alpha = ORDERS_ABOVE_ONE[(i // 4) % 4]
    dim = d_a * d_b
    rho = np.eye(dim) / dim if eq else _density_from_rng(rng, dim, dim)
    return {"rho": (rho, (d_a, d_b)), "alpha": alpha, "equality_injected": eq}


def _check_t6(inputs: dict) -> BoundReport:
    m, dims = inputs["rho"]
    return t6_lower_bound(DensityMatrix(m, dims=dims), float(inputs["alpha"]))


def _gen_info_fn_eq(rng, i: int) -> dict:
    eq = i % _EQUALITY_EVERY == 0
    beta = ORDERS_CYCLE[i % 7]
    if eq:
        x = y = float(rng.uniform(0.0, 0.49))
    else:
        x = float(rng.uniform(0.0, 1.0 - 1e-5))
        y = float(rng.uniform(0.0, 1.0 - 1e-5 - x))
    return {"x": x, "y": y, "beta": beta, "equality_injected": eq}


def _check_info_fn_eq(batch: list[dict]) -> Verdict:
    x, y, beta = (
        np.array([float(inputs[key]) for inputs in batch]) for key in ("x", "y", "beta")
    )
    f = info_function_beta
    lhs = f(x, beta) + np.power(1.0 - x, beta) * f(y / (1.0 - x), beta)
    rhs = f(y, beta) + np.power(1.0 - y, beta) * f(x / (1.0 - y), beta)
    return _identity_verdict("info_fn_eq", lhs, rhs, 1e-9)


def _check_eq4(batch: list[dict]) -> Verdict:
    roundtrip, h = _stacked(
        batch,
        lambda p, beta: (
            _order_from_type(_entropy_type_beta(p, beta), beta),
            _renyi_entropy(p, beta),
        ),
    )
    return _identity_verdict("eq4_roundtrip", roundtrip, h, 1e-10)


def _gen_diag_oracle(rng, i: int) -> dict:
    eq = i % _EQUALITY_EVERY == 0
    n = 2 + (i % 7)
    alpha = ORDERS_CYCLE[i % 7]
    if eq:
        p = np.full(n, 1.0 / n)
        q = np.full(n, 1.0 / n)
    else:
        p = _simplex_from_rng(rng, n, int(rng.integers(0, n // 2 + 1)))
        # keep the reference spectrum comfortably positive definite
        q = 0.99 * _simplex_from_rng(rng, n, 0) + 0.01 / n
    return {"p": p, "q": q, "alpha": alpha, "equality_injected": eq}


def _check_diag_oracle(inputs: dict) -> BoundReport:
    p = probability_vector(inputs["p"])
    q = probability_vector(inputs["q"])
    alpha = float(inputs["alpha"])
    rho = DensityMatrix(np.diag(p))
    h_quantum = quantum_renyi_entropy(rho, alpha, units="bits").value
    h_classical = float(_renyi_entropy(p, np.asarray(alpha)))
    d_quantum = renyi_relative_entropy(rho, np.diag(q), alpha).value
    support = p > 0.0
    d_classical = (
        math.log(float(np.sum(p[support] ** alpha * q[support] ** (1.0 - alpha))))
        / (alpha - 1.0)
    )
    gap_h = -abs(h_quantum - h_classical) / (1.0 + abs(h_classical))
    gap_d = -abs(d_quantum - d_classical) / (1.0 + abs(d_classical))
    gap = min(gap_h, gap_d)
    tolerance = 1e-10
    return BoundReport(
        "diag_oracle",
        h_quantum,
        h_classical,
        gap,
        bool(gap >= -tolerance),
        tolerance,
        {
            "entropy_diff": abs(h_quantum - h_classical),
            "divergence_diff": abs(d_quantum - d_classical),
        },
    )


def _each(check: Callable[[dict], BoundReport]) -> Callable[[list], Verdict]:
    """A batch check that runs a one-trial check on each input in turn and
    reads the verdict arrays off the reports."""

    def kernel(batch: list[dict]) -> Verdict:
        reports = [check(inputs) for inputs in batch]
        return Verdict(
            np.array([r.gap for r in reports], dtype=np.float64),
            np.array([r.equality for r in reports], dtype=bool),
            np.array([r.tolerance for r in reports], dtype=np.float64),
            reports.__getitem__,
        )

    return kernel


@dataclass(frozen=True)
class Suite:
    """``check`` maps a list of trials' inputs to their :class:`Verdict`;
    ``inputs`` maps each input the check reads to its kind, in CLI order."""

    gen: Callable[[np.random.Generator, int], dict]
    check: Callable[[list[dict]], Verdict]
    inputs: dict[str, str]

    def serialize(self, inputs: dict) -> dict:
        """The file-format form of generated inputs, as failure records keep it."""
        kind = self.inputs.get
        return {
            key: matrix_payload(*value) if kind(key) == MATRIX
            else distribution_payload(value) if kind(key) == DISTRIBUTION
            else value
            for key, value in inputs.items()
        }

    def parse(self, inputs: dict) -> dict:
        """Inverse of :meth:`serialize`, validating each payload."""
        kind = self.inputs.get
        return {
            key: matrix_from_payload(value) if kind(key) == MATRIX
            else distribution_from_payload(value) if kind(key) == DISTRIBUTION
            else value
            for key, value in inputs.items()
        }


_PAIR = {"a": MATRIX, "b": MATRIX}
_DIST = {"p": DISTRIBUTION, "beta": NUMBER}
_STATE = {"rho": MATRIX, "alpha": NUMBER}
_STATE_SIGMA = {"rho": MATRIX, "sigma": MATRIX, "alpha": NUMBER}

SUITES: dict[str, Suite] = {
    "lemma2": Suite(_gen_lemma2, _each(_check_lemma2), _PAIR),
    "lemma3": Suite(_gen_lemma3, _each(_check_lemma3), _PAIR),
    "lemma4": Suite(_gen_lemma4, _each(_check_lemma4), {"a": MATRIX}),
    "t1": Suite(_gen_t1, _check_t1, _DIST),
    "t2_2": Suite(_gen_t2_2, _check_t2_2, _DIST),
    "t3": Suite(_gen_t3, _each(_check_t3), _STATE),
    "t3_2": Suite(_gen_t3_2, _each(_check_t3_2), _STATE),
    "t4": Suite(_gen_t4, _each(_check_t4), _STATE_SIGMA),
    "t6": Suite(_gen_t6, _each(_check_t6), _STATE),
    "triangle": Suite(_gen_triangle, _each(_check_triangle), _STATE_SIGMA),
    "info_fn_eq": Suite(
        _gen_info_fn_eq, _check_info_fn_eq, {"x": NUMBER, "y": NUMBER, "beta": NUMBER}
    ),
    "eq4_roundtrip": Suite(_gen_t1, _check_eq4, _DIST),
    "diag_oracle": Suite(
        _gen_diag_oracle,
        _each(_check_diag_oracle),
        {"p": DISTRIBUTION, "q": DISTRIBUTION, "alpha": NUMBER},
    ),
}


@dataclass(frozen=True)
class FailureRecord:
    trial: int
    inputs: dict
    report: BoundReport

    def to_dict(self) -> dict:
        return {
            "trial": self.trial,
            "inputs": self.inputs,
            "report": self.report.to_dict(),
        }


@dataclass(frozen=True)
class SuiteReport:
    name: str
    trials: int
    failures: list[FailureRecord] = field(default_factory=list)
    max_violation: float = 0.0
    elapsed: float = 0.0
    injected_equality: int = 0
    equality_flagged: int = 0

    def to_dict(self) -> dict:
        return {
            "suite": self.name,
            "trials": self.trials,
            "failures": [f.to_dict() for f in self.failures],
            "max_violation": self.max_violation,
            "injected_equality": self.injected_equality,
            "equality_flagged": self.equality_flagged,
        }


def run_suite(
    name: str, trials: int, seed: int, tolerance: float | None = None
) -> SuiteReport:
    """Run ``trials`` randomized instances of one suite.

    A trial fails when its normalized violation ``max(0, -gap)`` exceeds the
    tolerance its verdict carries, or ``tolerance`` when one is given.
    Failures keep the full serialized input and report so they replay
    exactly; other trials are neither serialized nor reported.
    """
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if int(trials) < 0:
        raise BadTrials(f"trials must be >= 0, got {trials}")
    suite = SUITES[name]
    start = time.perf_counter()
    failures: list[FailureRecord] = []
    max_violation = 0.0
    injected = flagged = 0
    rng = derive_rng(seed)
    for first in range(0, int(trials), BLOCK):
        block = range(first, min(first + BLOCK, int(trials)))
        batch = []
        for trial in block:
            rng.bit_generator.state = _substream(seed, trial)
            batch.append(suite.gen(rng, trial))
        verdict = suite.check(batch)
        violation = verdict.violation
        max_violation = max(max_violation, float(violation.max()))
        eq = np.array([bool(inputs.get("equality_injected")) for inputs in batch])
        injected += int(np.count_nonzero(eq))
        flagged += int(np.count_nonzero(verdict.equality[eq]))
        failed = violation > (verdict.tolerance if tolerance is None else tolerance)
        for i in np.flatnonzero(failed).tolist():
            failures.append(
                FailureRecord(first + i, suite.serialize(batch[i]), verdict[i])
            )
    return SuiteReport(
        name=name,
        trials=int(trials),
        failures=failures,
        max_violation=max_violation,
        elapsed=time.perf_counter() - start,
        injected_equality=injected,
        equality_flagged=flagged,
    )


def replay(name: str, inputs: dict) -> BoundReport:
    """Re-run one suite check from a failure record's serialized inputs."""
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}")
    suite = SUITES[name]
    return suite.check([suite.parse(inputs)])[0]
