"""Random instance generators and the randomized property suites.

Randomness comes from numpy's Philox counter-based generator keyed by
``(seed, stream)``, so every trial owns an order-independent substream and
suite reports are reproducible bit for bit.  :func:`run_suite` builds one
generator and one state dict of Python ints per call; for each trial it
writes the stream word of the key and assigns the state, which restarts the
generator exactly where a fresh ``derive_rng(seed, trial)`` starts.  Where
one draw call gives the same bits as several, a generator draws a trial's
scalars in one call (``uniform(0, h)`` is ``h * random()``).

Each suite knows how to generate one trial's inputs as arrays, and its check
is a kernel over a block of trials that returns a
:class:`~renyi.report.Verdict`: one array per report field and per extra,
one entry per trial.  :func:`run_suite` reduces its gap, equality and
tolerance arrays to the maximum violation, the failure mask and the
equality counts, and builds a trial's :class:`~renyi.report.BoundReport`
(indexing the verdict) only when the trial fails.
The classical checks evaluate each formula once on a block's zero-padded
stack and take their verdict from :func:`renyi.report.chain` or
:func:`renyi.report.identities`.  Every other suite is a kernel suite: it
groups a block by the shapes of its matrices and distributions (and by the
dims tag of a state), runs its kernel once per group and joins the groups'
verdicts: each array and each extra concatenated, then put back in trial
order.  lemma2, lemma3, lemma4, t3, t3_2, t4, t6 and
triangle run their library bound's kernel, whose verdict the public bound
reads as row 0, on each matrix operand as one stack.  A state is built by
what its kernel reads, validated as one stack by :mod:`renyi.quantum`: a
``DensityMatrix`` decomposed as one (``_states``), or for t3 and t3_2 its
clipped ``eigvalsh`` spectra alone (``_spectra``).  ``diag_oracle`` runs its
own kernel on two stacks of distributions, with one order per row.
``bounds`` and :func:`replay` run the same check on a batch of one and
take its report.  A matrix input is an ``(array, dims)`` pair and a
distribution a float array; they are serialized to the CLI file format
only when a failure is recorded, and :func:`replay` parses that form back.
One trial in a hundred is a constructed equality-case instance so the
equality flags get exercised.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .classical import (
    _entropy_type_beta,
    _order_from_type,
    _product_bound,
    _renyi_entropy,
    _t1_bound,
    info_function_beta,
    probability_vector,
)
from .divergence import _petz, _sigma_spectrum, _t4, _t6, _triangle
from .exceptions import BadCap, BadDim, BadRank, BadTrials, BadZeros, UnknownSuite
from .fileformat import (
    distribution_from_payload,
    distribution_payload,
    matrix_from_payload,
    matrix_payload,
)
from .linalg import (
    _lemma2, _lemma3, _lemma4, check_order, psd_decompose, recombine, spectral_entropy
)
from .quantum import DensityMatrix, _log_dim_cap, _spectra, _states, _t3, _unit_scale
from .report import BoundReport, Verdict, chain, chain_gap, identities, identity_gap

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

MATRIX, DISTRIBUTION, NUMBER = "matrix", "distribution", "number"


def _substream(seed: int, stream: int) -> dict:
    """Philox state at the start of the substream keyed by (seed, stream).

    The words are Python ints, which the state setter reads faster than
    numpy arrays; the key is ``[seed word, stream word]``.
    """
    return {
        "bit_generator": "Philox",
        "state": {
            "counter": [0, 0, 0, 0],
            "key": [int(seed) & _MASK64, int(stream) & _MASK64],
        },
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def derive_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream): portable and splittable."""
    rng = np.random.Generator(np.random.Philox(0))
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
    return recombine(basis, rng.uniform(lo, hi, dim))


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
        return recombine(basis, wa), recombine(basis, wb)
    rank_a = int(rng.integers(1, dim + 1))
    rank_b = int(rng.integers(1, dim + 1))
    ga = _ginibre(rng, dim, rank_a)
    gb = _ginibre(rng, dim, rank_b)
    return ga @ ga.conj().T, gb @ gb.conj().T


def _gen_lemma2(rng, i: int) -> dict:
    eq = i % _EQUALITY_EVERY == 0
    a, b = _psd_pair(rng, i, eq)
    return {"a": (a, None), "b": (b, None), "equality_injected": eq}


def _gen_lemma3(rng, i: int) -> dict:
    eq = i % _EQUALITY_EVERY == 0
    if eq:
        dim = DIMS_CYCLE[i % 8]
        basis = _basis_from_rng(rng, dim)
        spectrum = rng.uniform(0.5, 2.0, dim)
        c = rng.uniform(0.5, 3.0)
        a, b = recombine(basis, c / spectrum), recombine(basis, spectrum)
    else:
        a, b = _psd_pair(rng, i, False)
    return {"a": (a, None), "b": (b, None), "equality_injected": eq}


def _gen_lemma4(rng, i: int) -> dict:
    eq = i % _EQUALITY_EVERY == 0
    dim = DIMS_CYCLE[i % 8]
    if eq:
        a = np.eye(dim)
    else:
        a = _pd_from_rng(rng, dim, CONDITION_CAPS[i % 3])
    return {"a": (a, None), "equality_injected": eq}


def _uniform_support(rng, n: int, zeros: int) -> np.ndarray:
    p = np.zeros(n)
    p[: n - zeros] = 1.0 / (n - zeros)
    rng.shuffle(p)
    return p


def _gen_distribution(orders: tuple) -> Callable[[np.random.Generator, int], dict]:
    """Trial ``i`` draws a distribution of length ``DIMS_CYCLE[i % 8]``, uniform
    on its support in the equality cases, at order ``orders[i % len(orders)]``."""

    def gen(rng, i: int) -> dict:
        eq = i % _EQUALITY_EVERY == 0
        n = DIMS_CYCLE[i % 8]
        zeros = int(rng.integers(0, n))
        p = _uniform_support(rng, n, zeros) if eq else _simplex_from_rng(rng, n, zeros)
        return {"p": p, "beta": orders[i % len(orders)], "equality_injected": eq}

    return gen


def _stacked(batch: list[dict], kernel: Callable, high: float = math.inf) -> list[np.ndarray]:
    """Evaluate ``kernel(p, beta)`` once on the batch, validated as one
    ``(trials, longest)`` stack with each distribution zero-padded on the
    right, and its orders as one array in ``(0, high)``: a zero lies off the
    support and every row sum in :mod:`renyi.classical` runs left to right,
    so padding changes no bit."""
    sizes = np.array([len(x["p"]) for x in batch])
    p = np.zeros((len(batch), sizes.max()))
    p[np.arange(p.shape[1]) < sizes[:, None]] = np.concatenate([x["p"] for x in batch])
    beta = check_order([x["beta"] for x in batch], "beta", high=high)
    return kernel(probability_vector(p), beta)


def _check_t1(batch: list[dict]) -> Verdict:
    h, bound, beta = _stacked(
        batch, lambda p, beta: (_renyi_entropy(p, beta), _t1_bound(p, beta), beta)
    )
    # a lower bound below order one, an upper bound above it
    below = beta < 1.0
    parts = [("t1", np.where(below, bound, h), np.where(below, h, bound))]
    return chain("t1", parts, {"entropy": h, "bound": bound})


def _check_t2_2(batch: list[dict]) -> Verdict:
    h, bound = _stacked(
        batch, lambda p, beta: (_entropy_type_beta(p, beta), _product_bound(p, beta)), high=1.0
    )
    parts = [("nonneg", np.zeros_like(h), h), ("product", bound, h)]
    return chain("t2_2", parts, {"bound": bound})


def _gen_t3(rng, i: int) -> dict:
    eq = i % _EQUALITY_EVERY == 0
    dim = DIMS_CYCLE[i % 8]
    alpha = ORDERS_CYCLE[i % 7]
    rank = int(rng.integers(1, dim + 1))
    if eq:
        basis = _basis_from_rng(rng, dim)
        w = np.zeros(dim)
        w[:rank] = 1.0 / rank
        rho = recombine(basis, w)
    else:
        rho = _density_from_rng(rng, dim, rank)
    return {"rho": (rho, None), "alpha": alpha, "equality_injected": eq}


def _gen_t3_2(rng, i: int) -> dict:
    eq = i % _EQUALITY_EVERY == 0
    dim = DIMS_CYCLE[i % 8]
    alpha = ORDERS_CYCLE[i % 7]
    if eq:
        rho = np.eye(dim) / dim
    else:
        rho = _density_from_rng(rng, dim, int(rng.integers(1, dim + 1)))
    return {"rho": (rho, None), "alpha": alpha, "equality_injected": eq}


def _gen_state_sigma(equality_dim: int | None) -> Callable[[np.random.Generator, int], dict]:
    """Trial ``i`` draws a full-rank state and a PD sigma of dimension
    ``DIMS_CYCLE[i % 8]`` at order ``ORDERS_ABOVE_ONE[i % 4]``.  An equality
    case is the maximally mixed state against a scaled identity, where t4's
    bound is exactly tight and its proportionality flag fires; it has
    dimension ``equality_dim`` when one is given (1 for the triangle, whose
    two sides meet there)."""

    def gen(rng, i: int) -> dict:
        eq = i % _EQUALITY_EVERY == 0
        dim = equality_dim if eq and equality_dim else DIMS_CYCLE[i % 8]
        alpha = ORDERS_ABOVE_ONE[i % 4]
        if eq:
            rho = np.eye(dim) / dim
            sigma = rng.uniform(0.5, 2.0) * np.eye(dim)
        else:
            rho = _density_from_rng(rng, dim, dim)
            sigma = _pd_from_rng(rng, dim, CONDITION_CAPS[i % 3])
        return {"rho": (rho, None), "sigma": (sigma, None), "alpha": alpha,
                "equality_injected": eq}

    return gen


def _gen_t6(rng, i: int) -> dict:
    eq = i % _EQUALITY_EVERY == 0
    d_a, d_b = T6_DIMS_CYCLE[i % 4]
    alpha = ORDERS_ABOVE_ONE[(i // 4) % 4]
    dim = d_a * d_b
    rho = np.eye(dim) / dim if eq else _density_from_rng(rng, dim, dim)
    return {"rho": (rho, (d_a, d_b)), "alpha": alpha, "equality_injected": eq}


def _gen_info_fn_eq(rng, i: int) -> dict:
    eq = i % _EQUALITY_EVERY == 0
    beta = ORDERS_CYCLE[i % 7]
    # uniform(0, h) is h * random() bit for bit, so one call draws both
    if eq:
        x = y = 0.49 * rng.random()
    else:
        u, v = rng.random(2).tolist()
        x = (1.0 - 1e-5) * u
        y = (1.0 - 1e-5 - x) * v
    return {"x": x, "y": y, "beta": beta, "equality_injected": eq}


def _check_info_fn_eq(batch: list[dict]) -> Verdict:
    x, y, beta = (
        np.array([float(inputs[key]) for inputs in batch]) for key in ("x", "y", "beta")
    )
    f = info_function_beta
    lhs = f(x, beta) + np.power(1.0 - x, beta) * f(y / (1.0 - x), beta)
    rhs = f(y, beta) + np.power(1.0 - y, beta) * f(x / (1.0 - y), beta)
    return identities("info_fn_eq", lhs, rhs, 1e-9)


def _check_eq4(batch: list[dict]) -> Verdict:
    roundtrip, h = _stacked(
        batch,
        lambda p, beta: (
            _order_from_type(_entropy_type_beta(p, beta), beta),
            _renyi_entropy(p, beta),
        ),
    )
    return identities("eq4_roundtrip", roundtrip, h, 1e-10)


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


def _diagonals(v: np.ndarray) -> np.ndarray:
    """The stack of ``diag(v_k)`` for the rows ``v_k`` of ``v``: each row times the identity."""
    return v[:, :, None] * np.eye(v.shape[-1])


def _diag_oracle(p, q, alpha) -> Verdict:
    """The quantum entropy and divergence of ``diag(p)`` against ``diag(q)``,
    each an identity with its classical value, for each row of two stacks
    of distributions at one order per row; a row's gap is the smaller one.

    p and q are validated, ``diag(p)`` and ``diag(q)`` decomposed, once each
    as a stack; the quantum entropies come from the stacked spectra and the
    divergences from one stacked ``petz_divergence``.  Each row gives the bits of
    ``quantum_renyi_entropy`` and ``renyi_relative_entropy`` on that trial
    alone, and a trial alone raises their errors in their order.  The
    classical sides are the direct sums ``log2(sum_i p_i^alpha)/(1-alpha)``
    and ``ln(sum_i p_i^alpha q_i^(1-alpha))/(alpha-1)`` over p's support,
    row by row, so the oracle shares no kernel with the library.
    """
    p = probability_vector(p)
    q = probability_vector(q)
    alpha = check_order(alpha, "alpha")
    rho = psd_decompose(_diagonals(p), "density matrix")
    h_quantum = spectral_entropy(rho.eigenvalues, alpha) * _unit_scale("bits")
    d_quantum = _petz(rho, _sigma_spectrum(_diagonals(q), alpha), alpha)[0]
    h_classical, d_classical = np.empty((2, len(p)))
    for k, (x, y, a) in enumerate(zip(p, q, alpha.tolist())):
        terms = x**a
        h_classical[k] = math.log2(terms.sum()) / (1.0 - a)
        # each row sums its support's terms alone, as the classical value is defined
        d_classical[k] = math.log((terms * y ** (1.0 - a))[x > 0.0].sum()) / (a - 1.0)
    # the smaller gap by Python's min rule, as chain_gap takes it
    gap = chain_gap([identity_gap(h_quantum, h_classical), identity_gap(d_quantum, d_classical)])
    diffs = {
        "entropy_diff": np.abs(h_quantum - h_classical),
        "divergence_diff": np.abs(d_quantum - d_classical),
    }
    tolerance = np.full(len(gap), 1e-10)
    equality = gap >= -tolerance
    return Verdict("diag_oracle", h_quantum, h_classical, gap, equality, tolerance, diffs)


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


def _joined(verdicts: list[Verdict], groups: list[list[int]]) -> Verdict:
    """The verdict of a batch from its groups' verdicts, row ``j`` of group
    ``g`` being trial ``groups[g][j]``: each array, and each extra, the
    groups' arrays joined and put back in trial order."""
    at = np.argsort(np.concatenate(groups), kind="stable")

    def join(arrays: list) -> np.ndarray:
        return np.concatenate(arrays)[at]

    fields = ("lhs", "rhs", "gap", "equality", "tolerance")
    return Verdict(
        verdicts[0].name,
        *(join([getattr(v, name) for v in verdicts]) for name in fields),
        {key: join([v.extras[key] for v in verdicts]) for key in verdicts[0].extras},
    )


def _kernel_suite(
    gen, kernel: Callable[..., Verdict], inputs: dict[str, str], rho: Callable = _states
) -> Suite:
    """The suite whose batch check runs ``kernel`` once per group of the
    batch (the trials whose matrices and distributions share their shapes
    and whose ``rho`` shares its dims tag), on its operands in ``inputs``
    order: each matrix is the group's stack of its arrays, ``rho`` what the
    function ``rho`` makes of the stack and the group's tag (``_states``, or
    ``_spectra`` for a kernel that reads the spectrum alone), and each
    distribution and number the group's list of it.  The groups' verdicts
    are joined back in trial order."""

    # each array input, and whether it is a matrix's (array, dims) pair
    arrays = {key: kind == MATRIX for key, kind in inputs.items() if kind != NUMBER}

    def operand(key: str, values: list):
        if inputs[key] != MATRIX:
            return values
        stack = np.stack([array for array, _ in values])
        return rho(stack, values[0][1]) if key == "rho" else stack

    def check(batch: list[dict]) -> Verdict:
        groups: dict = {}
        for i, x in enumerate(batch):
            # a state's dims tag splits its shape group; a list tag is its tuple
            tag = x["rho"][1] if "rho" in inputs else None
            shapes = tuple(np.shape(x[k][0] if pair else x[k]) for k, pair in arrays.items())
            groups.setdefault((shapes, tag if tag is None else tuple(tag)), []).append(i)
        verdicts = [
            kernel(*(operand(key, [batch[i][key] for i in rows]) for key in inputs))
            for rows in groups.values()
        ]
        return _joined(verdicts, list(groups.values()))

    return Suite(gen, check, inputs)


_PAIR = {"a": MATRIX, "b": MATRIX}
_DIST = {"p": DISTRIBUTION, "beta": NUMBER}
_STATE = {"rho": MATRIX, "alpha": NUMBER}
_STATE_SIGMA = {"rho": MATRIX, "sigma": MATRIX, "alpha": NUMBER}

SUITES: dict[str, Suite] = {
    "lemma2": _kernel_suite(_gen_lemma2, _lemma2, _PAIR),
    "lemma3": _kernel_suite(_gen_lemma3, _lemma3, _PAIR),
    "lemma4": _kernel_suite(_gen_lemma4, _lemma4, {"a": MATRIX}),
    "t1": Suite(_gen_distribution(ORDERS_CYCLE), _check_t1, _DIST),
    "t2_2": Suite(_gen_distribution(ORDERS_BELOW_ONE), _check_t2_2, _DIST),
    "t3": _kernel_suite(_gen_t3, _t3, _STATE, _spectra),
    "t3_2": _kernel_suite(_gen_t3_2, _log_dim_cap, _STATE, _spectra),
    "t4": _kernel_suite(_gen_state_sigma(None), _t4, _STATE_SIGMA),
    "t6": _kernel_suite(_gen_t6, _t6, _STATE),
    "triangle": _kernel_suite(_gen_state_sigma(1), _triangle, _STATE_SIGMA),
    "info_fn_eq": Suite(
        _gen_info_fn_eq, _check_info_fn_eq, {"x": NUMBER, "y": NUMBER, "beta": NUMBER}
    ),
    "eq4_roundtrip": Suite(_gen_distribution(ORDERS_CYCLE), _check_eq4, _DIST),
    "diag_oracle": _kernel_suite(
        _gen_diag_oracle, _diag_oracle, {"p": DISTRIBUTION, "q": DISTRIBUTION, "alpha": NUMBER}
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
    # re-key in place: one state dict per call, and per trial only the
    # stream word changes before the state is assigned
    state = _substream(seed, 0)
    key = state["state"]["key"]
    rng = derive_rng(seed)
    bit_generator = rng.bit_generator
    gen = suite.gen
    for first in range(0, int(trials), BLOCK):
        batch = []
        for trial in range(first, min(first + BLOCK, int(trials))):
            key[1] = trial
            bit_generator.state = state
            batch.append(gen(rng, trial))
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
