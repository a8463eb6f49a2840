"""Quantum Renyi entropy of density operators and its spectral bounds.

Entropies are always computed from the (clipped) eigenvalue spectrum, never
from an explicitly powered matrix, by ``linalg.spectral_entropy``, the
package's one Renyi entropy kernel, and default to natural log;
``units="bits"`` rescales by 1/ln 2.  ``_renyi_entropy`` is the one quantum
entropy kernel on a spectrum: ``quantum_renyi_entropy`` is it on
``rho.eigenvalues``, and ``entropy quantum`` it on ``_spectra``, so that
command forms no eigenvectors.  Orders go through
``linalg.check_order``: alpha > 0, with alpha = 1 the kernel's von Neumann
limit for the entropy and ``log_dim_cap``; ``t3_bound`` excludes the band
around 1.  Each bound reads a state's spectrum alone, so its kernel takes a
stack of clipped spectra with one order or one per state, and the public
bound is its kernel on ``rho.eigenvalues``.  A density matrix, or a stack
of them, is checked by ``_density_decompose`` where eigenvectors are read
and by ``_density_values`` (``eigvalsh``) where the spectrum alone is:
the same checks in the same order, with ``_unit_trace`` the one trace
check of both.  Every state is built here, with its tag checked by
``_bipartite_tag``: by the ``DensityMatrix`` constructor and ``_states`` (a
stack) through ``_validated``, or as a spectrum alone by ``_spectra``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, InvalidDensityMatrix
from .linalg import (
    _LN2,
    EQ_TOL,
    NORM_TOL,
    SpectralDecomposition,
    _single,
    check_order,
    clip_spectrum,
    positive_definite,
    psd_decompose,
    spectral_entropy,
    spectral_values,
)
from .report import BoundReport, Verdict, chain, normalized_slack


def _unit_scale(units: str) -> float:
    if units == "nats":
        return 1.0
    if units == "bits":
        return 1.0 / _LN2
    raise ValueError(f"units must be 'nats' or 'bits', got {units!r}")


@dataclass(frozen=True)
class EntropyValue:
    value: float
    units: str
    alpha: float


def _unit_trace(matrix: np.ndarray, w: np.ndarray) -> None:
    """InvalidDensityMatrix unless the validated PSD matrix, or each matrix of
    a stack, has unit trace within NORM_TOL (``w`` its clipped spectra); a
    trace past the float range is not 1, and is rejected without a warning."""
    # no diagonal entry exceeds the largest eigenvalue: below 2**1000 no trace overflows
    with np.errstate(over="ignore") if w.max() > 2.0**1000 else contextlib.nullcontext():
        trace = matrix.trace(axis1=-2, axis2=-1).real
    off = abs(trace - 1.0) > NORM_TOL
    if np.count_nonzero(off):
        raise InvalidDensityMatrix(f"trace is {float(np.extract(off, trace)[0])!r}, not 1")


def _density_decompose(matrix) -> SpectralDecomposition:
    """``psd_decompose`` of a density matrix, or of each matrix of a stack,
    once each has unit trace (``_unit_trace``)."""
    dec = psd_decompose(matrix, "density matrix")
    _unit_trace(dec.matrix, dec.eigenvalues)
    return dec


def _density_values(matrix) -> np.ndarray:
    """The clipped spectrum of a density matrix, or one per matrix of a
    stack, by ``spectral_values``: the checks and errors of
    ``_density_decompose``, in its order, with no eigenvectors formed."""
    a, w = spectral_values(matrix)
    w = clip_spectrum(w, "density matrix")
    _unit_trace(a, w)
    return w


def _bipartite_tag(dims, dim: int) -> tuple[int, int] | None:
    """The ``(d_a, d_b)`` tag of a state of dimension ``dim``, or None for
    none; a tag that is not two positive integers (Python or numpy, not
    bool) multiplying to ``dim`` is a DimensionMismatch."""
    if dims is None:
        return None
    parts = tuple(dims) if isinstance(dims, (tuple, list, np.ndarray)) else ()
    whole = all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in parts)
    tag = tuple(int(x) for x in parts) if whole else ()
    if len(tag) != 2 or min(tag) <= 0 or tag[0] * tag[1] != dim:
        raise DimensionMismatch(f"bipartite tag {dims} incompatible with dimension {dim}")
    return tag


def _validated(matrix, dims) -> tuple[SpectralDecomposition, tuple[int, int] | None]:
    """A state, or stack of states, validated and decomposed as one
    (``_density_decompose``), then its one tag checked: what ``_trusted``
    holds."""
    dec = _density_decompose(matrix)
    return dec, _bipartite_tag(dims, dec.matrix.shape[-1])


@dataclass(frozen=True, eq=False, init=False)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix with its spectrum precomputed.

    The cached spectrum is cleaned by ``linalg.clip_spectrum``: every
    eigenvalue ``<= ZERO_THRESHOLD * w_max`` is exactly 0 (after rejecting
    anything below ``-PSD_TOL``), so support counts, bounds, entropies and
    ``is_positive_definite`` (full support) share one notion of rank.
    ``dims=(d_a, d_b)`` tags a bipartite state.  Frozen plain data, its
    matrix and spectrum read-only; a pickle or copy rebuilds by ``_trusted``.
    The constructor takes one matrix; a bound's kernel also takes a stack of
    states of one shape and one tag, which ``_states`` builds.
    """

    spectrum: SpectralDecomposition
    dims: tuple[int, int] | None

    def __init__(self, matrix, dims: tuple[int, int] | None = None):
        self._hold(*_validated(_single(matrix), dims))

    @classmethod
    def _trusted(cls, spectrum: SpectralDecomposition, dims) -> DensityMatrix:
        """The state, or stack of states, of a ``_density_decompose`` result
        and a tag ``_bipartite_tag`` admitted: nothing is checked again."""
        rho = cls.__new__(cls)
        rho._hold(spectrum, dims)
        return rho

    def _hold(self, dec: SpectralDecomposition, dims) -> None:
        dec.matrix.setflags(write=False)
        dec.eigenvalues.setflags(write=False)
        object.__setattr__(self, "spectrum", dec)
        object.__setattr__(self, "dims", dims)

    def __reduce__(self):
        return DensityMatrix._trusted, (self.spectrum, self.dims)

    @property
    def matrix(self) -> np.ndarray:
        return self.spectrum.matrix

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectrum.eigenvalues

    @property
    def dim(self) -> int:
        return self.spectrum.matrix.shape[-1]

    @property
    def is_positive_definite(self) -> bool:
        return bool(positive_definite(self.eigenvalues))

    def __repr__(self):
        tag = f", dims={self.dims}" if self.dims else ""
        return f"DensityMatrix(dim={self.dim}{tag})"


def _states(stack: np.ndarray, dims) -> DensityMatrix:
    """A group's states as one ``DensityMatrix``, validated and decomposed
    as one stack, then its one dims tag checked."""
    return DensityMatrix._trusted(*_validated(stack, dims))


def _spectra(stack: np.ndarray, dims) -> np.ndarray:
    """A group's states, or one state, as their clipped spectra alone,
    validated as one stack, then its one dims tag checked, which no spectrum
    reads."""
    w = _density_values(stack)
    _bipartite_tag(dims, stack.shape[-1])
    return w


def von_neumann_entropy(rho: DensityMatrix, units: str = "nats") -> float:
    """``-tr rho ln rho``: the entropy of the spectrum at order 1."""
    return float(spectral_entropy(rho.eigenvalues, 1.0)) * _unit_scale(units)


def quantum_renyi_entropy(
    rho: DensityMatrix, alpha: float, units: str = "nats"
) -> EntropyValue:
    """``H_alpha(rho) = (1-alpha)^(-1) log tr rho^alpha``, the von Neumann
    limit at ``alpha = 1``: ``_renyi_entropy`` on ``rho.eigenvalues``."""
    return _renyi_entropy(rho.eigenvalues, alpha, units)


def _renyi_entropy(w: np.ndarray, alpha: float, units: str) -> EntropyValue:
    """The one quantum Renyi entropy kernel, on a state's clipped spectrum
    ``w`` (``rho.eigenvalues``, or ``_density_values`` without eigenvectors)."""
    scale = _unit_scale(units)
    alpha = float(check_order(alpha, "alpha", one=True))
    return EntropyValue(float(spectral_entropy(w, alpha)) * scale, units, alpha)


def _log_dim_cap(w: np.ndarray, alpha) -> Verdict:
    """The dimension cap on the clipped spectrum of a state, or on each of a
    stack, at the entropy's orders."""
    w = np.atleast_2d(w)
    n = w.shape[-1]
    h = spectral_entropy(w, check_order(alpha, "alpha", one=True))
    cap = np.full(len(w), math.log(n))
    return chain("t3_2", [("cap", h, cap)], {"entropy": h, "dim": np.full(len(w), n)})


def log_dim_cap(rho: DensityMatrix, alpha: float) -> BoundReport:
    """Dimension cap ``H_alpha(rho) <= ln d``, in nats, at the entropy's orders."""
    return _log_dim_cap(rho.eigenvalues, alpha)[0]


def _t3(w: np.ndarray, alpha) -> Verdict:
    """The spectral support bound and the cap on the clipped spectrum of a
    state, or on each of a stack, at one order or one per state.

    Over the support of size m, ``ln m/(1-alpha) + alpha/(1-alpha) * mean
    ln w'_i`` tends to ``-mean ln w'_i`` as alpha grows instead of
    overflowing; ``d0`` counts the zero eigenvalues.
    """
    alpha = check_order(alpha, "alpha")
    w = np.atleast_2d(w)
    n = w.shape[-1]
    support = w > 0.0
    m = np.count_nonzero(support, axis=-1)
    mean_log = np.sum(np.log(np.where(support, w, 1.0)), axis=-1) / m
    ln_m = np.array([math.log(k) for k in m.tolist()])
    bound = ln_m / (1.0 - alpha) + alpha / (1.0 - alpha) * mean_log
    h = spectral_entropy(w, alpha)
    cap = np.full(len(w), math.log(n))
    below = alpha < 1.0
    parts = [("t3", np.where(below, bound, h), np.where(below, h, bound)), ("cap", h, cap)]
    # only the support bound counts towards equality, not the cap
    eq = np.abs(normalized_slack(*parts[0][1:])) <= EQ_TOL
    return chain("t3", parts, {"bound": bound, "entropy": h, "cap": cap, "d0": n - m}, eq)


def t3_bound(rho: DensityMatrix, alpha: float) -> BoundReport:
    """Spectral support bound on the quantum Renyi entropy, in nats.

    For 0 < alpha < 1 the bound sits below ``H_alpha`` and the dimension cap
    above it (the sandwich); for alpha > 1 the bound is an upper bound.  The
    report carries both parts, with the cap always included.
    """
    return _t3(rho.eigenvalues, alpha)[0]
