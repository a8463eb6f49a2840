"""Quantum Renyi entropy of density operators and its spectral bounds.

Entropies are always computed from the (clipped) eigenvalue spectrum, never
from an explicitly powered matrix, and default to natural log; ``units="bits"``
rescales by 1/ln 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    AlphaOne,
    AlphaOutOfRange,
    DimensionMismatch,
    InvalidDensityMatrix,
    NotPsd,
)
from .linalg import (
    EQ_TOL,
    CHAIN_TOL,
    NORM_TOL,
    ORDER_ONE_BAND,
    PSD_TOL,
    ZERO_THRESHOLD,
    SpectralDecomposition,
    log_power_sum,
    spectral_decompose,
)
from .report import BoundReport, chain_report, normalized_slack

_LN2 = math.log(2.0)


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


class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix with its spectrum precomputed.

    Eigenvalues below ``ZERO_THRESHOLD`` in the cached spectrum are treated
    as structural zeros and set to exactly 0 (after rejecting anything below
    ``-PSD_TOL``), so support counts, bounds, and entropies all share one
    notion of rank.  ``dims=(d_a, d_b)`` optionally tags the matrix as a
    bipartite state.  Instances are immutable.
    """

    __slots__ = ("_matrix", "_spectrum", "_dims")

    def __init__(self, matrix, dims: tuple[int, int] | None = None):
        dec = spectral_decompose(matrix)
        a, w = dec.matrix, dec.eigenvalues
        if float(w[0]) < -PSD_TOL:
            raise NotPsd(f"density matrix has eigenvalue {w[0]:.3e}")
        w = w.copy()
        w[w <= ZERO_THRESHOLD] = 0.0
        trace = float(np.trace(a).real)
        if abs(trace - 1.0) > NORM_TOL:
            raise InvalidDensityMatrix(f"trace is {trace!r}, not 1")
        if dims is not None:
            d_a, d_b = int(dims[0]), int(dims[1])
            if d_a <= 0 or d_b <= 0 or d_a * d_b != a.shape[0]:
                raise DimensionMismatch(
                    f"bipartite tag {dims} incompatible with dimension {a.shape[0]}"
                )
            dims = (d_a, d_b)
        a.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "_matrix", a)
        object.__setattr__(
            self, "_spectrum", SpectralDecomposition(w, dec.eigenvectors, dec.sweeps, a)
        )
        object.__setattr__(self, "_dims", dims)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def spectrum(self) -> SpectralDecomposition:
        return self._spectrum

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._spectrum.eigenvalues

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def dims(self) -> tuple[int, int] | None:
        return self._dims

    @property
    def is_positive_definite(self) -> bool:
        return float(self.eigenvalues[0]) > PSD_TOL

    def __repr__(self):
        tag = f", dims={self._dims}" if self._dims else ""
        return f"DensityMatrix(dim={self.dim}{tag})"


def _check_alpha(alpha: float, require_not_one: bool = True) -> float:
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha <= 0.0:
        raise AlphaOutOfRange(f"alpha must be a positive real, got {alpha!r}")
    if require_not_one and abs(alpha - 1.0) < ORDER_ONE_BAND:
        raise AlphaOne("alpha = 1 is not admitted here")
    return alpha


def von_neumann_entropy(rho: DensityMatrix, units: str = "nats") -> float:
    w = rho.eigenvalues
    nz = w[w > 0.0]
    return float(-np.sum(nz * np.log(nz))) * _unit_scale(units)


def quantum_renyi_entropy(
    rho: DensityMatrix, alpha: float, units: str = "nats"
) -> EntropyValue:
    """``H_alpha(rho) = (1-alpha)^(-1) log tr rho^alpha`` from the spectrum.

    ``alpha = 1`` returns the von Neumann limit.
    """
    scale = _unit_scale(units)
    alpha = _check_alpha(alpha, require_not_one=False)
    if abs(alpha - 1.0) < ORDER_ONE_BAND:
        return EntropyValue(von_neumann_entropy(rho, units), units, alpha)
    value = log_power_sum(rho.eigenvalues, alpha) / (1.0 - alpha)
    return EntropyValue(value * scale, units, alpha)


def _support_bound(w: np.ndarray, alpha: float) -> tuple[float, int]:
    """Spectral support bound in nats plus the zero count ``d0``.

    ``ln m/(1-alpha) + alpha/(1-alpha) * mean ln w'_i`` over the support of
    size m tends to ``-mean ln w'_i`` as alpha grows instead of overflowing.
    """
    support = w[w > ZERO_THRESHOLD]
    d0 = int(w.size - support.size)
    m = support.size
    mean_log = float(np.sum(np.log(support))) / m
    bound = math.log(m) / (1.0 - alpha) + alpha / (1.0 - alpha) * mean_log
    return bound, d0


def log_dim_cap(rho: DensityMatrix, alpha: float) -> BoundReport:
    """Dimension cap ``H_alpha(rho) <= ln d``, in nats."""
    alpha = _check_alpha(alpha, require_not_one=False)
    h = quantum_renyi_entropy(rho, alpha).value
    cap = math.log(rho.dim)
    eq = abs(normalized_slack(h, cap)) <= EQ_TOL
    return chain_report(
        "t3_2", [("cap", h, cap)], CHAIN_TOL, eq, extras={"entropy": h, "dim": rho.dim}
    )


def t3_bound(rho: DensityMatrix, alpha: float) -> BoundReport:
    """Spectral support bound on the quantum Renyi entropy, in nats.

    For 0 < alpha < 1 the bound sits below ``H_alpha`` and the dimension cap
    above it (the sandwich); for alpha > 1 the bound is an upper bound.  The
    report carries both parts, with the cap always included.
    """
    alpha = _check_alpha(alpha)
    bound, d0 = _support_bound(rho.eigenvalues, alpha)
    h = quantum_renyi_entropy(rho, alpha).value
    cap = math.log(rho.dim)
    if alpha < 1.0:
        parts = [("t3", bound, h), ("cap", h, cap)]
    else:
        parts = [("t3", h, bound), ("cap", h, cap)]
    eq = abs(normalized_slack(*parts[0][1:])) <= EQ_TOL
    return chain_report(
        "t3",
        parts,
        CHAIN_TOL,
        eq,
        extras={"bound": bound, "entropy": h, "cap": cap, "d0": d0},
    )
