"""Entropies of discrete probability distributions.

Implements the information function of type beta, the entropy of type beta
(closed form and the defining chain form), the Renyi entropy of order beta
in bits, the order/type transform, and the support-based bounds.  Base-2
logarithms throughout, matching the classical definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    BetaOne,
    BetaOutOfRange,
    DomainError,
    EmptySupport,
    InvalidDistribution,
)
from .linalg import NORM_TOL, ORDER_ONE_BAND, ZERO_THRESHOLD, log_power_sum

CLIP_FLOOR = -1e-12

_LN2 = math.log(2.0)


def probability_vector(values) -> np.ndarray:
    """Validate a probability vector; negative dust in [-1e-12, 0) is zeroed."""
    p = np.array(values, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise InvalidDistribution("distribution must be a non-empty 1-D vector")
    if not np.all(np.isfinite(p)):
        raise InvalidDistribution("distribution contains non-finite entries")
    if float(p.min(initial=0.0)) < CLIP_FLOOR:
        raise InvalidDistribution(f"negative probability {p.min():.3e}")
    p[p < 0.0] = 0.0
    total = float(p.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise InvalidDistribution(f"probabilities sum to {total!r}, not 1")
    return p


@dataclass(frozen=True)
class SupportStats:
    """Support bookkeeping: ``n0`` entries at (or below) the zero threshold."""

    n: int
    n0: int
    support: np.ndarray


def support_stats(p: np.ndarray) -> SupportStats:
    mask = p > ZERO_THRESHOLD
    return SupportStats(n=int(p.size), n0=int(p.size - mask.sum()), support=p[mask])


def _check_beta(beta: float, require_not_one: bool = True) -> float:
    beta = float(beta)
    if not np.isfinite(beta) or beta <= 0.0:
        raise BetaOutOfRange(f"beta must be a positive real, got {beta!r}")
    if require_not_one and abs(beta - 1.0) < ORDER_ONE_BAND:
        raise BetaOne("beta = 1 is not admitted here; use the Shannon limit")
    return beta


def info_function_beta(x: float, beta: float) -> float:
    """Information function of type beta on [0, 1].

    Closed form ``(2^(1-beta) - 1)^(-1) [x^beta + (1-x)^beta - 1]``.  The
    boundary values f(0) = f(1) = 0 come out exact; x = 1/2 is pinned to 1
    so the defining normalization holds exactly in floating point.
    """
    beta = _check_beta(beta)
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.5:
        return 1.0
    return (x**beta + (1.0 - x) ** beta - 1.0) / (2.0 ** (1.0 - beta) - 1.0)


def entropy_type_beta(p, beta: float) -> float:
    """Entropy of type beta: ``(2^(1-beta) - 1)^(-1) (sum p_i^beta - 1)``."""
    beta = _check_beta(beta)
    p = probability_vector(p)
    return float((np.sum(p**beta) - 1.0) / (2.0 ** (1.0 - beta) - 1.0))


def entropy_type_beta_chain(p, beta: float) -> float:
    """Entropy of type beta via the defining chain sum.

    ``sum_{i>=2} s_i^beta f(p_i / s_i)`` with ``s_i`` the running prefix sum;
    terms with ``s_i == 0`` contribute nothing.  Kept as the definitional
    oracle for the closed form.
    """
    beta = _check_beta(beta)
    p = probability_vector(p)
    s = np.cumsum(p)
    total = 0.0
    for i in range(1, p.size):
        si = float(s[i])
        if si == 0.0:
            continue
        total += si**beta * info_function_beta(float(p[i]) / si, beta)
    return total


def shannon_entropy(p) -> float:
    """Shannon entropy in bits with the 0 log 0 = 0 convention."""
    p = probability_vector(p)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def renyi_entropy(p, beta: float) -> float:
    """Renyi entropy of order beta in bits; beta = 1 is the Shannon limit."""
    p = probability_vector(p)
    beta = _check_beta(beta, require_not_one=False)
    if abs(beta - 1.0) < ORDER_ONE_BAND:
        return shannon_entropy(p)
    return log_power_sum(p, beta) / ((1.0 - beta) * _LN2)


def t1_bound(p, beta: float) -> float:
    """Support-based bound on the order-beta entropy, in bits.

    ``(1-beta)^(-1) (log2(n - n0) + beta/(n - n0) * sum log2 p'_i)``: a lower
    bound on the Renyi entropy for 0 < beta < 1 and an upper bound for
    beta > 1.
    """
    beta = _check_beta(beta)
    stats = support_stats(probability_vector(p))
    if stats.support.size == 0:
        raise EmptySupport("distribution has no entry above the zero threshold")
    m = stats.n - stats.n0
    mean_log = float(np.sum(np.log2(stats.support))) / m
    return (np.log2(m) + beta * mean_log) / (1.0 - beta)


def type_beta_product_bound(p, beta: float) -> float:
    """Product-of-support companion bound for the entropy of type beta.

    ``(2^(1-beta) - 1)^(-1) [(n - n0) (prod p'_i)^(beta/(n - n0)) - 1]`` for
    0 < beta < 1.  This is the image of :func:`t1_bound` under the
    order-from-type transform, hence a lower bound on the type-beta entropy,
    tight exactly when the support is uniform.
    """
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise BetaOutOfRange(f"bound is defined for 0 < beta < 1, got {beta!r}")
    stats = support_stats(probability_vector(p))
    if stats.support.size == 0:
        raise EmptySupport("distribution has no entry above the zero threshold")
    m = stats.n - stats.n0
    geo = 2.0 ** (beta * float(np.sum(np.log2(stats.support))) / m)
    return (m * geo - 1.0) / (2.0 ** (1.0 - beta) - 1.0)


def order_from_type(h_type: float, beta: float) -> float:
    """Map an entropy-of-type-beta value to the order-beta (Renyi) scale."""
    beta = _check_beta(beta)
    arg = (2.0 ** (1.0 - beta) - 1.0) * float(h_type) + 1.0
    if arg <= 0.0:
        raise DomainError(f"transform argument {arg!r} is not positive")
    return float(np.log2(arg) / (1.0 - beta))
