"""Entropies of discrete probability distributions.

Implements the information function of type beta, the entropy of type beta
(closed form and the defining chain form), the Renyi entropy of order beta
in bits, the order/type transform, and the support-based bounds.  Base-2
logarithms throughout, matching the classical definitions.  The Renyi and
Shannon entropies are ``linalg.spectral_entropy``, the package's one Renyi
entropy kernel, over ln 2.

The closed forms are array-aware: a distribution may be a stack of vectors
along the last axis, with one order per vector (or one order for all), and
the result then has one entry per vector.  A single 1-D vector with a scalar
order gives a Python float.  Each public function validates its inputs and
hands them to a private kernel; the suite checks validate a stack once and
call the kernels directly.  ``linalg.check_order`` admits beta > 0 off the
band around 1; :func:`renyi_entropy` takes beta = 1 as the Shannon limit, and
the product bound takes 0 < beta < 1 only.  Every sum along a vector runs
left to right (``linalg._row_sum``, which the kernel uses too), so a vector
zero-padded into a wider stack gives the bits it gives alone.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DomainError, InvalidDistribution
from .linalg import (
    _LN2,
    NORM_TOL,
    ZERO_THRESHOLD,
    _power,
    _row_sum,
    check_order,
    spectral_entropy,
)


def _first(values: np.ndarray, bad: np.ndarray) -> float:
    """The first offending entry, for an error message."""
    return float(values[bad].flat[0])


def _value(x):
    """A 0-d result as a Python float; a stacked result as is."""
    return float(x) if np.ndim(x) == 0 else x


def probability_vector(values) -> np.ndarray:
    """Validate a probability vector, or a stack of them along the last axis.

    Negative dust in ``[-ZERO_THRESHOLD, 0)`` is zeroed.
    """
    p = np.array(values, dtype=np.float64)
    if p.ndim == 0 or p.shape[-1] == 0:
        raise InvalidDistribution("distribution must be a non-empty 1-D vector")
    if not np.all(np.isfinite(p)):
        raise InvalidDistribution("distribution contains non-finite entries")
    low = float(p.min(initial=0.0))
    if low < -ZERO_THRESHOLD:
        raise InvalidDistribution(f"negative probability {low:.3e}")
    p[p < 0.0] = 0.0
    with np.errstate(over="ignore"):  # a sum past the float range is not 1
        total = _row_sum(p)
    off = np.abs(total - 1.0) > NORM_TOL
    if off.any():
        raise InvalidDistribution(f"probabilities sum to {_first(total, off)!r}, not 1")
    return p


def _type_scale(beta: np.ndarray) -> np.ndarray:
    """The normalization ``2^(1-beta) - 1`` shared by the type-beta forms."""
    return _power(2.0, 1.0 - beta) - 1.0


def _log2_support(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Support size ``n - n0`` and ``sum log2 p'_i`` over the support, per row."""
    mask = p > ZERO_THRESHOLD
    return mask.sum(axis=-1), _row_sum(np.log2(np.where(mask, p, 1.0)))


def _info_function(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    value = (_power(x, beta) + _power(1.0 - x, beta) - 1.0) / _type_scale(beta)
    return np.where(x == 0.5, 1.0, value)


def info_function_beta(x, beta):
    """Information function of type beta on [0, 1].

    Closed form ``(2^(1-beta) - 1)^(-1) [x^beta + (1-x)^beta - 1]``.  The
    boundary values f(0) = f(1) = 0 come out exact; x = 1/2 is pinned to 1
    so the defining normalization holds exactly in floating point.  ``x``
    and ``beta`` broadcast against each other.
    """
    beta = check_order(beta, "beta")
    x = np.asarray(x, dtype=np.float64)
    bad = ~((x >= 0.0) & (x <= 1.0))
    if bad.any():
        raise DomainError(f"x must lie in [0, 1], got {_first(x, bad)!r}")
    return _value(_info_function(x, beta))


def _entropy_type_beta(p: np.ndarray, beta: np.ndarray) -> np.ndarray:
    return (_row_sum(_power(p, beta[..., None])) - 1.0) / _type_scale(beta)


def entropy_type_beta(p, beta):
    """Entropy of type beta: ``(2^(1-beta) - 1)^(-1) (sum p_i^beta - 1)``."""
    p = probability_vector(p)
    return _value(_entropy_type_beta(p, check_order(beta, "beta")))


def entropy_type_beta_chain(p, beta: float) -> float:
    """Entropy of type beta via the defining chain sum.

    ``sum_{i>=2} s_i^beta f(p_i / s_i)`` with ``s_i`` the running prefix sum;
    terms with ``s_i == 0`` contribute nothing.  Kept as the definitional
    oracle for the closed form.
    """
    beta = float(check_order(beta, "beta"))
    p = probability_vector(p)
    s = np.cumsum(p)
    total = 0.0
    for i in range(1, p.size):
        si = float(s[i])
        if si == 0.0:
            continue
        total += si**beta * info_function_beta(float(p[i]) / si, beta)
    return total


def shannon_entropy(p):
    """Shannon entropy in bits with the 0 log 0 = 0 convention."""
    return _value(spectral_entropy(probability_vector(p), 1.0) / _LN2)


def _renyi_entropy(p: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``(1-beta)^(-1) log2 sum p_i^beta``: ``linalg.spectral_entropy`` in bits."""
    return spectral_entropy(p, beta) / _LN2


def renyi_entropy(p, beta):
    """Renyi entropy of order beta in bits; beta = 1 is the Shannon limit."""
    p = probability_vector(p)
    return _value(_renyi_entropy(p, check_order(beta, "beta", one=True)))


def _t1_bound(p: np.ndarray, beta: np.ndarray) -> np.ndarray:
    m, log_sum = _log2_support(p)
    return np.log2(m) / (1.0 - beta) + beta / (1.0 - beta) * (log_sum / m)


def t1_bound(p, beta):
    """Support-based bound on the order-beta entropy, in bits.

    ``(1-beta)^(-1) log2(n - n0) + beta/(1-beta) * mean log2 p'_i`` over the
    support: a lower bound on the Renyi entropy for 0 < beta < 1 and an
    upper bound for beta > 1.  Written with ``beta/(1-beta)`` so it tends to
    ``-mean log2 p'_i`` as beta grows instead of overflowing.
    """
    beta = check_order(beta, "beta")
    return _value(_t1_bound(probability_vector(p), beta))


def _product_bound(p: np.ndarray, beta: np.ndarray) -> np.ndarray:
    m, log_sum = _log2_support(p)
    return (m * _power(2.0, beta * log_sum / m) - 1.0) / _type_scale(beta)


def type_beta_product_bound(p, beta):
    """Product-of-support companion bound for the entropy of type beta.

    ``(2^(1-beta) - 1)^(-1) [(n - n0) (prod p'_i)^(beta/(n - n0)) - 1]`` for
    0 < beta < 1.  This is the image of :func:`t1_bound` under the
    order-from-type transform, hence a lower bound on the type-beta entropy,
    tight exactly when the support is uniform.
    """
    beta = check_order(beta, "beta", high=1.0, one=True)
    return _value(_product_bound(probability_vector(p), beta))


def _order_from_type(h_type: np.ndarray, beta: np.ndarray) -> np.ndarray:
    arg = _type_scale(beta) * h_type + 1.0
    bad = arg <= 0.0
    if bad.any():
        raise DomainError(f"transform argument {_first(arg, bad)!r} is not positive")
    return np.log2(arg) / (1.0 - beta)


def order_from_type(h_type, beta):
    """Map an entropy-of-type-beta value to the order-beta (Renyi) scale."""
    beta = check_order(beta, "beta")
    return _value(_order_from_type(np.asarray(h_type, dtype=np.float64), beta))
