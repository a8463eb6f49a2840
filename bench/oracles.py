"""Reference values computed independently of the library, with LAPACK.

Every oracle here uses ``numpy.linalg.eigh``/``eigvalsh`` directly and shares
no code path with ``renyi``: the benchmark counts an operation as failed when
the program's answer disagrees with these values.
"""

from __future__ import annotations

import math

import numpy as np

# Accuracy the optimized quantities promise today (the Nelder-Mead spread
# tolerance); the exact Sibson value must lie within OPT_TOL * (1 + |ref|).
OPT_TOL = 1e-4
# Spectral quantities (entropy, divergence) agree with LAPACK far below this.
SPECTRAL_TOL = 1e-8
# Eigenvalues at or below this count as structural zeros, as in the library.
ZERO = 1e-12


def _power(m: np.ndarray, r: float) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    p = np.where(w > ZERO, np.abs(w) ** r, 0.0)
    return (v * p) @ v.conj().T


def sibson_value(rho: np.ndarray, dims: tuple[int, int], alpha: float, mode: str) -> float:
    """Exact optimum of the minimization behind the optimized quantities.

    ``min_sigma D_alpha(rho_AB || ref_A (x) sigma_B) = alpha/(alpha-1) ln tr C_B^(1/alpha)``
    with ``C_B = tr_A[rho_AB^alpha (X_A (x) 1)]`` (Sibson's identity).  ``mode``
    ``"mutual"`` uses ``X_A = rho_A^(1-alpha)`` and returns I_alpha(A;B);
    ``"conditional"`` uses ``X_A = d_A^(alpha-1) 1`` and returns H_alpha(A|B).
    """
    d_a, d_b = dims
    r = _power(rho, alpha).reshape(d_a, d_b, d_a, d_b)
    if mode == "mutual":
        rho_a = np.trace(rho.reshape(d_a, d_b, d_a, d_b), axis1=1, axis2=3)
        x = _power(rho_a, 1.0 - alpha)
    else:
        x = d_a ** (alpha - 1.0) * np.eye(d_a)
    c = np.einsum("abcd,ca->bd", r, x)
    lam = np.clip(np.linalg.eigvalsh((c + c.conj().T) / 2.0), 0.0, None)
    optimum = alpha / (alpha - 1.0) * math.log(float(np.sum(lam ** (1.0 / alpha))))
    return optimum if mode == "mutual" else math.log(d_a) - optimum


def renyi_entropy(rho: np.ndarray, alpha: float) -> float:
    """``H_alpha(rho)`` in nats from ``eigvalsh``."""
    w = np.linalg.eigvalsh(rho)
    w = w[w > ZERO]
    return math.log(float(np.sum(w**alpha))) / (1.0 - alpha)


def renyi_divergence(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """Petz ``D_alpha(rho || sigma)`` in nats from ``eigh``."""
    t = float(np.trace(_power(rho, alpha) @ _power(sigma, 1.0 - alpha)).real)
    return math.log(t) / (alpha - 1.0)


def agrees(value: float, ref: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= tol * (1.0 + abs(ref))
