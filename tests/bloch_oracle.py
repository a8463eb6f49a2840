"""Zoom-grid oracle for the optimized quantities when ``d_B = 2``.

Minimizes ``D_alpha(rho_AB || ref_A (x) sigma_B)`` over the open Bloch ball
``sigma_B = (I + r . pauli)/2`` by brute force, sharing no code with the
library's Sibson minimizer: ``rho^alpha`` and ``ref_A^(1-alpha)`` come from
``np.linalg.eigh``, and ``sigma_B^(1-alpha)`` is written in projector form,

    lam_+^(1-alpha) (I + n . pauli)/2 + lam_-^(1-alpha) (I - n . pauli)/2,

with ``lam_+- = (1 +- |r|)/2`` and ``n = r/|r|``.  Unlike ``a sigma + b I``,
whose coefficients are difference quotients in ``|r|``, the form stays well
conditioned as ``r -> 0``; at ``r = 0`` the ``n`` terms cancel and ``n = 0``.
A 21^3 grid over the ball is shrunk by 0.35 around its best point 12 times,
so the last grid spacing is about 3e-7 and the value error about 1e-13.
"""

import math

import numpy as np

PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=np.complex128
)
POINTS = 21
SHRINK = 0.35
ROUNDS = 12


def _power(matrix, r):
    w, v = np.linalg.eigh(matrix)
    w = np.clip(w, 0.0, None)
    return (v * w**r) @ v.conj().T


def _reference_power(rho, d_a, alpha, mode):
    if mode == "conditional":
        return d_a ** (alpha - 1.0) * np.eye(d_a)
    if mode == "mutual":
        rho_a = np.trace(rho.reshape(d_a, 2, d_a, 2), axis1=1, axis2=3)
        return _power(rho_a, 1.0 - alpha)
    raise ValueError(f"mode must be 'conditional' or 'mutual', got {mode!r}")


def zoom_grid_minimum(rho, alpha, mode="mutual"):
    """``min_sigma D_alpha(rho || ref_A (x) sigma_B)`` in nats, d_B = 2, alpha > 1.

    ``rho`` is the ``2 d_A``-dimensional state as an array; ``ref_A`` is the
    maximally mixed state for ``mode="conditional"`` and ``rho_A`` for
    ``mode="mutual"``.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    d_a = rho.shape[0] // 2
    m_alpha = _power(rho, alpha)
    x_a = _reference_power(rho, d_a, alpha, mode)
    # t_k = tr(rho^alpha (ref^(1-alpha) (x) P_k)) for P = I, pauli x, y, z
    t0, tx, ty, tz = (
        float(np.trace(m_alpha @ np.kron(x_a, p)).real)
        for p in (np.eye(2), *PAULI)
    )
    exponent = 1.0 - alpha
    center, half = np.zeros(3), 1.0
    for _ in range(ROUNDS + 1):
        axes = [np.linspace(c - half, c + half, POINTS) for c in center]
        r = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        norm = np.linalg.norm(r, axis=1)
        inside = norm < 1.0
        r, norm = r[inside], norm[inside]
        n = np.divide(r, norm[:, None], out=np.zeros_like(r), where=norm[:, None] > 0.0)
        along = n @ np.array([tx, ty, tz])
        trace = (
            ((1.0 + norm) / 2.0) ** exponent * (t0 + along) / 2.0
            + ((1.0 - norm) / 2.0) ** exponent * (t0 - along) / 2.0
        )
        # for alpha > 1 the divergence increases with the trace; each grid
        # holds the previous best point, so the last minimum is the smallest
        k = int(np.argmin(trace))
        center, half = r[k], half * SHRINK
    return math.log(trace[k]) / (alpha - 1.0)
