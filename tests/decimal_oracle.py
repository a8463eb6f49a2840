"""A 50-digit reference for the quantum Renyi quantities of real states.

A cyclic Jacobi iteration for real symmetric matrices, run in the standard
library's ``decimal`` at :data:`DIGITS` significant digits, with each
rotation's cosine and sine from ``Decimal.sqrt``.  Its eigenpairs give the
Renyi entropy and the Petz divergence through ``Decimal.ln`` and
``Decimal.exp``.  It shares no code with the library: the float inputs are
converted exactly, and nothing passes through float64 until the result, so
it resolves values where a float64 path is in doubt.  Real states are valid
inputs for every quantity here, so real symmetric matrices are enough.
"""

from __future__ import annotations

import decimal
from decimal import Decimal

DIGITS = 50
# an off-diagonal entry at most this far below the matrix norm is zero, and
# an eigenvalue at most this far below the largest one is off the support
_CUT = Decimal(10) ** -(DIGITS - 5)
_SWEEP_LIMIT = 50


def _context() -> decimal.Context:
    return decimal.Context(prec=DIGITS)


def eigh(matrix) -> tuple[list[Decimal], list[list[Decimal]]]:
    """The eigenvalues of a real symmetric matrix and its eigenvector columns
    ``v[i][k]`` (component i of vector k), by cyclic Jacobi."""
    with decimal.localcontext(_context()):
        n = len(matrix)
        a = [[Decimal(float(x)) for x in row] for row in matrix]
        v = [[Decimal(int(i == k)) for k in range(n)] for i in range(n)]
        norm = sum(x * x for row in a for x in row).sqrt()
        for _ in range(_SWEEP_LIMIT):
            if all(abs(a[p][q]) <= _CUT * norm for p in range(n) for q in range(p + 1, n)):
                return [a[k][k] for k in range(n)], v
            for p in range(n):
                for q in range(p + 1, n):
                    if a[p][q] != 0:
                        _rotate(a, v, p, q)
        raise ArithmeticError("Jacobi did not converge")


def _rotate(a, v, p: int, q: int) -> None:
    """Zero ``a[p][q]``: ``a <- J^T a J`` and ``v <- v J`` for the rotation
    J in the (p, q) plane with tan phi the smaller root of
    ``t^2 + 2 theta t - 1 = 0``, ``theta = (a_qq - a_pp) / (2 a_pq)``."""
    theta = (a[q][q] - a[p][p]) / (2 * a[p][q])
    t = 1 / (abs(theta) + (theta * theta + 1).sqrt())
    t = t if theta >= 0 else -t
    c = 1 / (t * t + 1).sqrt()
    s = t * c
    for m in (a, v):
        for row in m:
            x, y = row[p], row[q]
            row[p], row[q] = c * x - s * y, s * x + c * y
    for k in range(len(a)):
        x, y = a[p][k], a[q][k]
        a[p][k], a[q][k] = c * x - s * y, s * x + c * y


def _support(w: list[Decimal]) -> list[Decimal]:
    """The spectrum with every eigenvalue at most ``_CUT * w_max`` set to 0."""
    top = max(w)
    return [x if x > _CUT * top else Decimal(0) for x in w]


def renyi_entropy(matrix, alpha: float) -> float:
    """``H_alpha = ln tr rho^alpha / (1 - alpha)`` in nats, ``-tr rho ln rho``
    at alpha = 1."""
    with decimal.localcontext(_context()):
        w = [x for x in _support(eigh(matrix)[0]) if x > 0]
        a = Decimal(float(alpha))
        if a == 1:
            return float(-sum(x * x.ln() for x in w))
        return float(sum((a * x.ln()).exp() for x in w).ln() / (1 - a))


def petz_divergence(rho, sigma, alpha: float) -> float:
    """``D_alpha(rho || sigma) = ln tr(rho^alpha sigma^(1-alpha)) / (alpha - 1)``
    for a state rho and a positive definite sigma, from the overlaps
    ``(u_i . v_j)^2`` of their eigenvectors."""
    with decimal.localcontext(_context()):
        p, u = eigh(rho)
        q, v = eigh(sigma)
        p = _support(p)
        a = Decimal(float(alpha))
        n = len(p)
        total = Decimal(0)
        for i in range(n):
            if p[i] == 0:
                continue
            for j in range(n):
                overlap = sum(u[k][i] * v[k][j] for k in range(n)) ** 2
                total += overlap * (a * p[i].ln() + (1 - a) * q[j].ln()).exp()
        return float(total.ln() / (a - 1))
