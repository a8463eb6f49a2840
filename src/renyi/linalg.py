"""Dense complex Hermitian linear algebra.

Self-contained: the eigensolver is a cyclic Jacobi iteration for complex
Hermitian matrices, and every spectral function (fractional powers, log-det,
definiteness tests) is built on it.  Matrices are plain ``complex128``
ndarrays; validation happens at the operation boundary.

Spectral conventions used throughout the package:

* eigenvalues in ``[-PSD_TOL, 0)`` are treated as exact zeros,
* ``0**r == 0`` for ``r > 0`` and ``0**0 == 1``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    ConvergenceFailure,
    DimensionMismatch,
    NonHermitianInput,
    NotPd,
    NotPsd,
    SingularPower,
)
# the chain tolerances live with the pass and equality rules in report, which
# cannot import this module; they are re-exported here next to the others
from .report import CHAIN_TOL, EQ_TOL, BoundReport, chain_report

HERM_TOL = 1e-10
PSD_TOL = 1e-10
ZERO_THRESHOLD = 1e-12
# |trace - 1| for a density matrix, |sum - 1| for a distribution
NORM_TOL = 1e-10
# an order within this band of 1 is treated as 1; the classical and quantum
# entropies share it because the diagonal oracle compares them at one order
ORDER_ONE_BAND = 1e-9

_JACOBI_REL_TOL = 1e-12
_SWEEP_LIMIT = 100


def max_abs(a: np.ndarray) -> float:
    """Max-norm of a matrix (0 for empty input)."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def as_hermitian(matrix) -> np.ndarray:
    """Validate and return a Hermitian ``complex128`` matrix.

    Checks squareness, finiteness, the scaled Hermiticity bound
    ``max|A - A†| <= HERM_TOL * (1 + max|A|)`` and that diagonal imaginary
    parts are below ``HERM_TOL``.  Returns the Hermitian average ``(A + A†)/2`` so later
    arithmetic never sees the (tolerated) asymmetry dust.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise NonHermitianInput("matrix contains non-finite entries")
    scale = 1.0 + max_abs(a)
    asym = max_abs(a - a.conj().T)
    if asym > HERM_TOL * scale:
        raise NonHermitianInput(
            f"matrix is not Hermitian: max|A - A^dagger| = {asym:.3e}"
        )
    if max_abs(np.diag(a).imag) > HERM_TOL:
        raise NonHermitianInput("diagonal entries have non-negligible imaginary part")
    return (a + a.conj().T) / 2.0


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (real, ascending), unitary eigenvector columns, and the
    validated Hermitian matrix they decompose (``None`` when built by hand)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    matrix: np.ndarray | None = field(default=None, repr=False, compare=False)

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _rotation(app: float, aqq: float, apq: complex, r: float) -> tuple[float, float, complex]:
    """Jacobi rotation parameters zeroing a pivot with modulus ``r = |apq|``."""
    tau = (aqq - app) / (2.0 * r)
    # small-magnitude root of t^2 - 2*tau*t - 1 = 0
    if tau >= 0.0:
        t = -1.0 / (tau + math.hypot(1.0, tau))
    else:
        t = 1.0 / (-tau + math.hypot(1.0, tau))
    c = 1.0 / math.hypot(1.0, t)
    s = (t * c) * (apq / r).conjugate()
    return t, c, s


def _jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a Hermitian matrix (mutates ``a``).

    Rotations zero one off-diagonal pair at a time; a sweep visits every
    ``p < q``.  Converged once the off-diagonal Frobenius mass drops below
    ``1e-12 * ||A||_F``; gives up after 100 sweeps.
    """
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    if n == 1:
        return np.array([a[0, 0].real]), v
    fro = math.sqrt(float(np.sum(np.abs(a) ** 2)))
    threshold = _JACOBI_REL_TOL * fro
    if fro == 0.0:
        return np.zeros(n), v
    if n == 2:
        # one rotation diagonalizes exactly
        app, aqq = a[0, 0].real, a[1, 1].real
        apq = complex(a[0, 1])
        r = abs(apq)
        if math.sqrt(2.0) * r <= threshold:
            return np.array([app, aqq]), v
        t, c, s = _rotation(app, aqq, apq, r)
        cc = c * c
        w = np.array([cc * (app + 2.0 * t * r + aqq * t * t),
                      cc * (app * t * t - 2.0 * t * r + aqq)])
        v = np.array([[c, -s.conjugate()], [s, c]], dtype=np.complex128)
        return w, v
    off_mask = ~np.eye(n, dtype=bool)
    # entries this small cannot lift the off-diagonal mass above threshold
    skip = threshold / (2.0 * n)
    for _ in range(_SWEEP_LIMIT):
        off = math.sqrt(float(np.sum(np.abs(a[off_mask]) ** 2)))
        if off <= threshold:
            return a.diagonal().real.copy(), v
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r <= skip:
                    continue
                _, c, s = _rotation(a[p, p].real, a[q, q].real, apq, r)
                sc = s.conjugate()
                ap = a[p, :].copy()
                aq = a[q, :].copy()
                a[p, :] = c * ap + sc * aq
                a[q, :] = c * aq - s * ap
                ap = a[:, p].copy()
                aq = a[:, q].copy()
                a[:, p] = c * ap + s * aq
                a[:, q] = c * aq - sc * ap
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp + s * vq
                v[:, q] = c * vq - sc * vp
    raise ConvergenceFailure(
        f"Jacobi sweeps exceeded {_SWEEP_LIMIT} without reaching tolerance"
    )


def spectral_decompose(matrix) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix: ``A = V diag(w) V†``, ``w`` ascending.

    The only entry to the eigensolver and the one place inputs are validated:
    the result keeps the validated matrix, so callers never re-validate.
    """
    a = as_hermitian(matrix)
    w, v = _jacobi(a.copy())
    order = np.argsort(w, kind="stable")
    return SpectralDecomposition(w[order], np.ascontiguousarray(v[:, order]), a)


def recombine(dec: SpectralDecomposition, w: np.ndarray) -> np.ndarray:
    """Assemble ``V diag(w) V†`` (Hermitian-symmetrized) from a decomposition."""
    v = dec.eigenvectors
    m = (v * w) @ v.conj().T
    return (m + m.conj().T) / 2.0


class Definiteness(enum.Enum):
    POSITIVE_DEFINITE = "positive_definite"
    POSITIVE_SEMIDEFINITE = "positive_semidefinite"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class PsdClass:
    kind: Definiteness
    min_eigenvalue: float


def classify_definiteness(matrix) -> PsdClass:
    """Classify a Hermitian matrix by its smallest eigenvalue against ``PSD_TOL``."""
    w = spectral_decompose(matrix).eigenvalues
    lo = float(w[0])
    if lo > PSD_TOL:
        kind = Definiteness.POSITIVE_DEFINITE
    elif lo >= -PSD_TOL:
        kind = Definiteness.POSITIVE_SEMIDEFINITE
    else:
        kind = Definiteness.INDEFINITE
    return PsdClass(kind, lo)


def clip_spectrum(w: np.ndarray) -> np.ndarray:
    """Zero out eigenvalue dust in ``[-PSD_TOL, 0)``; raise NotPsd below that."""
    if float(w[0]) < -PSD_TOL:
        raise NotPsd(f"matrix has eigenvalue {w[0]:.3e} < -{PSD_TOL:.0e}")
    out = w.copy()
    out[out < 0.0] = 0.0
    return out


def power_spectrum(w: np.ndarray, r: float) -> np.ndarray:
    """Elementwise power of a clipped (nonnegative) spectrum.

    Applies the conventions ``0**r = 0`` for ``r > 0`` and ``0**0 = 1``;
    callers must rule out ``r < 0`` with zeros present beforehand.
    """
    out = np.empty_like(w)
    zero = w == 0.0
    out[~zero] = w[~zero] ** r
    out[zero] = 1.0 if r == 0.0 else 0.0
    return out


def spectral_entropy(w: np.ndarray, r: float) -> float:
    """``ln(sum_i w_i^r) / (1 - r)`` for a nonnegative vector with a positive entry.

    Computed as ``r/(1-r) ln w_max + ln sum_i (w_i/w_max)^r / (1-r)``: no
    power overflows, the dominant term never underflows to zero, and the
    first term tends to ``-ln w_max`` as ``r`` grows instead of overflowing.
    """
    w_max = float(np.max(w))
    s = float(np.sum((w / w_max) ** r))
    return r / (1.0 - r) * math.log(w_max) + math.log(s) / (1.0 - r)


def matrix_power(matrix, r: float) -> np.ndarray:
    """Spectral power ``A^r`` of a PSD matrix (PD required when ``r < 0``)."""
    dec = spectral_decompose(matrix)
    w = clip_spectrum(dec.eigenvalues)
    if r < 0.0 and float(w[0]) <= PSD_TOL:
        raise SingularPower(
            f"negative power {r} of a singular matrix (min eigenvalue {w[0]:.3e})"
        )
    return recombine(dec, power_spectrum(w, r))


def log_det(matrix) -> float:
    """Natural-log determinant of a positive definite matrix."""
    w = spectral_decompose(matrix).eigenvalues
    if float(w[0]) <= PSD_TOL:
        raise NotPd(f"log_det needs a positive definite matrix (min eig {w[0]:.3e})")
    return float(np.sum(np.log(w)))


def kron(a, b) -> np.ndarray:
    """Kronecker product with A-major composite indexing."""
    return np.kron(as_hermitian(a), as_hermitian(b))


def _partial_trace(m: np.ndarray, d_a: int, d_b: int, factor: int) -> np.ndarray:
    """Trace factor 0 (A) or 1 (B) out of an already validated matrix."""
    if d_a <= 0 or d_b <= 0 or m.shape[0] != d_a * d_b:
        raise DimensionMismatch(
            f"matrix dimension {m.shape[0]} != d_a*d_b = {d_a}*{d_b}"
        )
    return np.trace(m.reshape(d_a, d_b, d_a, d_b), axis1=factor, axis2=factor + 2)


def partial_trace_b(matrix, d_a: int, d_b: int) -> np.ndarray:
    """Trace out the second factor of a ``d_a * d_b`` composite matrix."""
    return _partial_trace(as_hermitian(matrix), d_a, d_b, 1)


def partial_trace_a(matrix, d_a: int, d_b: int) -> np.ndarray:
    """Trace out the first factor of a ``d_a * d_b`` composite matrix."""
    return _partial_trace(as_hermitian(matrix), d_a, d_b, 0)


def trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """``tr(AB)`` as the real part of the entrywise sum of A[i,j] B[j,i]."""
    return float(np.sum(a * b.T).real)


def _decompose_psd_pair(a, b) -> tuple[SpectralDecomposition, SpectralDecomposition]:
    """Validate and decompose two same-size PSD matrices (shape checked first)."""
    dec_a = spectral_decompose(a)
    dec_b = spectral_decompose(b)
    if dec_a.matrix.shape != dec_b.matrix.shape:
        raise DimensionMismatch("A and B must share dimensions")
    for dec, name in ((dec_a, "A"), (dec_b, "B")):
        if float(dec.eigenvalues[0]) < -PSD_TOL:
            raise NotPsd(f"{name} is not PSD (min eigenvalue {dec.eigenvalues[0]:.3e})")
    return dec_a, dec_b


def lemma2_check(a, b) -> BoundReport:
    """Check ``0 <= tr(AB) <= tr(A) tr(B)`` for PSD A, B."""
    dec_a, dec_b = _decompose_psd_pair(a, b)
    am, bm = dec_a.matrix, dec_b.matrix
    tr_ab = trace_product(am, bm)
    tr_a = float(np.trace(am).real)
    tr_b = float(np.trace(bm).real)
    parts = [("lower", 0.0, tr_ab), ("upper", tr_ab, tr_a * tr_b)]
    return chain_report("lemma2", parts, extras={"trace_product": tr_ab})


def lemma3_check(a, b) -> BoundReport:
    """Check ``n (det A det B)^(1/n) <= tr(AB)`` for same-size PSD A, B.

    Equality is detected structurally: ``B^(1/2) A B^(1/2)`` must be a
    positive multiple of the identity.
    """
    dec_a, dec_b = _decompose_psd_pair(a, b)
    am = dec_a.matrix
    n = am.shape[0]
    w_a = clip_spectrum(dec_a.eigenvalues)
    w_b = clip_spectrum(dec_b.eigenvalues)
    det_a = float(np.prod(w_a))
    det_b = float(np.prod(w_b))
    lhs = n * (det_a * det_b) ** (1.0 / n)
    rhs = trace_product(am, dec_b.matrix)
    root_b = recombine(dec_b, np.sqrt(w_b))
    middle = root_b @ am @ root_b
    c = float(np.trace(middle).real) / n
    eq = max_abs(middle - c * np.eye(n)) <= EQ_TOL * (1.0 + abs(c))
    return chain_report(
        "lemma3",
        [("amgm", lhs, rhs)],
        extras={"det_a": det_a, "det_b": det_b, "c": c},
        equality=eq,
    )


def lemma4_check(a) -> BoundReport:
    """Check ``tr(I - A^{-1}) <= log det(A) <= tr(A - I)`` for PD A.

    Natural log throughout; equality detected when ``A`` is the identity to
    within ``EQ_TOL`` in max-norm.
    """
    dec = spectral_decompose(a)
    am, w = dec.matrix, dec.eigenvalues
    if float(w[0]) <= PSD_TOL:
        raise NotPd(f"lemma4 needs a positive definite matrix (min eig {w[0]:.3e})")
    lower = float(np.sum(1.0 - 1.0 / w))
    mid = float(np.sum(np.log(w)))
    upper = float(np.sum(w - 1.0))
    eq = max_abs(am - np.eye(am.shape[0])) <= EQ_TOL
    return chain_report(
        "lemma4",
        [("lower", lower, mid), ("upper", mid, upper)],
        extras={"log_det": mid},
        equality=eq,
    )
