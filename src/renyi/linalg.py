"""Dense complex Hermitian linear algebra.

Two eigensolvers, by what the caller reads.  ``spectral_decompose``, for
every consumer of eigenvectors (fractional powers, density matrices, the
divergences), is a cyclic Jacobi iteration for complex Hermitian matrices.
``spectral_values``, for the readers of a spectrum alone (the lemma checks,
``log_det``, ``classify_definiteness``, the t3 and t3_2 suites, so ``bounds
t3|t3_2``, and ``entropy quantum``), is one LAPACK ``eigvalsh`` call.
Matrices are plain ``complex128`` ndarrays; validation happens at the
operation boundary.

The validation and spectral layer takes a leading stack axis:
``as_hermitian``, ``spectral_values`` and ``spectral_decompose`` accept an
``(k, n, n)`` stack, ``trace_product`` a pair of them, and
``clip_spectrum``, ``psd_decompose``,
``positive_definite``, ``spectral_entropy`` and ``petz_divergence`` work on
each spectrum along the last axis.  One matrix is the stack-free case of the
same code, and each row of a stacked result has the bits of that matrix's
own call.  The lemma checks are kernels over stacks, and each public check
is its kernel on a stack of one.  Every other function takes one matrix and
rejects a stack with DimensionMismatch.

Spectral conventions used throughout the package:

* ``clip_spectrum`` is the one support rule, scaled to the largest
  eigenvalue ``w_max``: below ``-PSD_TOL * max(1, w_max)`` is NotPsd, and
  every eigenvalue ``<= ZERO_THRESHOLD * w_max`` is exactly 0, so ``c A``
  has the support of ``A``; ``psd_decompose`` applies it to each PSD operand,
  and ``positive_definite`` (full support under it) is the one PD test,
* ``power_spectrum`` is the one place a spectrum is raised to a power: it
  takes ``w_i**r`` on the support and 0 off it, for every ``r``, so ``A^0``
  is the support projector (the ``r -> 0+`` limit).  ``matrix_power`` alone
  keeps ``A^0 = I``,
* ``spectral_entropy`` is the one Renyi entropy, in nats, of a spectrum and
  of a probability vector alike, with the one order-1 limit ``-sum w ln w``;
  the classical entropies are it over ``ln 2``, the quantum ones it on the
  spectrum under the support rule,
* ``petz_divergence`` is the one evaluation of ``tr(rho^alpha sigma^(1-alpha))``,
  in the log domain from two spectra and their eigenbases' overlap.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    AlphaOne,
    AlphaOutOfRange,
    BetaOne,
    BetaOutOfRange,
    ConvergenceFailure,
    DimensionMismatch,
    NonHermitianInput,
    NotPd,
    NotPsd,
    SideOverflow,
    SingularPower,
    TraceNonpositive,
)
# the chain tolerances live with the pass and equality rules in report, which
# cannot import this module; they are re-exported here next to the others
from .report import CHAIN_TOL, EQ_TOL, BoundReport, Verdict, chain

HERM_TOL = 1e-10
PSD_TOL = 1e-10
ZERO_THRESHOLD = 1e-12
# |trace - 1| for a density matrix, |sum - 1| for a distribution
NORM_TOL = 1e-10
# an order within this band of 1 is treated as 1: check_order rejects it where
# 1 is not admitted, and spectral_entropy takes its order-1 limit there
ORDER_ONE_BAND = 1e-9

# the errors of an order out of its interval, and of one in the band around 1
_ORDER_ERRORS = {"alpha": (AlphaOutOfRange, AlphaOne), "beta": (BetaOutOfRange, BetaOne)}


def check_order(
    order, name: str, low: float = 0.0, high: float = math.inf,
    closed: bool = False, one: bool = False,
) -> np.ndarray:
    """The order ``name`` (``"alpha"`` or ``"beta"``), or an array of orders,
    as a float array (a ``numpy.float64`` for one Python number), once each
    is known to be admitted.

    The one order check of the package: each order must be finite and lie in
    ``(low, high)``, or in ``[low, high)`` when ``closed``, else AlphaOutOfRange
    or BetaOutOfRange; then, unless ``one``, an order within ORDER_ONE_BAND
    of 1 is AlphaOne or BetaOne.
    """
    out_of_range, at_one = _ORDER_ERRORS[name]
    if isinstance(order, (int, float)):
        # one number: the same rule in Python floats, at a tenth of the array cost
        o = float(order)
        if not (math.isfinite(o) and (o >= low if closed else o > low) and o < high):
            raise out_of_range(_outside(name, low, high, closed, o))
        if not one and abs(o - 1.0) < ORDER_ONE_BAND:
            raise at_one(f"{name} = 1 is not admitted here")
        return np.float64(o)
    o = np.asarray(order, dtype=np.float64)
    inside = np.isfinite(o) & ((o >= low) if closed else (o > low)) & (o < high)
    if not inside.all():
        raise out_of_range(_outside(name, low, high, closed, float(o[~inside].flat[0])))
    if not one and (np.abs(o - 1.0) < ORDER_ONE_BAND).any():
        raise at_one(f"{name} = 1 is not admitted here")
    return o


def _outside(name: str, low: float, high: float, closed: bool, order: float) -> str:
    return f"{name} must lie in {'[' if closed else '('}{low:g}, {high:g}), got {order!r}"


_JACOBI_REL_TOL = 1e-12
_SWEEP_LIMIT = 100


def _single(matrix):
    """``matrix`` itself where one matrix is expected: a stack, or any other
    shape that is not two-dimensional, is a DimensionMismatch."""
    if np.ndim(matrix) != 2:
        raise DimensionMismatch(f"expected one square matrix, got shape {np.shape(matrix)}")
    return matrix


def as_hermitian(matrix) -> np.ndarray:
    """Validate and return a Hermitian ``complex128`` matrix, or a stack of
    them along a leading axis.

    Checks squareness, finiteness and the scaled Hermiticity bound
    ``max|A - A†| <= HERM_TOL * (1 + max|A|)`` of each matrix; the diagonal
    of ``A - A†`` is ``2i Im a_ii``, so this bounds the imaginary part of the
    diagonal at the same scale.  Returns the Hermitian average ``A/2 + A†/2``
    so later arithmetic never sees the (tolerated) asymmetry dust.  The
    bound is tested halved, on ``A/2``, and the average is formed from the
    halves, so neither leaves the float range for entries near its top.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise DimensionMismatch(
            f"expected a square matrix or a stack of them, got shape {a.shape}"
        )
    if not np.isfinite(a).all():
        raise NonHermitianInput("matrix contains non-finite entries")
    half = a / 2.0
    adjoint = half.conj().swapaxes(-1, -2)
    scale = 0.5 + np.abs(half).max(axis=(-2, -1))
    # a modulus past the float range is inf, which fails the bound
    asym = np.abs(half - adjoint).max(axis=(-2, -1))
    bad = asym > HERM_TOL * scale
    if bad.any():
        raise NonHermitianInput(
            "matrix is not Hermitian: max|A - A^dagger| = "
            f"{2.0 * float(np.extract(bad, asym)[0]):.3e}"
        )
    return half + adjoint


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (real, ascending), unitary eigenvector columns, and the
    validated Hermitian matrix they decompose (``None`` when built by hand);
    for a stack, one of each per matrix along the leading axis."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    matrix: np.ndarray | None = field(default=None, repr=False, compare=False)


def _as_stack(dec: SpectralDecomposition) -> SpectralDecomposition:
    """``dec`` with a leading stack axis: one matrix's decomposition is a
    stack of one, and a stack is itself."""
    if dec.eigenvalues.ndim > 1:
        return dec
    m = None if dec.matrix is None else dec.matrix[None]
    return SpectralDecomposition(dec.eigenvalues[None], dec.eigenvectors[None], m)


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
    ``1e-12 * ||A||_F``; gives up after 100 sweeps.  Where ``max|A|`` leaves
    ``[2^-400, 2^400]`` a sum of squares can over- or underflow, so the
    iteration runs on ``A / 2^e`` with ``max|A / 2^e|`` in ``[0.5, 1)`` and
    its spectrum is scaled back.  The rotations are scale free, so inside
    that range the scaling would change no bit, and it is skipped.
    """
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    if n == 1:
        return np.array([a[0, 0].real]), v
    modulus = np.abs(a)
    top = float(modulus.max())
    if top > 0.0 and not 2.0**-400 <= top <= 2.0**400:
        _, exp = math.frexp(top)
        parts = a.view(np.float64)  # the real and imaginary parts, scaled in place
        np.ldexp(parts, -exp, out=parts)
        w, v = _jacobi(a)
        # an eigenvalue past the float range comes back inf, for clip_spectrum
        with np.errstate(over="ignore"):
            return np.ldexp(w, exp), v
    fro = math.sqrt(float(np.sum(modulus**2)))
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
    """Diagonalize a Hermitian matrix: ``A = V diag(w) V†``, ``w`` ascending;
    for a stack, each matrix along the leading axis.

    The only entry to the Jacobi solver, and with ``spectral_values`` the one
    place inputs are validated, once per stack: the result keeps the
    validated matrix, so callers never re-validate.  The solver runs on each
    matrix of the stack in turn.
    """
    a = as_hermitian(matrix)
    n = a.shape[-1]
    w = np.empty(a.shape[:-1])
    v = np.empty(a.shape, dtype=np.complex128)
    for m, w_m, v_m in zip(a.reshape(-1, n, n), w.reshape(-1, n), v.reshape(-1, n, n)):
        values, vectors = _jacobi(m.copy())
        order = np.argsort(values, kind="stable")
        w_m[:] = values[order]
        v_m[:] = vectors[:, order]
    return SpectralDecomposition(w, v, a)


def spectral_values(matrix) -> tuple[np.ndarray, np.ndarray]:
    """The validated Hermitian matrix and its ascending spectrum; for a
    stack, the validated stack and one spectrum per matrix along it.

    For the readers of eigenvalues alone, the spectrum-only checks and
    ``entropy quantum``: one LAPACK ``eigvalsh`` call on the validated matrix
    or stack, with no eigenvectors formed.  LAPACK scales a matrix whose norm
    leaves its safe range, so the spectrum is resolved at every scale, and
    each row of a stacked result has the bits of that matrix's own call.
    """
    a = as_hermitian(matrix)
    return a, np.linalg.eigvalsh(a)


def _stacked_values(matrix) -> tuple[np.ndarray, np.ndarray]:
    """``spectral_values`` with a leading stack axis: one matrix is a stack of one."""
    a, w = spectral_values(matrix)
    return (a[None], w[None]) if a.ndim == 2 else (a, w)


def recombine(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Assemble ``V diag(w) V†`` (Hermitian-symmetrized) from the eigenvector columns V."""
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
    """Classify a Hermitian matrix under the support rule of ``clip_spectrum``."""
    _, w = spectral_values(_single(matrix))
    lo = float(w[0])
    if positive_definite(w):
        kind = Definiteness.POSITIVE_DEFINITE
    elif lo >= -PSD_TOL * max(1.0, float(w[-1])):
        kind = Definiteness.POSITIVE_SEMIDEFINITE
    else:
        kind = Definiteness.INDEFINITE
    return PsdClass(kind, lo)


def clip_spectrum(w: np.ndarray, name: str = "matrix") -> np.ndarray:
    """The support rule on the ascending spectrum of the PSD ``name``, or on
    each spectrum along the last axis of a stack: NotPsd if ``w[0] < -PSD_TOL
    * max(1, w_max)``, SideOverflow if ``w_max`` is past the float range, else
    a copy with each ``w_i <= ZERO_THRESHOLD * w_max`` set to 0.  A cleaned
    spectrum passes unchanged."""
    # the ends of each spectrum: scalars for one, one entry per spectrum of a stack
    w_min, w_max = w.T[0], w.T[-1]
    # w_min < -PSD_TOL * max(1, w_max), without a ufunc on scalars
    low = (w_min < -PSD_TOL) & (w_min < -PSD_TOL * w_max)
    if np.count_nonzero(low):
        raise NotPsd(f"{name} has eigenvalue {np.extract(low, w_min)[0]:.3e}")
    if np.count_nonzero(~(w_max < np.inf)):
        raise SideOverflow(f"{name} has an eigenvalue past the float range")
    out = w.copy()
    out.T[out.T <= ZERO_THRESHOLD * w_max] = 0.0
    return out


def positive_definite(w: np.ndarray):
    """Full support of the ascending ``w``: ``w[0] > ZERO_THRESHOLD * w[-1]``;
    for a stack, one flag per spectrum along the last axis."""
    return w.T[0] > ZERO_THRESHOLD * w.T[-1]


def psd_decompose(matrix, name: str) -> SpectralDecomposition:
    """``spectral_decompose`` of the PSD ``name``, its spectrum under ``clip_spectrum``."""
    dec = spectral_decompose(matrix)
    w = clip_spectrum(dec.eigenvalues, name)
    return SpectralDecomposition(w, dec.eigenvectors, dec.matrix)


def power_spectrum(w: np.ndarray, r) -> np.ndarray:
    """``w_i**r`` on the support of ``clip_spectrum(w)`` (ascending), 0 off it;
    for a stack of spectra, at one ``r`` or at one ``r`` per spectrum.

    The one power rule of the package, for every ``r``: ``r = 0`` gives the
    support indicator and a negative ``r`` the power of the pseudo-inverse.
    """
    w = clip_spectrum(w)
    np.power(w, np.asarray(r)[..., None], out=w, where=w > 0.0)
    return w


# ln 2: the kernel's nats over it are bits
_LN2 = math.log(2.0)


def _power(base, exponent) -> np.ndarray:
    """``base ** exponent`` with both operands laid out at their broadcast shape.

    numpy picks its pow routine by operand layout and size (a broadcast
    operand, or a size-1 exponent under ``**``, can take a special case), so
    without this a row of a stack could round differently from the same row
    evaluated alone.
    """
    base, exponent = np.broadcast_arrays(base, exponent)
    return np.power(base.copy(), exponent.copy())


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum along the last axis, left to right: numpy's ``sum`` groups terms by
    row width, so a zero-padded row could round apart from the row alone."""
    return np.cumsum(x, axis=-1)[..., -1]


def spectral_entropy(w: np.ndarray, r):
    """``ln(sum_i w_i^r) / (1 - r)`` for a nonnegative vector with a positive
    entry, or for each vector along the last axis of a stack, at the one
    order ``r`` or at one order per vector; an order within ORDER_ONE_BAND
    of 1 gives the limit ``-sum_i w_i ln w_i``, with ``0 ln 0 = 0``.

    The one Renyi entropy of the package, in nats: of a distribution and of
    a spectrum alike.  Computed as ``r/(1-r) ln w_max + ln sum_i
    (w_i/w_max)^r / (1-r)``: no power overflows, the dominant term never
    underflows to zero, and the first term tends to ``-ln w_max`` as ``r``
    grows instead of overflowing.  Every sum runs left to right over
    operands laid out at their broadcast shape, so a row of a stack, and a
    vector zero-padded on the right, has the bits of its own call.
    """
    r = np.asarray(r, dtype=np.float64)
    near_one = np.abs(r - 1.0) < ORDER_ONE_BAND
    if near_one.any():
        off = spectral_entropy(w, np.where(near_one, 2.0, r))
        return np.where(near_one, -_row_sum(w * np.log(np.where(w > 0.0, w, 1.0))), off)
    w_max = w.max(axis=-1)
    s = _row_sum(_power(w / w_max[..., None], r[..., None]))
    return r / (1.0 - r) * np.log(w_max) + np.log(s) / (1.0 - r)


def petz_divergence(p: np.ndarray, q: np.ndarray, overlap: np.ndarray, alpha):
    """``D_alpha = ln tr(rho^alpha sigma^(1-alpha)) / (alpha-1)`` and its
    Lemma 3 bound, from the spectra p, q of rho and sigma under the support
    rule and the overlap ``W = |U† V|^2`` of their eigenvectors; for stacks of
    spectra and overlaps, two arrays with one entry per pair, at one order or
    at one order per pair.

    With ``y_ij = ln p_i - ln q_j`` over the pairs of both supports that W
    weights, and ``Y`` their max (alpha > 1) or min (alpha < 1), ``D = Y +
    ln(sum W_ij p_i e^((alpha-1)(y_ij-Y))) / (alpha-1)``: no exponent is
    positive, so D is finite at every order and tends to Y.  Every other pair
    is masked to a zero term.  ``bound = mean y + (ln n + mean ln p)/(alpha-1)``,
    ``-inf`` off full rank, is the determinant form of Lemma 3, below D for
    alpha > 1.  Orthogonal supports raise TraceNonpositive.
    """
    n = p.shape[-1]
    ps, qs, ws = p.reshape(-1, n), q.reshape(-1, n), overlap.reshape(-1, n, n)
    orders = np.broadcast_to(np.asarray(alpha, dtype=np.float64).reshape(-1), ps.shape[:1])
    sp, sq = ps > 0.0, qs > 0.0
    ln_p, ln_q = np.log(np.where(sp, ps, 1.0)), np.log(np.where(sq, qs, 1.0))
    weight = ws * ps[:, :, None]
    pairs = (weight > 0.0) & sq[:, None, :]
    if not pairs.any(axis=(1, 2)).all():
        raise TraceNonpositive("tr(rho^a sigma^(1-a)) = 0: the supports are orthogonal")
    y = ln_p[:, :, None] - ln_q[:, None, :]
    top = np.where(
        orders > 1.0,
        np.where(pairs, y, -np.inf).max(axis=(1, 2)),
        np.where(pairs, y, np.inf).min(axis=(1, 2)),
    )
    # an exponent past the float range is -inf, and its term exactly 0
    with np.errstate(over="ignore"):
        exponent = (orders - 1.0)[:, None, None] * (y - top[:, None, None])
    terms = weight * np.exp(np.where(pairs, exponent, -np.inf))
    totals = np.sum(terms.reshape(len(ps), -1), axis=-1)
    value = top + np.array([math.log(total) for total in totals.tolist()]) / (orders - 1.0)
    full = sp.all(axis=1) & sq.all(axis=1)
    mean = y.mean(axis=(1, 2)) + (math.log(n) + ln_p.mean(axis=1)) / (orders - 1.0)
    bound = np.where(full, mean, -np.inf)
    if p.ndim == 1:
        return float(value[0]), float(bound[0])
    return value.reshape(p.shape[:-1]), bound.reshape(p.shape[:-1])


def matrix_power(matrix, r: float) -> np.ndarray:
    """Spectral power ``A^r`` of a PSD matrix (PD required when ``r < 0``):
    ``power_spectrum``'s ``w^r`` on the support and 0 off it, except that
    ``A^0`` is the identity even off the support.
    """
    dec = psd_decompose(_single(matrix), "matrix")
    w = dec.eigenvalues
    if r < 0.0 and not positive_definite(w):
        raise SingularPower(
            f"negative power {r} of a singular matrix (min eigenvalue {w[0]:.3e})"
        )
    if r == 0.0:
        return np.eye(w.size, dtype=np.complex128)
    return recombine(dec.eigenvectors, power_spectrum(w, r))


def log_det(matrix) -> float:
    """Natural-log determinant of a positive definite matrix."""
    _, w = spectral_values(_single(matrix))
    if not positive_definite(w):
        raise NotPd(f"log_det needs a positive definite matrix (min eig {w[0]:.3e})")
    return float(np.sum(np.log(w)))


def kron(a, b) -> np.ndarray:
    """Kronecker product with A-major composite indexing."""
    return np.kron(as_hermitian(_single(a)), as_hermitian(_single(b)))


def _partial_trace(m: np.ndarray, d_a: int, d_b: int, factor: int) -> np.ndarray:
    """Trace factor 0 (A) or 1 (B) out of a validated matrix, or out of each of a stack."""
    if d_a <= 0 or d_b <= 0 or m.shape[-1] != d_a * d_b:
        raise DimensionMismatch(f"matrix dimension {m.shape[-1]} != d_a*d_b = {d_a}*{d_b}")
    split = m.reshape(m.shape[:-2] + (d_a, d_b, d_a, d_b))
    return np.trace(split, axis1=factor - 4, axis2=factor - 2)


def partial_trace_b(matrix, d_a: int, d_b: int) -> np.ndarray:
    """Trace out the second factor of a ``d_a * d_b`` composite matrix."""
    return _partial_trace(as_hermitian(_single(matrix)), d_a, d_b, 1)


def partial_trace_a(matrix, d_a: int, d_b: int) -> np.ndarray:
    """Trace out the first factor of a ``d_a * d_b`` composite matrix."""
    return _partial_trace(as_hermitian(_single(matrix)), d_a, d_b, 0)


def trace_product(a: np.ndarray, b: np.ndarray):
    """``tr(AB)`` as the real part of the entrywise sum of A[i,j] B[j,i]; for
    two stacks, an array of it for each pair of matrices."""
    terms = a * b.swapaxes(-1, -2)
    return np.sum(terms.reshape(terms.shape[:-2] + (-1,)), axis=-1).real


def _psd_pair(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The validated stacks of two same-size PSD matrices, or of two stacks
    of them, and their spectra under ``clip_spectrum``, the shape checked
    first; one matrix comes back as a stack of one."""
    am, w_a = _stacked_values(a)
    bm, w_b = _stacked_values(b)
    if am.shape != bm.shape:
        raise DimensionMismatch("A and B must share dimensions")
    return am, clip_spectrum(w_a, "A"), bm, clip_spectrum(w_b, "B")


def _finite_sides(name: str, *sides: np.ndarray) -> None:
    """SideOverflow unless every side of the check ``name`` is finite."""
    if not all(np.isfinite(side).all() for side in sides):
        raise SideOverflow(f"a side of {name} overflows the float range")


def _lemma2(a, b) -> Verdict:
    """Lemma 2 on PSD A and B, or on each pair of two stacks."""
    am, _, bm, _ = _psd_pair(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        tr_ab = trace_product(am, bm)
        tr_a = np.trace(am, axis1=-2, axis2=-1).real
        tr_b = np.trace(bm, axis1=-2, axis2=-1).real
        product = tr_a * tr_b
    _finite_sides("lemma2", tr_ab, product)
    parts = [("lower", np.zeros_like(tr_ab), tr_ab), ("upper", tr_ab, product)]
    return chain("lemma2", parts, {"trace_product": tr_ab})


def lemma2_check(a, b) -> BoundReport:
    """Check ``0 <= tr(AB) <= tr(A) tr(B)`` for PSD A, B; SideOverflow where
    a side overflows."""
    return _lemma2(_single(a), _single(b))[0]


def _lemma3(a, b) -> Verdict:
    """Lemma 3 on same-size PSD A and B, or on each pair of two stacks."""
    am, w_a, bm, w_b = _psd_pair(a, b)
    n = am.shape[-1]
    with np.errstate(over="ignore"):
        det_a = np.prod(w_a, axis=-1)
        det_b = np.prod(w_b, axis=-1)
    regular = (w_a[:, 0] > 0.0) & (w_b[:, 0] > 0.0)
    # a singular pair's side is 0, whatever the logarithms of its ones give
    mean_a = np.log(np.where(regular[:, None], w_a, 1.0)).mean(axis=-1)
    mean_b = np.log(np.where(regular[:, None], w_b, 1.0)).mean(axis=-1)
    lhs = np.array([
        n * math.exp(ma) * math.exp(mb) if r else 0.0
        for ma, mb, r in zip(mean_a.tolist(), mean_b.tolist(), regular.tolist())
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = trace_product(am, bm)
    _finite_sides("lemma3", lhs, rhs)
    return chain("lemma3", [("amgm", lhs, rhs)], {"det_a": det_a, "det_b": det_b})


def lemma3_check(a, b) -> BoundReport:
    """Check ``n (det A det B)^(1/n) <= tr(AB)`` for same-size PSD A, B.

    The left side is ``n`` times the two geometric means of the spectra,
    formed from the log-determinants so it stays finite and nonzero where
    the reported determinants over- or underflow; it is 0 when A or B is
    singular.  Equality is the report's slack rule: the two sides meet
    exactly when ``AB`` is a multiple of the identity.  A side past the
    float range is SideOverflow.
    """
    return _lemma3(_single(a), _single(b))[0]


def _lemma4(a) -> Verdict:
    """Lemma 4 on a PD matrix, or on each matrix of a stack."""
    am, w = _stacked_values(a)
    regular = positive_definite(w)
    if not regular.all():
        low = np.extract(~regular, w[:, 0])[0]
        raise NotPd(f"lemma4 needs a positive definite matrix (min eig {low:.3e})")
    with np.errstate(over="ignore"):
        lower = np.sum(1.0 - 1.0 / w, axis=-1)
        mid = np.sum(np.log(w), axis=-1)
        upper = np.sum(w - 1.0, axis=-1)
    _finite_sides("lemma4", lower, upper)
    eq = np.abs(am - np.eye(am.shape[-1])).max(axis=(-2, -1)) <= EQ_TOL
    return chain("lemma4", [("lower", lower, mid), ("upper", mid, upper)], {"log_det": mid}, eq)


def lemma4_check(a) -> BoundReport:
    """Check ``tr(I - A^{-1}) <= log det(A) <= tr(A - I)`` for PD A.

    Natural log throughout; equality detected when ``A`` is the identity to
    within ``EQ_TOL`` in max-norm.  A side past the float range is
    SideOverflow.
    """
    return _lemma4(_single(a))[0]
