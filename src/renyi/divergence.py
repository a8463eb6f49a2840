"""Renyi relative entropy, its lower bounds, and the optimized quantities.

The conditional entropy and mutual information are defined through a
minimization of ``D_alpha(rho_AB || ref_A (x) sigma_B)`` over density
matrices ``sigma_B``.  For alpha > 1 the minimum has a closed form (Sibson's
identity): with ``C_B = tr_A[rho_AB^alpha (ref_A^(1-alpha) (x) 1)]``,

    min_sigma D_alpha = alpha/(alpha-1) ln tr C_B^(1/alpha),
    sigma_B* = C_B^(1/alpha) / tr C_B^(1/alpha),

and the divergence at any ``sigma_B`` equals the minimum plus
``D_alpha(sigma_B* || sigma_B) >= 0``.  The paper's proportionality
special case (``t5_closed_form``) stays as a cross check; the tests compare
the minimum with a brute-force zoom grid over the Bloch ball.

All divergences are in nats.  At extreme orders a power can leave the float
range; a trace that is then undefined (``0 * inf``) or an overflowing
``d_A^(alpha-1)`` raises a typed error, never a bare arithmetic exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    AlphaOne,
    AlphaOutOfRange,
    DimensionMismatch,
    MarginalSingular,
    NotBipartite,
    NotPd,
    NotPsd,
    SigmaSingular,
    TraceNonpositive,
)
from .linalg import (
    EQ_TOL,
    ORDER_ONE_BAND,
    PSD_TOL,
    SpectralDecomposition,
    _partial_trace,
    clip_spectrum,
    max_abs,
    partial_trace_a,
    partial_trace_b,
    power_spectrum,
    recombine,
    spectral_decompose,
    spectral_entropy,
    trace_product,
)
from .quantum import DensityMatrix
from .report import BoundReport, chain_report

@dataclass(frozen=True)
class DivergenceResult:
    value: float
    alpha: float
    equality_case: bool


@dataclass(frozen=True)
class OptimizationOutcome:
    optimum_value: float
    optimizer_sigma: DensityMatrix


@dataclass(frozen=True)
class T5ClosedForm:
    value: float
    c: float
    sigma_b: DensityMatrix


def _check_alpha_nonneg(alpha: float) -> float:
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha < 0.0:
        raise AlphaOutOfRange(f"alpha must be >= 0, got {alpha!r}")
    if abs(alpha - 1.0) < ORDER_ONE_BAND:
        raise AlphaOne("alpha = 1 is not admitted for the relative entropy")
    return alpha


def _check_alpha_gt1(alpha: float) -> float:
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha <= 1.0:
        raise AlphaOutOfRange(f"alpha must exceed 1, got {alpha!r}")
    if alpha - 1.0 < ORDER_ONE_BAND:
        raise AlphaOne("alpha is indistinguishable from 1")
    return alpha


def _density_power(rho: DensityMatrix, exponent: float) -> np.ndarray:
    # the mask makes rho^0 the support projector, the 0+ limit, not 0**0 = 1
    w = rho.eigenvalues
    return recombine(rho.spectrum, power_spectrum(w, exponent) * (w > 0.0))


def _sigma_spectrum(sigma, alpha: float) -> SpectralDecomposition:
    """Validate a PSD reference matrix, enforcing PD when alpha > 1."""
    dec = spectral_decompose(sigma)
    if float(dec.eigenvalues[0]) < -PSD_TOL:
        raise NotPsd(f"sigma has eigenvalue {dec.eigenvalues[0]:.3e}")
    if alpha > 1.0 and float(dec.eigenvalues[0]) <= PSD_TOL:
        raise SigmaSingular("alpha > 1 requires a positive definite sigma")
    return dec


def _divergence_terms(
    rho: DensityMatrix, dec: SpectralDecomposition, alpha: float
) -> tuple[float, bool, float | None]:
    """``D_alpha(rho || sigma)``, the proportionality flag and ``c`` from
    sigma's decomposition.

    The flag tests ``sigma^(1-alpha) == c rho^alpha`` with
    ``c = tr(sigma^(1-alpha)) / tr(rho^alpha)``; both are only computed for
    alpha > 1 (otherwise False and None).
    """
    if dec.eigenvalues.size != rho.dim:
        raise DimensionMismatch("rho and sigma must share dimensions")
    rho_pow = _density_power(rho, alpha)
    sigma_pow = recombine(dec, power_spectrum(clip_spectrum(dec.eigenvalues), 1.0 - alpha))
    t = trace_product(rho_pow, sigma_pow)
    if not t > 0.0:  # also catches NaN, from 0 * inf at extreme orders
        raise TraceNonpositive(f"tr(rho^a sigma^(1-a)) = {t!r} is not positive")
    equality, c = False, None
    if alpha > 1.0:
        c = float(np.trace(sigma_pow).real) / float(np.trace(rho_pow).real)
        scaled = c * rho_pow
        scale = 1.0 + max(max_abs(sigma_pow), max_abs(scaled))
        equality = max_abs(sigma_pow - scaled) <= EQ_TOL * scale
    return math.log(t) / (alpha - 1.0), equality, c


def renyi_relative_entropy(
    rho: DensityMatrix, sigma, alpha: float
) -> DivergenceResult:
    """``D_alpha(rho || sigma) = (alpha-1)^(-1) ln tr(rho^alpha sigma^(1-alpha))``.

    ``sigma`` is any PSD Hermitian matrix (unit trace not required; the
    identity is a legitimate reference).  For alpha > 1 it must be positive
    definite.  The ``equality_case`` flag records whether sigma is, up to the
    trace-matched constant, the power of rho that makes the dimension bound
    tight; it is only meaningful (and only computed) for alpha > 1.
    """
    alpha = _check_alpha_nonneg(alpha)
    value, equality, _ = _divergence_terms(rho, _sigma_spectrum(sigma, alpha), alpha)
    return DivergenceResult(value, alpha, equality)


def equality_condition_check(
    rho: DensityMatrix, sigma, alpha: float
) -> tuple[bool, float]:
    """Test ``sigma^(1-alpha) == c rho^alpha`` with ``c`` trace-matched.

    Returns the flag and ``c = tr(sigma^(1-alpha)) / tr(rho^alpha)``.
    """
    alpha = _check_alpha_gt1(alpha)
    dec = spectral_decompose(sigma)
    if float(dec.eigenvalues[0]) <= PSD_TOL:
        raise NotPd("equality condition requires a positive definite sigma")
    _, equality, c = _divergence_terms(rho, dec, alpha)
    return equality, c


def t4_lower_bound(rho: DensityMatrix, sigma, alpha: float) -> BoundReport:
    """Dimension/determinant lower bound on ``D_alpha`` for PD inputs, alpha > 1.

    ``bound = (alpha-1)^(-1) (ln d + (alpha/d) ln det rho
    + ((1-alpha)/d) ln det sigma)``.
    """
    alpha = _check_alpha_gt1(alpha)
    if not rho.is_positive_definite:
        raise NotPd("rho must be positive definite")
    dec = spectral_decompose(sigma)
    if float(dec.eigenvalues[0]) <= PSD_TOL:
        raise NotPd("sigma must be positive definite")
    if dec.eigenvalues.size != rho.dim:
        raise DimensionMismatch("rho and sigma must share dimensions")
    d = rho.dim
    logdet_rho = float(np.sum(np.log(rho.eigenvalues)))
    logdet_sigma = float(np.sum(np.log(dec.eigenvalues)))
    bound = (
        math.log(d) + alpha / d * logdet_rho + (1.0 - alpha) / d * logdet_sigma
    ) / (alpha - 1.0)
    value, eq, c = _divergence_terms(rho, dec, alpha)
    return chain_report(
        "t4",
        [("t4", bound, value)],
        extras={"divergence": value, "bound": bound, "c": c},
        equality=eq,
    )


def _bipartite_dims(rho_ab: DensityMatrix) -> tuple[int, int]:
    if rho_ab.dims is None:
        raise NotBipartite("density matrix carries no (d_a, d_b) tag")
    return rho_ab.dims


def _contraction(rho_ab: DensityMatrix, alpha: float, x_a: np.ndarray) -> np.ndarray:
    """``C_B = tr_A[rho^alpha (X_A (x) 1)]``.

    Collapses ``tr(rho^alpha (X_A (x) Y_B))`` to ``tr(C_B Y_B)``.
    """
    d_a, d_b = _bipartite_dims(rho_ab)
    r = _density_power(rho_ab, alpha).reshape(d_a, d_b, d_a, d_b)
    return np.einsum("abcd,ca->bd", r, x_a)


def _mixed_power(d_a: int, alpha: float) -> np.ndarray:
    """``mu_A^(1-alpha) = d_A^(alpha-1) I``, or a typed error past float range."""
    try:
        return d_a ** (alpha - 1.0) * np.eye(d_a, dtype=np.complex128)
    except OverflowError:
        raise AlphaOutOfRange(f"d_A^(alpha-1) overflows at alpha = {alpha!r}") from None


def _minimize_over_sigma(
    rho_ab: DensityMatrix, alpha: float, x_a: np.ndarray
) -> OptimizationOutcome:
    """Minimize ``D_alpha(rho_AB || ref_A (x) sigma_B)`` over density sigma_B.

    ``x_a = ref_A^(1-alpha)`` is the fixed reference factor already powered.
    Exact by Sibson's identity: the minimizer is ``C_B^(1/alpha)`` normalized,
    with ``C_B`` the contraction of ``rho_AB^alpha`` against ``x_a``.
    """
    dec = spectral_decompose(_contraction(rho_ab, alpha, x_a))
    root = power_spectrum(clip_spectrum(dec.eigenvalues), 1.0 / alpha)
    total = float(np.sum(root))
    return OptimizationOutcome(
        optimum_value=alpha / (alpha - 1.0) * math.log(total),
        optimizer_sigma=DensityMatrix(recombine(dec, root / total)),
    )


def conditional_entropy(
    rho_ab: DensityMatrix, alpha: float
) -> tuple[float, OptimizationOutcome]:
    """``H_alpha(A|B) = ln d_A - min_sigma D_alpha(rho_AB || mu_A (x) sigma_B)``.

    ``mu_A`` is the maximally mixed state on A.  Returns the value in nats
    together with the minimizer record.
    """
    alpha = _check_alpha_gt1(alpha)
    d_a, _ = _bipartite_dims(rho_ab)
    outcome = _minimize_over_sigma(rho_ab, alpha, _mixed_power(d_a, alpha))
    return math.log(d_a) - outcome.optimum_value, outcome


def mutual_information(
    rho_ab: DensityMatrix, alpha: float
) -> tuple[float, OptimizationOutcome]:
    """``I_alpha(A;B) = min_sigma D_alpha(rho_AB || rho_A (x) sigma_B)``."""
    alpha = _check_alpha_gt1(alpha)
    d_a, d_b = _bipartite_dims(rho_ab)
    rho_a = DensityMatrix(_partial_trace(rho_ab.matrix, d_a, d_b, 1))
    if not rho_a.is_positive_definite:
        raise MarginalSingular("marginal rho_A must be positive definite")
    x_a = _density_power(rho_a, 1.0 - alpha)
    outcome = _minimize_over_sigma(rho_ab, alpha, x_a)
    return outcome.optimum_value, outcome


def subsystem_entropy(rho: DensityMatrix, alpha: float) -> float:
    """``H_alpha(A) = -D_alpha(rho || identity)`` in nats."""
    return -renyi_relative_entropy(
        rho, np.eye(rho.dim, dtype=np.complex128), alpha
    ).value


def t5_closed_form(
    rho_ab: DensityMatrix, alpha: float, mode: str
) -> T5ClosedForm | None:
    """Optimized quantity evaluated where the determinant bound is tight.

    Looks for ``sigma_B`` with ``ref_A^(1-alpha) (x) sigma_B^(1-alpha)
    = c rho_AB^alpha`` (``ref_A`` is ``mu_A`` for ``mode="conditional"``,
    ``rho_A`` for ``mode="mutual"``) by factorizing ``rho_AB^alpha`` through
    its partial traces.   Returns None when the condition fails.  The value
    is the optimum only when that ``sigma_B`` is also the minimizer (as for
    maximally mixed states); otherwise it lies on the feasible side (below
    the conditional entropy, above the mutual information).
    """
    alpha = _check_alpha_gt1(alpha)
    if mode not in ("conditional", "mutual"):
        raise ValueError(f"mode must be 'conditional' or 'mutual', got {mode!r}")
    d_a, d_b = _bipartite_dims(rho_ab)
    if not rho_ab.is_positive_definite:
        return None
    m_alpha = _density_power(rho_ab, alpha)
    tr_m = float(np.trace(m_alpha).real)
    x0 = partial_trace_b(m_alpha, d_a, d_b)
    y0 = partial_trace_a(m_alpha, d_a, d_b)
    if max_abs(m_alpha - np.kron(x0, y0) / tr_m) > EQ_TOL * (1.0 + max_abs(m_alpha)):
        return None
    if mode == "conditional":
        trial = x0
        ref_pow = _mixed_power(d_a, alpha)
    else:
        rho_a = DensityMatrix(_partial_trace(rho_ab.matrix, d_a, d_b, 1))
        if not rho_a.is_positive_definite:
            return None
        ref_pow = _density_power(rho_a, 1.0 - alpha)
        trial = x0 @ _density_power(rho_a, alpha - 1.0)
    dev = trial - float(np.trace(trial).real) / d_a * np.eye(d_a)
    if max_abs(dev) > EQ_TOL * (1.0 + max_abs(trial)):
        return None
    dec_y = spectral_decompose(y0)
    sigma_raw = recombine(dec_y, dec_y.eigenvalues ** (1.0 / (1.0 - alpha)))
    sigma_b = DensityMatrix(sigma_raw / float(np.trace(sigma_raw).real))
    sigma_pow = recombine(sigma_b.spectrum, sigma_b.eigenvalues ** (1.0 - alpha))
    lhs = np.kron(ref_pow, sigma_pow)
    c = float(np.trace(lhs).real) / tr_m
    if max_abs(lhs - c * m_alpha) > EQ_TOL * (1.0 + max_abs(lhs)):
        return None
    d = d_a * d_b
    logdet = float(np.sum(np.log(rho_ab.eigenvalues)))
    optimum = (math.log(d) + 2.0 * alpha / d * logdet + math.log(c)) / (alpha - 1.0)
    value = math.log(d_a) - optimum if mode == "conditional" else optimum
    return T5ClosedForm(value=value, c=c, sigma_b=sigma_b)


def t6_lower_bound(rho_ab: DensityMatrix, alpha: float) -> BoundReport:
    """Determinant lower bound on the mutual information for PD states.

    ``bound = alpha/(alpha-1) (ln(d_A d_B) + ln det(rho_AB)/(d_A d_B))`` in
    nats; the report compares it against the exact mutual information at
    ``CHAIN_TOL`` and flags equality when the two agree to ``EQ_TOL``.
    """
    alpha = _check_alpha_gt1(alpha)
    d_a, d_b = _bipartite_dims(rho_ab)
    if not rho_ab.is_positive_definite:
        raise NotPd("t6 bound requires a positive definite state")
    d = d_a * d_b
    logdet = float(np.sum(np.log(rho_ab.eigenvalues)))
    bound = alpha / (alpha - 1.0) * (math.log(d) + logdet / d)
    value, _ = mutual_information(rho_ab, alpha)
    return chain_report(
        "t6",
        [("t6", bound, value)],
        extras={"mutual_information": value, "bound": bound},
    )


def divergence_vs_identity(rho: DensityMatrix, alpha: float) -> float:
    """``D_alpha(rho || identity) = (alpha-1)^(-1) ln tr rho^alpha``."""
    alpha = _check_alpha_gt1(alpha)
    return -spectral_entropy(rho.eigenvalues, alpha)


def triangle_bound_check(rho: DensityMatrix, sigma, alpha: float) -> BoundReport:
    """Check ``D(rho||sigma) <= D(rho||I) + D(I||sigma)`` for alpha > 1."""
    alpha = _check_alpha_gt1(alpha)
    dec = _sigma_spectrum(sigma, alpha)
    lhs, _, _ = _divergence_terms(rho, dec, alpha)
    d_rho_i = divergence_vs_identity(rho, alpha)
    d_i_sigma = math.log(float(np.sum(dec.eigenvalues ** (1.0 - alpha)))) / (alpha - 1.0)
    rhs = d_rho_i + d_i_sigma
    return chain_report(
        "triangle",
        [("triangle", lhs, rhs)],
        extras={"d_rho_identity": d_rho_i, "d_identity_sigma": d_i_sigma},
    )
