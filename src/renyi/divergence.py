"""Renyi relative entropy, its lower bounds, and the optimized quantities.

The conditional entropy and mutual information are defined through a
minimization of ``D_alpha(rho_AB || ref_A (x) sigma_B)`` over density
matrices ``sigma_B``.  For alpha > 1 the minimum has a closed form (Sibson's
identity): with ``C_B = tr_A[rho_AB^alpha (ref_A^(1-alpha) (x) 1)]``,

    min_sigma D_alpha = alpha/(alpha-1) ln tr C_B^(1/alpha),
    sigma_B* = C_B^(1/alpha) / tr C_B^(1/alpha),

and the divergence at any ``sigma_B`` equals the minimum plus
``D_alpha(sigma_B* || sigma_B) >= 0``.  C_B is never formed: both come from
the SVD of a Gram factor ``C_B = G^H G`` with log-scaled rows, so C_B's
small eigenvalues keep relative precision.  ``t5_closed_form`` stays as a
cross check, from the same graded factor of ``tr_A rho_AB^(-alpha)``; the
tests compare the minimum with a Bloch-ball zoom grid.

All divergences are in nats.  Orders go through ``linalg.check_order``:
alpha >= 0 with alpha != 1 for ``D_alpha``, alpha > 1 for everything else.
``D_alpha``, t4, t5 and the triangle come from ``linalg.petz_divergence``,
finite at every order.  t4, t6, the triangle and the Sibson minimum (with
its Gram factor) are kernels over stacks of states, each public bound,
optimized quantity and t5 its kernel on a stack of one.  A Gram factor
weight that underflows to 0 raises ``AlphaOutOfRange``, never a bare
arithmetic error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    AlphaOutOfRange,
    DimensionMismatch,
    MarginalSingular,
    NotBipartite,
    NotPd,
    SigmaSingular,
)
from .linalg import (
    SpectralDecomposition,
    _as_stack,
    _partial_trace,
    _single,
    check_order,
    petz_divergence,
    positive_definite,
    power_spectrum,
    psd_decompose,
    recombine,
    spectral_decompose,
)
from .quantum import DensityMatrix, _density_decompose
from .report import BoundReport, Verdict, chain, chain_tight, normalized_slack

@dataclass(frozen=True)
class DivergenceResult:
    """``equality_case``: for alpha > 1, t4's slack rule, i.e. whether sigma
    is proportional to ``rho^(alpha/(alpha-1))``; False otherwise."""

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
    sigma_b: DensityMatrix


def _sigma_spectrum(sigma, alpha) -> SpectralDecomposition:
    """Validate a PSD reference matrix, or a stack of them, enforcing PD where
    alpha (one order, or one per matrix) is above 1, under the support rule:
    dust ``<= ZERO_THRESHOLD * w_max`` is 0 at every scale of sigma."""
    dec = psd_decompose(sigma, "sigma")
    if ((np.asarray(alpha) > 1.0) & ~positive_definite(dec.eigenvalues)).any():
        raise SigmaSingular("alpha > 1 requires a positive definite sigma")
    return dec


def _petz(rho: SpectralDecomposition, sigma: SpectralDecomposition, alpha):
    """``D_alpha(rho || sigma)`` and its t4 bound from the two decompositions,
    or per pair of two stacked ones, through ``linalg.petz_divergence``."""
    if sigma.eigenvalues.shape != rho.eigenvalues.shape:
        raise DimensionMismatch("rho and sigma must share dimensions")
    overlap = np.abs(rho.eigenvectors.conj().swapaxes(-1, -2) @ sigma.eigenvectors) ** 2
    return petz_divergence(rho.eigenvalues, sigma.eigenvalues, overlap, alpha)


def renyi_relative_entropy(
    rho: DensityMatrix, sigma, alpha: float
) -> DivergenceResult:
    """``D_alpha(rho || sigma) = (alpha-1)^(-1) ln tr(rho^alpha sigma^(1-alpha))``.

    ``sigma`` is any PSD Hermitian matrix (unit trace not required; the
    identity is a legitimate reference).  For alpha > 1 it must be positive
    definite.
    """
    alpha = float(check_order(alpha, "alpha", closed=True))
    value, bound = _petz(rho.spectrum, _sigma_spectrum(sigma, alpha), alpha)
    equality = alpha > 1.0 and bool(chain_tight([normalized_slack(bound, value)]))
    return DivergenceResult(value, alpha, equality)


def _t4(rho: DensityMatrix, sigma, alpha) -> Verdict:
    """t4 on the state and the matrix sigma, or per pair of a stack of states
    and a stack of matrices, at one order or one order per pair."""
    alpha = check_order(alpha, "alpha", low=1.0)
    rho = _as_stack(rho.spectrum)
    if not positive_definite(rho.eigenvalues).all():
        raise NotPd("rho must be positive definite")
    dec = _as_stack(spectral_decompose(sigma))
    if not positive_definite(dec.eigenvalues).all():
        raise NotPd("sigma must be positive definite")
    value, bound = _petz(rho, dec, alpha)
    return chain("t4", [("t4", bound, value)], {"divergence": value, "bound": bound})


def t4_lower_bound(rho: DensityMatrix, sigma, alpha: float) -> BoundReport:
    """Dimension/determinant lower bound on ``D_alpha`` for PD inputs, alpha > 1.

    ``bound = (alpha-1)^(-1) (ln d + (alpha/d) ln det rho
    + ((1-alpha)/d) ln det sigma)``, tight exactly when ``sigma`` is
    proportional to ``rho^(alpha/(alpha-1))``.
    """
    return _t4(rho, _single(sigma), alpha)[0]


def _bipartite_dims(rho_ab: DensityMatrix) -> tuple[int, int]:
    if rho_ab.dims is None:
        raise NotBipartite("density matrix carries no (d_a, d_b) tag")
    return rho_ab.dims


def _reference(rho_ab: DensityMatrix, mode: str) -> SpectralDecomposition:
    """ref_A's spectrum as a stack: of one ``mu_A`` for ``mode="conditional"``, of
    the marginals ``rho_A`` for ``mode="mutual"``, which must be positive definite."""
    d_a, d_b = _bipartite_dims(rho_ab)
    if mode == "conditional":
        return SpectralDecomposition(np.full((1, d_a), 1.0 / d_a), np.eye(d_a)[None])
    rho_a = _as_stack(_density_decompose(_partial_trace(rho_ab.matrix, d_a, d_b, 1)))
    if not positive_definite(rho_a.eigenvalues).all():
        raise MarginalSingular("marginal rho_A must be positive definite")
    return rho_a


def _gram_factor(
    rho: SpectralDecomposition, basis: np.ndarray, t: np.ndarray, alpha: np.ndarray
) -> tuple[np.ndarray, SpectralDecomposition]:
    """SVD of the graded factor G of ``sum_ik e^(alpha t_ik) b_ik b_ik^H``,
    per state of a stack with its basis, ``t`` and order along the stack.

    G has a row ``e^((alpha/2) (t_ik - top)) conj(b_ik)``, ``b_ik = (<v_k| (x)
    1) u_i``, per support eigenvector u_i of the decomposed state (its last m,
    m the last axis of ``t``) and column v_k of ``basis``, a basis of A, whose
    order is d_A; ``top`` is the largest ``t_ik`` with ``b_ik != 0``, and a
    weight that underflows to 0 raises AlphaOutOfRange.  Returns ``top`` and
    G's singular values (ascending) with its right singular vectors.
    """
    k, d_a, m = len(t), basis.shape[-1], t.shape[-1]
    u = rho.eigenvectors[..., -m:].reshape(k, d_a, -1, m)
    rows = np.einsum("zak,zabi->zkib", basis, u.conj())
    nonzero = (rows != 0.0).any(axis=-1)
    top = np.where(nonzero, t, -np.inf).max(axis=(1, 2), keepdims=True)
    # a difference past the float range is -inf, and its weight exactly 0
    with np.errstate(over="ignore"):
        weight = np.where(nonzero, np.exp(alpha[:, None, None] / 2.0 * (t - top)), 0.0)
    under = nonzero & (weight == 0.0)
    if np.count_nonzero(under):
        order = float(alpha[under.any(axis=(1, 2))][0])
        raise AlphaOutOfRange(f"a Gram factor weight underflows at alpha = {order!r}")
    g = (weight[..., None] * rows).reshape(k, -1, rows.shape[-1])
    # each row's np.linalg.norm, inlined, sorted falling
    norm = np.sqrt(np.add.reduce((g.conj() * g).real, axis=-1))
    g = g[np.arange(k)[:, None], np.argsort(-norm, kind="stable")]
    _, s, vh = np.linalg.svd(g, full_matrices=False)
    return top[:, 0, 0], SpectralDecomposition(s[:, ::-1], vh[:, ::-1].conj().swapaxes(-1, -2))


def _sibson(
    rho: SpectralDecomposition, alpha: np.ndarray, ref: SpectralDecomposition
) -> tuple[np.ndarray, SpectralDecomposition, np.ndarray]:
    """``min_sigma D_alpha(rho_AB || ref_A (x) sigma_B)`` over density sigma_B
    per state of a stack of one support size, with its order and reference
    along the stack, and the minimizer's eigenbasis and spectrum.

    Exact by Sibson's identity, from ``C_B = G^H G`` without forming C_B: G is
    the ``_gram_factor`` over ref's eigenvectors v_k with ``t_ik = ln p_i - ln
    a_k + (ln a_k)/alpha`` for rho's support eigenvalues p_i and ref's a_k.
    G's singular values s_j give ``tr C_B^(1/alpha) = e^top sum_j
    s_j^(2/alpha)``, and its right singular vectors the minimizer.  A row
    has the bits of its own stack of one.
    """
    w, ln_a = rho.eigenvalues, np.log(ref.eigenvalues)[:, :, None]
    # 2 s_ik / alpha (no order overflows) on each support: the last entries, as many as row 0's
    t = np.log(w[:, -np.count_nonzero(w[0]):])[:, None, :] - ln_a + ln_a / alpha[:, None, None]
    top, dec = _gram_factor(rho, ref.eigenvectors, t, alpha)
    root = power_spectrum(dec.eigenvalues, 2.0 / alpha)
    total = root.sum(axis=-1)
    value = top + np.array([math.log(x) for x in total.tolist()])
    return alpha / (alpha - 1.0) * value, dec, root / total[:, None]


def _optimize(rho_ab: DensityMatrix, alpha: float, mode: str) -> OptimizationOutcome:
    """The ``_sibson`` minimum against ``_reference(rho_ab, mode)`` on a stack
    of one, with sigma_B* as a state."""
    alpha = np.array([check_order(alpha, "alpha", low=1.0)])
    value, dec, sigma = _sibson(_as_stack(rho_ab.spectrum), alpha, _reference(rho_ab, mode))
    sigma_b = DensityMatrix(recombine(dec.eigenvectors[0], sigma[0]))
    return OptimizationOutcome(float(value[0]), sigma_b)


def conditional_entropy(
    rho_ab: DensityMatrix, alpha: float
) -> tuple[float, OptimizationOutcome]:
    """``H_alpha(A|B) = ln d_A - min_sigma D_alpha(rho_AB || mu_A (x) sigma_B)``.

    ``mu_A`` is the maximally mixed state on A.  Returns the value in nats
    together with the minimizer record.
    """
    outcome = _optimize(rho_ab, alpha, "conditional")
    return math.log(rho_ab.dims[0]) - outcome.optimum_value, outcome


def mutual_information(
    rho_ab: DensityMatrix, alpha: float
) -> tuple[float, OptimizationOutcome]:
    """``I_alpha(A;B) = min_sigma D_alpha(rho_AB || rho_A (x) sigma_B)``."""
    outcome = _optimize(rho_ab, alpha, "mutual")
    return outcome.optimum_value, outcome


def t5_closed_form(rho_ab: DensityMatrix, alpha: float, mode: str) -> T5ClosedForm | None:
    """Optimized quantity evaluated where the determinant bound is tight.

    Lemma 3 on ``rho_AB^alpha`` and ``tau^(1-alpha)``, ``tau = ref_A (x) sigma_B``
    (``ref_A`` is ``mu_A`` for ``mode="conditional"``, ``rho_A`` for
    ``mode="mutual"``), is tight only when ``tau^(1-alpha)`` is proportional to
    ``rho_AB^(-alpha)``: ``sigma_B ~ (tr_A rho_AB^(-alpha))^(1/(1-alpha))``, and
    the value is ``D_alpha(rho_AB || tau)``, or None unless ``sigma_B`` is PD and
    t4's slack rule holds at ``tau``.  ``tr_A rho_AB^(-alpha)`` is never formed:
    it is ``G^H G`` for the ``_gram_factor`` on A's standard basis with ``t_ik =
    -ln p_i``, so sigma_B is G's ``s_j^(2/(1-alpha))`` on its right singular
    vectors, normalized.  The value is the optimum only when that ``sigma_B``
    is also the minimizer (as for maximally mixed states); otherwise it lies
    on the feasible side (below H_alpha(A|B), above I_alpha(A;B)).
    """
    alpha = float(check_order(alpha, "alpha", low=1.0))
    if mode not in ("conditional", "mutual"):
        raise ValueError(f"mode must be 'conditional' or 'mutual', got {mode!r}")
    d_a, _ = _bipartite_dims(rho_ab)
    if not rho_ab.is_positive_definite:
        return None
    t = -np.log(rho_ab.eigenvalues)[None, None]
    try:
        _, g = _gram_factor(_as_stack(rho_ab.spectrum), np.eye(d_a)[None], t, np.array([alpha]))
    except AlphaOutOfRange:
        return None
    s, v = g.eigenvalues[0], g.eigenvectors[0]
    if not positive_definite(s):
        return None
    # ratios >= 1 to a negative power: none overflows, and the sum is >= 1
    root = power_spectrum(s / s[0], 2.0 / (1.0 - alpha))
    root /= float(np.sum(root))
    sigma_b = DensityMatrix(recombine(v, root))
    if not sigma_b.is_positive_definite:
        return None
    ref = _reference(rho_ab, mode)
    # tau from its factors' spectra keeps its small eigenvalues' relative precision
    tau = SpectralDecomposition(np.kron(ref.eigenvalues[0], root), np.kron(ref.eigenvectors[0], v))
    value, bound = _petz(rho_ab.spectrum, tau, alpha)
    if not chain_tight([normalized_slack(bound, value)]):
        return None
    return T5ClosedForm(math.log(d_a) - value if mode == "conditional" else value, sigma_b)


def _t6(rho_ab: DensityMatrix, alpha) -> Verdict:
    """t6 on a PD bipartite state, or on each state of a stack of one tag, at
    one order or one per state: the bound from the stacked spectra, and the
    mutual information from one ``_sibson`` call on the stack."""
    alpha = check_order(alpha, "alpha", low=1.0)
    dims = _bipartite_dims(rho_ab)
    rho = _as_stack(rho_ab.spectrum)
    if not positive_definite(rho.eigenvalues).all():
        raise NotPd("t6 bound requires a positive definite state")
    d = dims[0] * dims[1]
    logdet = np.sum(np.log(rho.eigenvalues), axis=-1)
    bound = alpha / (alpha - 1.0) * (math.log(d) + logdet / d)
    value = _sibson(rho, np.broadcast_to(alpha, bound.shape), _reference(rho_ab, "mutual"))[0]
    return chain("t6", [("t6", bound, value)], {"mutual_information": value, "bound": bound})


def t6_lower_bound(rho_ab: DensityMatrix, alpha: float) -> BoundReport:
    """Determinant lower bound on the mutual information for PD states.

    ``bound = alpha/(alpha-1) (ln(d_A d_B) + ln det(rho_AB)/(d_A d_B))`` in
    nats; the report compares it against the exact mutual information at
    ``CHAIN_TOL`` and flags equality when the two agree to ``EQ_TOL``.
    """
    return _t6(rho_ab, alpha)[0]


def _triangle(rho: DensityMatrix, sigma, alpha) -> Verdict:
    """The triangle check on the state and the matrix sigma, or per pair of a
    stack of states and a stack of matrices, at one order or one order per
    pair."""
    alpha = check_order(alpha, "alpha", low=1.0)
    rho = _as_stack(rho.spectrum)
    dec = _as_stack(_sigma_spectrum(sigma, alpha))
    lhs, _ = _petz(rho, dec, alpha)
    # I shares each operand's eigenbasis; D(rho || I) = -H_alpha(rho)
    ones = np.ones(rho.eigenvalues.shape)
    same = np.broadcast_to(np.eye(ones.shape[-1]), rho.eigenvectors.shape)
    d_rho_i, _ = petz_divergence(rho.eigenvalues, ones, same, alpha)
    d_i_sigma, _ = petz_divergence(ones, dec.eigenvalues, same, alpha)
    return chain(
        "triangle",
        [("triangle", lhs, d_rho_i + d_i_sigma)],
        {"d_rho_identity": d_rho_i, "d_identity_sigma": d_i_sigma},
    )


def triangle_bound_check(rho: DensityMatrix, sigma, alpha: float) -> BoundReport:
    """Check ``D(rho||sigma) <= D(rho||I) + D(I||sigma)`` for alpha > 1."""
    return _triangle(rho, _single(sigma), alpha)[0]
