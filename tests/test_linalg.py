import json
import math
import warnings

import numpy as np
import pytest

from renyi.exceptions import (
    DimensionMismatch,
    InvalidDensityMatrix,
    NonHermitianInput,
    NotPd,
    NotPsd,
    SideOverflow,
    SingularPower,
    TraceNonpositive,
)
from renyi.divergence import renyi_relative_entropy, t4_lower_bound, triangle_bound_check
from renyi.harness import SUITES
from renyi.linalg import (
    ZERO_THRESHOLD,
    Definiteness,
    as_hermitian,
    classify_definiteness,
    clip_spectrum,
    kron,
    lemma2_check,
    lemma3_check,
    lemma4_check,
    log_det,
    matrix_power,
    partial_trace_a,
    partial_trace_b,
    petz_divergence,
    positive_definite,
    power_spectrum,
    psd_decompose,
    recombine,
    spectral_decompose,
    spectral_entropy,
    spectral_values,
    trace_product,
)
from renyi.quantum import DensityMatrix, quantum_renyi_entropy
from renyi.report import BoundReport, identity_gap


EPS = np.finfo(np.float64).eps


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_psd(rng, n, rank=None):
    rank = rank or n
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return g @ g.conj().T


class TestSpectralDecompose:
    def test_identity(self):
        dec = spectral_decompose(np.eye(3))
        np.testing.assert_allclose(dec.eigenvalues, [1, 1, 1])
        np.testing.assert_allclose(
            dec.eigenvectors @ dec.eigenvectors.conj().T, np.eye(3), atol=1e-12
        )

    def test_diagonal_sorted(self):
        dec = spectral_decompose(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0, 3.0])
        # eigenvectors permute the axes
        np.testing.assert_allclose(np.abs(dec.eigenvectors), np.eye(3)[:, [1, 2, 0]])

    def test_two_by_two_hand_roots(self):
        # char poly of [[2,1],[1,2]] is (x-1)(x-3)
        dec = spectral_decompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-12)

    def test_matches_numpy_eigh(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            a = random_hermitian(rng, n)
            dec = spectral_decompose(a)
            np.testing.assert_allclose(
                dec.eigenvalues, np.sort(np.linalg.eigvalsh(a)), atol=1e-10
            )

    @pytest.mark.parametrize("exponent", [-560, 560])
    def test_extreme_scales_match_numpy_eigh(self, exponent):
        # a sum of squares of these entries under- or overflows; the solver
        # scales by a power of two first, so the spectrum is still resolved
        rng = np.random.default_rng(13)
        for n in range(1, 9):
            a = math.ldexp(1.0, exponent) * random_hermitian(rng, n)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                w = spectral_decompose(a).eigenvalues
            expected = np.linalg.eigvalsh(a)
            np.testing.assert_allclose(w, expected, rtol=0, atol=1e-10 * np.abs(expected).max())

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            a = random_hermitian(rng, n)
            dec = spectral_decompose(a)
            scale = 1.0 + np.abs(a).max()
            assert np.abs(recombine(dec.eigenvectors, dec.eigenvalues) - a).max() <= 1e-9 * scale
            v = dec.eigenvectors
            assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NonHermitianInput):
            spectral_decompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(DimensionMismatch):
            spectral_decompose(np.zeros((2, 3)))


def test_spectral_values_agree_with_the_jacobi_solver():
    # the LAPACK spectrum of the eigenvalue-only checks against the Jacobi
    # spectrum, on Hermitian and rank-deficient Ginibre matrices: the same
    # values to 1e-12 * max(1, w_max), and the same support under the rule
    rng = np.random.default_rng(2027)
    for trial in range(2_000):
        n = 1 + trial % 8
        psd = trial % 16 >= 8
        if psd:
            a = random_psd(rng, n, int(rng.integers(1, max(n, 2))))
        else:
            a = random_hermitian(rng, n)
        matrix, w = spectral_values(a)
        dec = spectral_decompose(a)
        assert np.array_equal(matrix, dec.matrix)
        tol = 1e-12 * max(1.0, float(dec.eigenvalues[-1]))
        assert np.abs(w - dec.eigenvalues).max() <= tol, trial
        if psd:
            support = np.count_nonzero(clip_spectrum(w))
            assert support == np.count_nonzero(clip_spectrum(dec.eigenvalues)), trial


@pytest.mark.parametrize("exponent", [-1000, -600, 600, 1000])
def test_eigenvalue_checks_at_extreme_scales(exponent):
    # LAPACK scales these matrices itself, as Jacobi scales them by a power
    # of two: log det(cA) - n ln c is log det A up to the rounding of the
    # n logarithms, lemma 4 holds, and each matrix keeps its PSD class
    rng = np.random.default_rng(7000 + exponent)
    c = math.ldexp(1.0, exponent)
    shift = exponent * math.log(2.0)
    for n in range(1, 9):
        pd = random_psd(rng, n) + 0.1 * np.eye(n)
        singular = random_psd(rng, n, max(n - 1, 1)) if n > 1 else None
        indefinite = random_hermitian(rng, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = log_det(c * pd)
            assert abs(scaled - n * shift - log_det(pd)) <= 2 * n * EPS * n * abs(shift)
            rep = lemma4_check(c * pd)
            assert rep.passed and not rep.equality
            assert rep.extras["log_det"] == scaled
            assert classify_definiteness(c * pd).kind is Definiteness.POSITIVE_DEFINITE
            if singular is not None:
                kind = classify_definiteness(c * singular).kind
                assert kind is Definiteness.POSITIVE_SEMIDEFINITE
            w = np.linalg.eigvalsh(indefinite)
            if exponent > 0 and w[0] < 0.0:
                # the NotPsd floor -PSD_TOL * max(1, w_max) is relative above 1
                assert classify_definiteness(c * indefinite).kind is Definiteness.INDEFINITE


class TestMatrixPower:
    def test_identity_sqrt(self):
        np.testing.assert_allclose(matrix_power(np.eye(2), 0.5), np.eye(2), atol=1e-14)

    def test_diagonal_powers(self):
        np.testing.assert_allclose(
            matrix_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-12
        )
        np.testing.assert_allclose(
            matrix_power(np.diag([4.0, 9.0]), -1.0),
            np.diag([0.25, 1.0 / 9.0]),
            atol=1e-12,
        )

    def test_zero_conventions(self):
        # 0^r = 0 for r > 0; matrix_power alone keeps A^0 = I
        proj = np.diag([1.0, 0.0])
        np.testing.assert_allclose(matrix_power(proj, 0.5), proj, atol=1e-14)
        np.testing.assert_allclose(matrix_power(proj, 0.0), np.eye(2), atol=1e-14)

    def test_result_stays_psd(self):
        rng = np.random.default_rng(13)
        for r in (-1.0, -0.5, 0.5, 2.0, 3.0):
            for _ in range(25):
                n = int(rng.integers(1, 7))
                a = random_psd(rng, n) + (np.eye(n) if r < 0 else 0.0)
                powered = matrix_power(a, r)
                w = spectral_decompose(powered).eigenvalues
                assert w.min() >= -1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(14)
        for r in (0.5, 2.0):
            for _ in range(25):
                n = int(rng.integers(1, 7))
                a = random_psd(rng, n) + 0.1 * np.eye(n)
                back = matrix_power(matrix_power(a, r), 1.0 / r)
                assert np.abs(back - a).max() <= 1e-8

    def test_errors(self):
        with pytest.raises(SingularPower):
            matrix_power(np.diag([1.0, 0.0]), -1.0)
        with pytest.raises(NotPsd):
            matrix_power(np.diag([1.0, -1.0]), 0.5)


@pytest.mark.parametrize(
    "r,rank", [(r, rank) for r in (0.0, 0.5, 2.0) for rank in (1, 2, 4)] + [(-1.0, 4)]
)
def test_spectral_power_is_zero_off_the_support(r, rank):
    # w^r on the support and 0 off it: r = 0 gives the support projector
    rng = np.random.default_rng(24 + rank)
    for _ in range(20):
        a = random_psd(rng, 4, rank)
        rho = DensityMatrix(a / np.trace(a).real)
        w, v = np.linalg.eigh(rho.matrix)
        on = w > ZERO_THRESHOLD
        want = (v[:, on] * w[on] ** r) @ v[:, on].conj().T
        dec = rho.spectrum
        got = recombine(dec.eigenvectors, power_spectrum(dec.eigenvalues, r))
        assert np.abs(got - want).max() <= 1e-9 * (1.0 + np.abs(want).max())
        if r == 0.0:
            np.testing.assert_array_equal(matrix_power(rho.matrix, r), np.eye(4))
        else:
            got = matrix_power(rho.matrix, r)
            assert np.abs(got - want).max() <= 1e-9 * (1.0 + np.abs(want).max())


class TestLogDet:
    def test_examples(self):
        assert log_det(np.eye(4)) == pytest.approx(0.0, abs=1e-14)
        assert log_det(np.e * np.eye(2)) == pytest.approx(2.0, rel=1e-12)
        assert log_det(np.diag([2.0, 0.5])) == pytest.approx(0.0, abs=1e-14)

    def test_rejects_singular(self):
        with pytest.raises(NotPd):
            log_det(np.diag([1.0, 0.0]))

    def test_diagonal_dust_is_checked_at_the_matrix_scale(self):
        # numpy's 2x2 product g g† leaves imaginary dust of a few ulps of
        # max|A| on the diagonal; it is bounded like the asymmetry, by
        # HERM_TOL * (1 + max|A|), and a larger imaginary part is rejected
        rng = np.random.default_rng(1)
        for _ in range(200):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            a = 1e7 * g @ g.conj().T
            assert log_det(a) == pytest.approx(np.linalg.slogdet(a)[1], abs=1e-8)
        with pytest.raises(NonHermitianInput):
            log_det(np.diag([1.0 + 1e-9j, 1.0]))

    def test_small_scaled_identity_is_positive_definite(self):
        # definiteness is full support under the support rule, at every scale
        assert log_det(1e-11 * np.eye(3)) == pytest.approx(3.0 * math.log(1e-11), rel=1e-14)


class TestKronAndPartialTrace:
    def test_kron_identity(self):
        np.testing.assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_kron_diagonal(self):
        np.testing.assert_allclose(
            kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])),
            np.diag([3.0, 4.0, 6.0, 8.0]),
        )

    def test_kron_maximally_mixed(self):
        np.testing.assert_allclose(kron(np.eye(2) / 2, np.eye(2) / 2), np.eye(4) / 4)

    def test_kron_trace_multiplicative(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            a = random_hermitian(rng, int(rng.integers(1, 5)))
            b = random_hermitian(rng, int(rng.integers(1, 5)))
            lhs = np.trace(kron(a, b)).real
            rhs = np.trace(a).real * np.trace(b).real
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    def test_partial_trace_maximally_mixed(self):
        np.testing.assert_allclose(
            partial_trace_b(np.eye(4) / 4, 2, 2), np.eye(2) / 2
        )

    def test_partial_trace_by_hand(self):
        got = partial_trace_b(np.diag([0.1, 0.2, 0.3, 0.4]), 2, 2)
        np.testing.assert_allclose(got, np.diag([0.3, 0.7]), atol=1e-14)

    def test_partial_trace_of_product(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            da, db = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            a = random_psd(rng, da)
            b = random_psd(rng, db)
            b /= np.trace(b).real
            np.testing.assert_allclose(
                partial_trace_b(kron(a, b), da, db), a, atol=1e-10
            )
            np.testing.assert_allclose(
                partial_trace_a(kron(a, b), da, db),
                np.trace(a).real * b,
                atol=1e-10 * (1 + np.abs(a).max()),
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace_b(np.eye(6), 2, 2)


class TestClassify:
    @pytest.mark.parametrize(
        "matrix,kind",
        [
            (np.eye(2), Definiteness.POSITIVE_DEFINITE),
            (np.diag([1.0, 0.0]), Definiteness.POSITIVE_SEMIDEFINITE),
            (np.diag([1.0, -1.0]), Definiteness.INDEFINITE),
            (1e-11 * np.eye(2), Definiteness.POSITIVE_DEFINITE),
            # within clip_spectrum's -PSD_TOL * max(1, w_max)
            (np.diag([1e4, -1e-7]), Definiteness.POSITIVE_SEMIDEFINITE),
        ],
    )
    def test_kinds(self, matrix, kind):
        assert classify_definiteness(matrix).kind is kind


class TestLemma2:
    def test_identity_pair(self):
        rep = lemma2_check(np.eye(2), np.eye(2))
        assert rep.extras["trace_product"] == pytest.approx(2.0)
        assert rep.rhs == pytest.approx(4.0)
        assert rep.passed

    def test_orthogonal_supports_equality(self):
        rep = lemma2_check(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert rep.extras["trace_product"] == pytest.approx(0.0, abs=1e-14)
        assert rep.passed and rep.equality

    def test_hand_arithmetic(self):
        rep = lemma2_check(np.diag([1.0, 4.0]), np.diag([2.0, 3.0]))
        assert rep.extras["trace_product"] == pytest.approx(14.0)
        assert rep.rhs == pytest.approx(25.0)
        assert rep.passed and not rep.equality

    def test_random_psd(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            rep = lemma2_check(
                random_psd(rng, n, int(rng.integers(1, n + 1))),
                random_psd(rng, n, int(rng.integers(1, n + 1))),
            )
            assert rep.passed

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsd):
            lemma2_check(np.diag([1.0, -1.0]), np.eye(2))


class TestLemma3:
    def test_hand_arithmetic(self):
        rep = lemma3_check(np.diag([1.0, 4.0]), np.eye(2))
        assert rep.lhs == pytest.approx(4.0)
        assert rep.rhs == pytest.approx(5.0)
        assert rep.passed and not rep.equality

    def test_identity_equality(self):
        rep = lemma3_check(np.eye(3), np.eye(3))
        assert rep.lhs == pytest.approx(3.0)
        assert rep.rhs == pytest.approx(3.0)
        assert rep.equality

    def test_scaled_identity_equality(self):
        rep = lemma3_check(np.diag([2.0, 2.0]), np.diag([3.0, 3.0]))
        assert rep.lhs == pytest.approx(12.0)
        assert rep.rhs == pytest.approx(12.0)
        assert rep.equality

    def test_inverse_pair_equality(self):
        rng = np.random.default_rng(18)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = g @ g.conj().T + 0.5 * np.eye(3)
        a = 1.7 * matrix_power(b, -1.0)
        rep = lemma3_check(a, b)
        assert rep.equality and rep.passed

    def test_random_psd(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            rep = lemma3_check(
                random_psd(rng, n, int(rng.integers(1, n + 1))),
                random_psd(rng, n, int(rng.integers(1, n + 1))),
            )
            assert rep.passed

    @pytest.mark.parametrize("scale,n", [(1e5, 64), (1e10, 32)])
    def test_scaled_identities_past_the_float_range(self, scale, n):
        # det A det B overflows, yet both sides equal n scale^2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = lemma3_check(scale * np.eye(n), scale * np.eye(n))
        assert rep.lhs == pytest.approx(n * scale**2, rel=1e-12)
        assert rep.passed and rep.equality
        assert rep.extras["det_a"] == math.inf

    def test_spectrum_below_the_float_range(self):
        # det A = 1e-378 (1 - 6.3e-5) underflows; with B = I/64 the left side
        # is (det A)^(1/64)
        w = np.full(64, 1e-6)
        w[0] = 1.0 - 63e-6
        rep = lemma3_check(np.diag(w), np.eye(64) / 64)
        assert rep.lhs == pytest.approx(1e-6 ** (63 / 64) * w[0] ** (1 / 64), rel=1e-12)
        assert rep.extras["det_a"] == 0.0

    def test_singular_side_gives_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = lemma3_check(np.diag([1.0, 0.0]), np.eye(2))
        assert rep.lhs == 0.0 and rep.passed

    def test_singular_operands_give_exact_zeros(self):
        # the rounding dust of a rank-deficient operand is off its support, so
        # its determinant and the left side are exactly 0
        rng = np.random.default_rng(1)
        g = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        a = g @ g.conj().T
        cases = [(a, 5, np.eye(6), 6), (np.eye(6), 6, a, 5), (a, 5, a, 5)]
        for _ in range(60):
            n = int(rng.integers(2, 7))
            rank_a, rank_b = (int(r) for r in rng.integers(1, n + 1, size=2))
            if min(rank_a, rank_b) == n:
                rank_b = n - 1
            cases.append((random_psd(rng, n, rank_a), rank_a, random_psd(rng, n, rank_b), rank_b))
        for a, rank_a, b, rank_b in cases:
            n = a.shape[0]
            rep = lemma3_check(a, b)
            assert rep.lhs == 0.0 and rep.passed
            assert (rep.extras["det_a"] == 0.0) == (rank_a < n)
            assert (rep.extras["det_b"] == 0.0) == (rank_b < n)


class TestPetzDivergence:
    """``petz_divergence`` from the two spectra and the overlap of their
    eigenbases, against the trace of the two matrix powers."""

    @staticmethod
    def terms(rho, sigma):
        dec_rho, dec_sigma = psd_decompose(rho, "rho"), psd_decompose(sigma, "sigma")
        overlap = np.abs(dec_rho.eigenvectors.conj().T @ dec_sigma.eigenvectors) ** 2
        return dec_rho.eigenvalues, dec_sigma.eigenvalues, overlap

    @staticmethod
    def pairs(rng, count):
        for _ in range(count):
            n = int(rng.integers(1, 7))
            rho = random_psd(rng, n)
            yield rho / np.trace(rho).real, random_psd(rng, n) + 0.1 * np.eye(n)

    def test_matches_the_trace_of_matrix_powers(self):
        for rho, sigma in self.pairs(np.random.default_rng(70), 100):
            p, q, overlap = self.terms(rho, sigma)
            for alpha in (0.0, 0.3, 0.5, 0.9, 1.5, 2.0, 3.0, 5.0):
                got, _ = petz_divergence(p, q, overlap, alpha)
                t = trace_product(matrix_power(rho, alpha), matrix_power(sigma, 1.0 - alpha))
                want = math.log(t) / (alpha - 1.0)
                assert abs(got - want) <= 1e-12 * (1.0 + abs(want))

    def test_bound_is_the_determinant_form_below_the_divergence(self):
        for rho, sigma in self.pairs(np.random.default_rng(71), 100):
            p, q, overlap = self.terms(rho, sigma)
            n = p.size
            for alpha in (1.5, 2.0, 3.0, 5.0):
                value, bound = petz_divergence(p, q, overlap, alpha)
                det_form = (
                    math.log(n) + alpha / n * log_det(rho) + (1.0 - alpha) / n * log_det(sigma)
                ) / (alpha - 1.0)
                assert bound == pytest.approx(det_form, rel=1e-12, abs=1e-12)
                assert bound <= value + 1e-12 * (1.0 + abs(value))

    def test_bound_is_minus_infinity_off_full_rank(self):
        p, q, overlap = self.terms(np.diag([0.5, 0.5, 0.0]), np.eye(3))
        value, bound = petz_divergence(p, q, overlap, 2.0)
        assert value == pytest.approx(math.log(0.5), abs=1e-15)
        assert bound == -math.inf

    def test_orthogonal_supports_raise(self):
        p, q, overlap = self.terms(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        for alpha in (0.0, 0.5, 2.0):
            with pytest.raises(TraceNonpositive):
                petz_divergence(p, q, overlap, alpha)

    def test_finite_and_nondecreasing_up_to_the_float_range(self):
        rho, sigma = next(self.pairs(np.random.default_rng(72), 1))
        p, q, overlap = self.terms(rho, sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [
                petz_divergence(p, q, overlap, alpha)[0]
                for alpha in (0.0, 0.5, 2.0, 1025.0, 1e5, 1e300, 1e308)
            ]
        assert all(math.isfinite(v) for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestSidesPastTheFloatRange:
    """A lemma check on finite PSD operands whose sides overflow ends in
    SideOverflow, with no warning, where it once reported a NaN gap."""

    @pytest.mark.parametrize(
        "name,check",
        [
            ("lemma2", lambda a: lemma2_check(a, a)),
            ("lemma3", lambda a: lemma3_check(a, a)),
            ("lemma4", lemma4_check),
        ],
    )
    def test_overflowing_side_raises(self, name, check):
        a = (5e-320 if name == "lemma4" else 1e200) * np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SideOverflow, match=name):
                check(a)

    def test_sides_within_the_range_are_reported(self):
        a = 1e150 * np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = [lemma2_check(a, a), lemma3_check(a, a), lemma4_check(a)]
        assert reports[0].gap == 0.5 and reports[0].passed
        assert reports[1].passed and reports[1].equality
        assert reports[2].passed
        assert all(math.isfinite(r.lhs) and math.isfinite(r.rhs) for r in reports)


# a PSD matrix whose trace overflows, an indefinite one whose entries sit
# near the float maximum off the diagonal, and a PSD one with eigenvalues 0
# and 2e308, past the float range
NEAR_FLOAT_MAX = {
    "diagonal": 1e308 * np.eye(2),
    "off-diagonal": np.array([[0.5, 1e308j], [-1e308j, 0.5]]),
    "eigenvalue-past-the-range": np.full((2, 2), 1e308),
}


class TestEntriesNearTheFloatMaximum:
    """Validation forms no sum past the float range: a Hermitian matrix with
    entries near the float maximum is itself, with no warning, and a state
    built from one is a typed rejection."""

    @pytest.mark.parametrize("name", sorted(NEAR_FLOAT_MAX))
    def test_hermitian_matrix_is_itself(self, name):
        a = NEAR_FLOAT_MAX[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(as_hermitian(a), a)
            assert np.array_equal(as_hermitian(np.array([a, a])), np.array([a, a]))

    def test_asymmetry_past_the_float_range_is_not_hermitian(self):
        # unhalved, |A - A^dagger| overflows in the first two and max|A| in
        # the last two; halved, only the modulus of the second's asymmetry
        big = 1.5e308 + 1.5e308j
        for a in (
            np.array([[0.0, 1.5e308], [-1.5e308, 0.0]]),
            np.array([[0.0, big], [-big.conjugate(), 0.0]]),
            np.array([[0.0, big], [big.conjugate() + 1e300, 0.0]]),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonHermitianInput, match="not Hermitian"):
                    as_hermitian(a)

    @pytest.mark.parametrize(
        "name,error",
        [
            ("diagonal", InvalidDensityMatrix),
            ("off-diagonal", NotPsd),
            ("eigenvalue-past-the-range", SideOverflow),
        ],
    )
    def test_state_is_a_typed_rejection(self, name, error):
        from renyi.quantum import _density_values

        for build in (DensityMatrix, _density_values):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(error):
                    build(NEAR_FLOAT_MAX[name])

    def test_a_spectrum_past_the_float_range_is_not_zeroed(self):
        # every entry is <= ZERO_THRESHOLD * inf, so the support rule would zero it
        for w in (np.array([0.5, 1.0, np.inf]), np.array([[0.0, 1.0], [0.0, np.inf]])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SideOverflow, match="past the float range"):
                    clip_spectrum(w)


class TestLemma4:
    def test_identity_equality(self):
        rep = lemma4_check(np.eye(3))
        assert rep.lhs == pytest.approx(0.0, abs=1e-14)
        assert rep.rhs == pytest.approx(0.0, abs=1e-14)
        assert rep.passed and rep.equality

    def test_hand_arithmetic(self):
        rep = lemma4_check(np.diag([2.0, 0.5]))
        assert rep.lhs == pytest.approx(-0.5)
        assert rep.extras["log_det"] == pytest.approx(0.0, abs=1e-14)
        assert rep.rhs == pytest.approx(0.5)
        assert rep.passed and not rep.equality

    def test_scalar_case(self):
        rep = lemma4_check(np.array([[math.e]]))
        assert rep.lhs == pytest.approx(0.6321205588285577, rel=1e-12)
        assert rep.extras["log_det"] == pytest.approx(1.0, rel=1e-12)
        assert rep.rhs == pytest.approx(1.7182818284590452, rel=1e-12)
        assert rep.passed

    def test_random_pd(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            rep = lemma4_check(random_psd(rng, n) + 0.1 * np.eye(n))
            assert rep.passed

    def test_rejects_singular(self):
        with pytest.raises(NotPd):
            lemma4_check(np.diag([1.0, 0.0]))

    def test_small_scaled_identity(self):
        rep = lemma4_check(1e-11 * np.eye(2))
        assert rep.extras["log_det"] == pytest.approx(2.0 * math.log(1e-11), rel=1e-14)
        assert rep.passed and not rep.equality


class TestTraceProduct:
    def test_matches_matmul(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            a = random_hermitian(rng, n)
            b = random_hermitian(rng, n)
            assert trace_product(a, b) == pytest.approx(
                np.trace(a @ b).real, abs=1e-10
            )


def test_as_hermitian_symmetrizes_tolerated_dust():
    a = np.array([[1.0, 0.1 + 1e-12j], [0.1, 2.0]])
    out = as_hermitian(a)
    assert np.abs(out - out.conj().T).max() == 0.0


def test_convergence_failure_is_not_triggered_at_desk_scale():
    # dim 64 is the documented ceiling; one decomposition must converge
    rng = np.random.default_rng(22)
    a = random_hermitian(rng, 32)
    dec = spectral_decompose(a)
    back = recombine(dec.eigenvectors, dec.eigenvalues)
    assert np.abs(back - a).max() <= 1e-9 * (1 + np.abs(a).max())


def test_decomposition_keeps_the_validated_matrix():
    rng = np.random.default_rng(23)
    a = random_hermitian(rng, 5)
    a[0, 1] += 1e-13  # tolerated asymmetry dust
    dec = spectral_decompose(a)
    assert np.array_equal(dec.matrix, as_hermitian(a))
    # validation is idempotent bit for bit, and the eigensolver works on a copy
    again = spectral_decompose(dec.matrix)
    assert np.array_equal(again.matrix, dec.matrix)
    assert np.array_equal(again.eigenvalues, dec.eigenvalues)
    assert np.array_equal(again.eigenvectors, dec.eigenvectors)


def test_lemma_shape_mismatch_precedes_psd_checks():
    for check in (lemma2_check, lemma3_check):
        with pytest.raises(DimensionMismatch):
            check(np.diag([1.0, -1.0]), np.eye(3))
        with pytest.raises(NonHermitianInput):
            check(np.eye(2), np.triu(np.ones((3, 3))))


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


def _random_stack(rng, n, k):
    """k matrices of order n: rank-deficient, dusty (rank-deficient plus
    Hermitian noise and tolerated asymmetry at 1e-13) and positive definite."""
    stack = []
    for _ in range(k):
        kind = rng.integers(3)
        m = random_psd(rng, n, int(rng.integers(1, n + 1)))
        if kind == 1:
            m = m + 1e-13 * random_hermitian(rng, n)
            m[0, -1] += 1e-13
        elif kind == 2:
            m = m + 0.1 * np.eye(n)
        stack.append(m)
    return np.array(stack)


class TestStackAxis:
    """The validation and spectral layer on a leading stack axis: each row
    has the bits of the one-matrix call, and a stack holding one bad matrix
    raises what that matrix raises alone."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_match_one_matrix_calls(self, n):
        rng = np.random.default_rng(300 + n)
        for k in (int(rng.integers(1, 41)), 40):
            stack = _random_stack(rng, n, k)
            hermitian = as_hermitian(stack)
            values = spectral_values(stack)
            dec = spectral_decompose(stack)
            psd = psd_decompose(stack, "A")
            assert positive_definite(psd.eigenvalues).tolist() == [
                positive_definite(w) for w in psd.eigenvalues
            ]
            # each spectrum also zero-padded on the right to 8 + 1 entries
            padded = np.pad(psd.eigenvalues, ((0, 0), (0, 9 - n)))
            for r in (0.3, 0.5, 1.0, 2.0, 3.7):
                entropies = spectral_entropy(psd.eigenvalues, r)
                assert _bits(spectral_entropy(padded, r)) == _bits(entropies)
                for i, w in enumerate(psd.eigenvalues):
                    assert _bits(spectral_entropy(w, r)) == _bits(entropies[i])
            for i, m in enumerate(stack):
                alone, clipped = spectral_decompose(m), psd_decompose(m, "A")
                assert _bits(hermitian[i]) == _bits(as_hermitian(m))
                for rows, one in zip(values, spectral_values(m)):
                    assert _bits(rows[i]) == _bits(one)
                for rows, one in ((dec, alone), (psd, clipped)):
                    assert _bits(rows.eigenvalues[i]) == _bits(one.eigenvalues)
                    assert _bits(rows.eigenvectors[i]) == _bits(one.eigenvectors)
                    assert _bits(rows.matrix[i]) == _bits(one.matrix)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_at_their_own_orders_match_one_vector_calls(self, n):
        # spectral_entropy and petz_divergence at one order per row, on
        # supports of every rank: each row has the bits of its own call
        rng = np.random.default_rng(400 + n)
        rho = psd_decompose(_random_stack(rng, n, 40), "A")
        sigma = psd_decompose(_random_stack(rng, n, 40), "B")
        orders = rng.choice([0.3, 0.5, 0.9, 1.5, 2.0, 3.7, 1e5], size=40)
        entropies = spectral_entropy(rho.eigenvalues, orders)
        overlap = np.abs(rho.eigenvectors.conj().swapaxes(-1, -2) @ sigma.eigenvectors) ** 2
        values, bounds = petz_divergence(rho.eigenvalues, sigma.eigenvalues, overlap, orders)
        for i, order in enumerate(orders.tolist()):
            assert _bits(spectral_entropy(rho.eigenvalues[i], order)) == _bits(entropies[i])
            one = petz_divergence(rho.eigenvalues[i], sigma.eigenvalues[i], overlap[i], order)
            assert _bits(one) == _bits((values[i], bounds[i]))

    @pytest.mark.parametrize("fault", ["non-finite", "non-Hermitian", "indefinite"])
    def test_one_bad_matrix_fails_the_stack_as_it_fails_alone(self, fault):
        rng = np.random.default_rng(17)
        layer = (
            as_hermitian, spectral_values, spectral_decompose, lambda a: psd_decompose(a, "A")
        )
        for n in range(1, 9):
            stack = _random_stack(rng, n, 12)
            bad = stack[5]
            if fault == "non-finite":
                bad[-1, 0] = np.inf
            elif fault == "non-Hermitian":
                bad[-1, 0] += 1e-3j
            else:
                bad -= (np.linalg.eigvalsh(bad)[-1] + 1.0) * np.eye(n)
            for fn in layer:
                try:
                    fn(bad)
                except Exception as exc:
                    with pytest.raises(type(exc)):
                        fn(stack)
                else:
                    fn(stack)


_HALF = DensityMatrix(np.eye(2) / 2)
_ONE_MATRIX = {
    "classify_definiteness": classify_definiteness,
    "matrix_power": lambda a: matrix_power(a, 0.5),
    "log_det": log_det,
    "kron": lambda a: kron(a, np.eye(2)),
    "partial_trace_a": lambda a: partial_trace_a(a, 1, 2),
    "partial_trace_b": lambda a: partial_trace_b(a, 2, 1),
    "lemma2_check": lambda a: lemma2_check(a, a),
    "lemma3_check": lambda a: lemma3_check(a, a),
    "lemma4_check": lemma4_check,
    "DensityMatrix": lambda a: DensityMatrix(a / 2),
    "renyi_relative_entropy": lambda a: renyi_relative_entropy(_HALF, a, 2.0),
    "t4_lower_bound": lambda a: t4_lower_bound(_HALF, a, 2.0),
    "triangle_bound_check": lambda a: triangle_bound_check(_HALF, a, 2.0),
}


@pytest.mark.parametrize("name", sorted(_ONE_MATRIX))
def test_one_matrix_functions_reject_a_stack(name):
    # only the validation and spectral layer takes a stack
    with pytest.raises(DimensionMismatch):
        _ONE_MATRIX[name](np.array([np.eye(2), 2.0 * np.eye(2)]))


def _public_diag_oracle(p, q, alpha):
    """The diag_oracle report of one trial from the public functions: the
    quantum entropy and divergence of diag(p) against diag(q) next to their
    classical values, the direct sums."""
    rho = DensityMatrix(np.diag(p))
    h_quantum = quantum_renyi_entropy(rho, alpha, units="bits").value
    h_classical = math.log2(float(np.sum(p**alpha))) / (1.0 - alpha)
    d_quantum = renyi_relative_entropy(rho, np.diag(q), alpha).value
    support = p > 0.0
    terms = p[support] ** alpha * q[support] ** (1.0 - alpha)
    d_classical = math.log(float(np.sum(terms))) / (alpha - 1.0)
    gap = min(identity_gap(h_quantum, h_classical), identity_gap(d_quantum, d_classical))
    extras = {
        "entropy_diff": abs(h_quantum - h_classical),
        "divergence_diff": abs(d_quantum - d_classical),
    }
    return BoundReport("diag_oracle", h_quantum, h_classical, gap, gap >= -1e-10, 1e-10, extras)


def test_diag_oracle_block_gives_the_public_values():
    # the entropies are the report's lhs and rhs, and the divergence enters
    # through divergence_diff, an exact difference of two nearly equal values
    rng = np.random.default_rng(29)
    batch = []
    for _ in range(400):
        n = int(rng.integers(1, 9))
        alpha = float(rng.choice([0.3, 0.5, 0.9, 1.5, 2.0, 3.0, 5.0, 0.73, 2.41]))
        p = rng.standard_exponential(n) * (rng.random(n) < 0.7)
        p[rng.integers(n)] += 1.0
        p[rng.random(n) < 0.2] *= 1e-14  # dust, off the quantum support
        q = rng.standard_exponential(n) + 1e-6
        if alpha < 1.0:  # a singular reference that still meets p's support
            q[(rng.random(n) < 0.3) & (np.arange(n) != np.argmax(p))] = 0.0
        batch.append({"p": p / p.sum(), "q": q / q.sum(), "alpha": alpha})
    verdict = SUITES["diag_oracle"].check(batch)
    for i, x in enumerate(batch):
        expected = _public_diag_oracle(x["p"], x["q"], x["alpha"])
        assert json.dumps(verdict[i].to_dict()) == json.dumps(expected.to_dict()), i
