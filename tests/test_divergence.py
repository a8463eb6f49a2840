import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renyi.divergence import (
    _reference,
    _sibson,
    conditional_entropy,
    mutual_information,
    renyi_relative_entropy,
    t4_lower_bound,
    t5_closed_form,
    t6_lower_bound,
    triangle_bound_check,
)
from renyi.exceptions import (
    AlphaOne,
    AlphaOutOfRange,
    MarginalSingular,
    NotBipartite,
    NotPd,
    SigmaSingular,
    TraceNonpositive,
)
from renyi.harness import ORDERS_ABOVE_ONE, T6_DIMS_CYCLE, random_density_array
from renyi.linalg import (
    SpectralDecomposition,
    kron,
    matrix_power,
    partial_trace_a,
    partial_trace_b,
)
from renyi.quantum import DensityMatrix, _density_decompose, quantum_renyi_entropy

from bloch_oracle import zoom_grid_minimum
from test_linalg import _bits

D2_EXAMPLE = 0.2876820724517809          # ln(4/3)
T4_EXAMPLE = 0.14384103622589046         # ln 2 + ln(1/4) - 0.5 ln(3/16)
T6_DIAG = -0.4462871026284195            # 2 (ln 4 + ln(0.0016)/4)
TRIANGLE_RHS = 0.9808292530117262        # ln(8/3)


def random_density(rng, n, rank=None, dims=None):
    rank = rank or n
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims=dims)


def random_pd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T + 0.2 * np.eye(n)


def identity_sigma_divergence(sigma, alpha):
    """``D_alpha(I || sigma) = ln(sum_j q_j^(1-alpha)) / (alpha - 1)`` from LAPACK."""
    q = np.linalg.eigvalsh(sigma)
    return math.log(float(np.sum(q ** (1.0 - alpha)))) / (alpha - 1.0)


def haar_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestRelativeEntropy:
    def test_self_divergence_zero(self):
        rng = np.random.default_rng(50)
        for alpha in (1.5, 2.0, 3.0):
            rho = random_density(rng, 4)
            got = renyi_relative_entropy(rho, rho.matrix, alpha).value
            assert abs(got) <= 1e-10

    def test_diagonal_example(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        res = renyi_relative_entropy(rho, np.diag([0.25, 0.75]), 2.0)
        assert res.value == pytest.approx(D2_EXAMPLE, abs=1e-12)
        assert not res.equality_case

    def test_identity_reference(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        got = renyi_relative_entropy(rho, np.eye(2), 2.0).value
        assert got == pytest.approx(math.log(0.75**2 + 0.25**2), abs=1e-12)
        assert got <= 0.0
        # H_alpha(rho) = -D_alpha(rho || I)
        assert -got == pytest.approx(quantum_renyi_entropy(rho, 2.0).value, abs=1e-12)

    def test_diagonal_classical_sum(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            p = rng.standard_exponential(n)
            p /= p.sum()
            q = rng.standard_exponential(n) + 0.05
            q /= q.sum()
            for alpha in (0.3, 0.5, 2.0, 3.0):
                got = renyi_relative_entropy(
                    DensityMatrix(np.diag(p)), np.diag(q), alpha
                ).value
                want = (
                    math.log(float(np.sum(p**alpha * q ** (1.0 - alpha))))
                    / (alpha - 1.0)
                )
                assert abs(got - want) <= 1e-10

    def test_joint_unitary_invariance(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            rho = random_density(rng, n)
            sigma = random_pd(rng, n)
            u = haar_unitary(rng, n)
            a = renyi_relative_entropy(rho, sigma, 2.0).value
            b = renyi_relative_entropy(
                DensityMatrix(u @ rho.matrix @ u.conj().T),
                u @ sigma @ u.conj().T,
                2.0,
            ).value
            assert abs(a - b) <= 1e-8

    def test_alpha_zero_is_the_support_limit(self):
        # rho^0 is rho's support projector, so D_0 = -ln tr(P_rho sigma) is
        # the alpha -> 0+ limit even when rho is rank deficient
        sigma = np.diag([0.2, 0.3, 0.5])
        rho = DensityMatrix(np.diag([0.5, 0.5, 0.0]))
        got = renyi_relative_entropy(rho, sigma, 0.0).value
        assert got == pytest.approx(math.log(2.0), abs=1e-12)
        near = renyi_relative_entropy(rho, sigma, 1e-6).value
        assert abs(got - near) <= 1e-5
        full = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        assert renyi_relative_entropy(full, sigma, 0.0).value == pytest.approx(
            0.0, abs=1e-12
        )

    @pytest.mark.parametrize("scale", [1e-200, 1e-14, 1e-11, 1e-6, 1e6, 1e200])
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.999, 2.0])
    def test_eigenvalue_dust_of_a_singular_sigma_is_off_its_support(self, alpha, scale):
        # sigma has rank 2, but its computed spectrum carries dust of order
        # 1e-18; raised to 1 - alpha near 0, dust would count as support
        rng = np.random.default_rng(3)
        g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        sigma = g @ g.conj().T
        sigma /= np.trace(sigma).real
        # the nonzero spectrum of g g† is that of g† g
        q = np.linalg.eigvalsh(g.conj().T @ g)
        q /= q.sum()
        if alpha < 1.0:
            exact = math.log(0.25**alpha * np.sum(q ** (1.0 - alpha))) / (alpha - 1.0)
            rho = DensityMatrix(np.eye(4) / 4)
            got = renyi_relative_entropy(rho, sigma, alpha).value
            assert got == pytest.approx(exact, rel=1e-9)
        # the dust scales with sigma, and D(rho || c sigma) + ln c = D(rho || sigma);
        # above order 1 sigma must be positive definite, which holds at every scale
        for d in range(2, 7):
            rho = DensityMatrix(np.eye(d) / d)
            for rank in range(1, d) if alpha < 1.0 else (d,):
                sigma = random_density(rng, d, rank).matrix
                base = renyi_relative_entropy(rho, sigma, alpha).value
                scaled = renyi_relative_entropy(rho, scale * sigma, alpha).value
                assert abs(scaled + math.log(scale) - base) <= 1e-12 * (1.0 + abs(base))

    def test_errors(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(SigmaSingular):
            renyi_relative_entropy(rho, np.diag([1.0, 0.0]), 2.0)
        with pytest.raises(AlphaOne):
            renyi_relative_entropy(rho, np.eye(2), 1.0)
        with pytest.raises(AlphaOutOfRange):
            renyi_relative_entropy(rho, np.eye(2), -0.5)
        with pytest.raises(TraceNonpositive):
            renyi_relative_entropy(rho, np.diag([0.0, 1.0]), 0.5)


class TestEqualityCondition:
    """Lemma 3's equality on ``rho^alpha`` and ``sigma^(1-alpha)``: the t4
    bound meets the divergence exactly when ``sigma`` is proportional to
    ``rho^(alpha/(alpha-1))``, and t4 and the divergence flag it by the
    report's slack rule."""

    def test_maximally_mixed_pair(self):
        for d in (2, 3, 4):
            rho = DensityMatrix(np.eye(d) / d)
            rep = t4_lower_bound(rho, np.eye(d) / d, 2.0)
            assert rep.equality
            assert renyi_relative_entropy(rho, np.eye(d) / d, 2.0).equality_case

    def test_non_proportional_pair(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        assert not t4_lower_bound(rho, np.diag([0.25, 0.75]), 2.0).equality

    def test_constructed_equality_pair(self):
        rng = np.random.default_rng(53)
        for alpha in (1.5, 2.0, 3.0):
            m = random_pd(rng, 3)
            rho = DensityMatrix(m / np.trace(m).real)
            tight = matrix_power(rho.matrix, alpha / (alpha - 1.0))
            tight /= np.trace(tight).real
            rep = t4_lower_bound(rho, tight, alpha)
            assert rep.equality and abs(rep.gap) <= 1e-14
            assert renyi_relative_entropy(rho, tight, alpha).equality_case
            # the exponent's sign flipped, as the proportionality flag had it
            loose = matrix_power(rho.matrix, alpha / (1.0 - alpha))
            loose /= np.trace(loose).real
            rep = t4_lower_bound(rho, loose, alpha)
            assert not rep.equality and rep.gap > 0.1
            assert not renyi_relative_entropy(rho, loose, alpha).equality_case

    def test_rejects_singular_sigma(self):
        rho = DensityMatrix(np.eye(2) / 2)
        # 5e-9 clears PSD_TOL but is dust beside 1e4, off sigma's support
        for sigma in (np.diag([1.0, 0.0]), np.diag([5e-9, 1e4])):
            with pytest.raises(NotPd):
                t4_lower_bound(rho, sigma, 2.0)
            with pytest.raises(SigmaSingular):
                renyi_relative_entropy(rho, sigma, 2.0)


class TestT4LowerBound:
    def test_maximally_mixed_equality(self):
        rho = DensityMatrix(np.eye(3) / 3)
        rep = t4_lower_bound(rho, np.eye(3) / 3, 2.0)
        assert rep.extras["bound"] == pytest.approx(0.0, abs=1e-12)
        assert rep.extras["divergence"] == pytest.approx(0.0, abs=1e-12)
        assert rep.passed and rep.equality

    def test_diagonal_example(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        rep = t4_lower_bound(rho, np.diag([0.25, 0.75]), 2.0)
        assert rep.extras["bound"] == pytest.approx(T4_EXAMPLE, abs=1e-12)
        assert rep.extras["divergence"] == pytest.approx(D2_EXAMPLE, abs=1e-12)
        assert rep.passed and not rep.equality

    def test_random_pd_pairs(self):
        rng = np.random.default_rng(54)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            m = random_pd(rng, n)
            rho = DensityMatrix(m / np.trace(m).real)
            rep = t4_lower_bound(rho, random_pd(rng, n), 3.0)
            assert rep.passed
            assert rep.equality == (abs(rep.gap) <= 1e-6)

    def test_equality_flag_matches_gap_at_tight_pair(self):
        # maximally mixed vs scaled identity: flag set, gap exactly zero
        rho = DensityMatrix(np.eye(4) / 4)
        rep = t4_lower_bound(rho, 1.3 * np.eye(4), 2.0)
        assert rep.equality and abs(rep.gap) <= 1e-12

    @pytest.mark.parametrize("alpha", [5.0, 300.0, 400.0])
    def test_proportionality_flag_where_c_overflows(self, alpha):
        # Lemma 3 is tight, sigma^(1-alpha) = rho^(-alpha) / 4, and the slack
        # rule reads it from the bound and the divergence, with no c
        rho = DensityMatrix(np.eye(4) / 4)
        rep = t4_lower_bound(rho, np.eye(4) / 4, alpha)
        assert rep.passed and rep.equality

    def test_proportionality_flag_clear_for_tiny_powers(self):
        # at alpha = 300 both powers lie far below EQ_TOL in size, yet rho^alpha
        # concentrates on the first axis and sigma^(1-alpha) on the second
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        rep = t4_lower_bound(rho, np.diag([3.0, 2.0]), 300.0)
        assert rep.passed and not rep.equality

    def test_rejects_singular(self):
        with pytest.raises(NotPd):
            t4_lower_bound(
                DensityMatrix(np.diag([1.0, 0.0])), np.eye(2), 2.0
            )


class TestOptimizedQuantities:
    def test_worked_example_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, dims=(2, 2))
        mi, out_mi = mutual_information(rho, 2.0)
        assert abs(mi) <= 1e-12
        ce, out_ce = conditional_entropy(rho, 2.0)
        assert abs(ce - math.log(2)) <= 1e-12
        for out in (out_mi, out_ce):
            assert np.abs(out.optimizer_sigma.matrix - np.eye(2) / 2).max() <= 1e-12

    def test_product_state_mutual_information_zero(self):
        rng = np.random.default_rng(55)
        rho_a = random_density(rng, 2).matrix
        rho_b = random_density(rng, 2).matrix
        rho = DensityMatrix(kron(rho_a, rho_b), dims=(2, 2))
        mi, out = mutual_information(rho, 2.0)
        assert abs(mi) <= 1e-10
        assert np.abs(out.optimizer_sigma.matrix - rho_b).max() <= 1e-10

    def test_mutual_information_needs_a_full_rank_marginal(self):
        # |0><0| (x) I/2 has the singular marginal rho_A = |0><0|
        rho = DensityMatrix(kron(np.diag([1.0, 0.0]), np.eye(2) / 2), dims=(2, 2))
        with pytest.raises(MarginalSingular):
            mutual_information(rho, 2.0)

    def test_conditional_on_pure_b_leg(self):
        # rho_A (x) |0><0| : the optimum concentrates sigma_B on the support
        rho = DensityMatrix(
            kron(np.diag([0.5, 0.5]), np.diag([1.0, 0.0])), dims=(2, 2)
        )
        value, out = conditional_entropy(rho, 2.0)
        assert value == pytest.approx(math.log(2), abs=1e-12)
        np.testing.assert_allclose(
            out.optimizer_sigma.matrix, np.diag([1.0, 0.0]), atol=1e-12
        )

    def test_monotone_acceptance(self):
        # the minimum never exceeds the divergence at any other sigma_B, in
        # particular the flat sigma_B = I/d
        rng = np.random.default_rng(56)
        for _ in range(5):
            rho = random_density(rng, 4, dims=(2, 2))
            value, out = mutual_information(rho, 2.0)
            rho_a = DensityMatrix(partial_trace_b(rho.matrix, 2, 2))
            flat = renyi_relative_entropy(
                rho, kron(rho_a.matrix, np.eye(2) / 2), 2.0
            ).value
            assert value <= flat + 1e-12

    @pytest.mark.parametrize("alpha", [1.5, 3.0, 5.0, 10.0, 20.0])
    def test_pure_state_closed_forms(self, alpha):
        # a pure 2x3 state with Schmidt coefficients lam, in any local bases:
        # C_B has rank 2 and I_alpha = alpha/(alpha-1) ln sum lam^((2-alpha)/alpha),
        # H_alpha(A|B) = -alpha/(alpha-1) ln sum lam^(1/alpha)
        lam = np.array([0.7, 0.3])
        want_i = alpha / (alpha - 1.0) * math.log(np.sum(lam ** ((2.0 - alpha) / alpha)))
        want_h = -alpha / (alpha - 1.0) * math.log(np.sum(lam ** (1.0 / alpha)))
        rng = np.random.default_rng(63)
        for _ in range(3):
            u, v = haar_unitary(rng, 2), haar_unitary(rng, 3)
            psi = (u * np.sqrt(lam) @ v[:, :2].T).reshape(6)
            rho = DensityMatrix(np.outer(psi, psi.conj()), dims=(2, 3))
            assert abs(mutual_information(rho, alpha)[0] - want_i) <= 1e-10
            assert abs(conditional_entropy(rho, alpha)[0] - want_h) <= 1e-10

    @pytest.mark.parametrize("alpha", [5.0, 8.0, 10.0, 12.0])
    @pytest.mark.parametrize("d_a", [2, 3])
    def test_mixed_product_state_at_large_orders(self, d_a, alpha):
        # mu_A (x) tau: I_alpha = 0 and H_alpha(A|B) = ln d_A at every order.
        # C_B = tau^alpha spans 22 decades at alpha = 12, which its Gram
        # factor keeps to relative precision
        tau = random_density(np.random.default_rng(62), 3).matrix
        rho = DensityMatrix(kron(np.eye(d_a) / d_a, tau), dims=(d_a, 3))
        assert abs(mutual_information(rho, alpha)[0]) <= 1e-12
        assert abs(conditional_entropy(rho, alpha)[0] - math.log(d_a)) <= 1e-12

    @pytest.mark.parametrize("alpha", [8.0, 10.0, 12.0])
    def test_product_states_raise_no_typed_error(self, alpha):
        # a valid state: C_B = G^H G is PSD by construction, so no check rejects it
        rng = np.random.default_rng(64)
        for _ in range(10):
            rho_a, tau = random_density(rng, 2).matrix, random_density(rng, 3).matrix
            rho = DensityMatrix(kron(rho_a, tau), dims=(2, 3))
            assert math.isfinite(mutual_information(rho, alpha)[0])
            assert math.isfinite(conditional_entropy(rho, alpha)[0])

    @pytest.mark.parametrize("alpha", [2.0, 5.0])
    def test_pure_b_leg_gives_the_marginal_entropy(self, alpha):
        # rho_A (x) |psi><psi|: C_B has rank 1, H_alpha(A|B) = H_alpha(rho_A)
        # and I_alpha = 0
        rng = np.random.default_rng(65)
        for _ in range(5):
            rho_a = random_density(rng, 2)
            psi = haar_unitary(rng, 3)[:, 0]
            rho = DensityMatrix(kron(rho_a.matrix, np.outer(psi, psi.conj())), dims=(2, 3))
            want = quantum_renyi_entropy(rho_a, alpha).value
            assert abs(conditional_entropy(rho, alpha)[0] - want) <= 1e-12
            assert abs(mutual_information(rho, alpha)[0]) <= 1e-12

    def test_requires_bipartite_tag(self):
        rho = DensityMatrix(np.eye(4) / 4)
        with pytest.raises(NotBipartite):
            mutual_information(rho, 2.0)

    def test_diag_example_matches_grid(self):
        rho = DensityMatrix(np.diag([0.4, 0.1, 0.1, 0.4]), dims=(2, 2))
        for mode, solver in (
            ("mutual", mutual_information),
            ("conditional", conditional_entropy),
        ):
            value, _ = solver(rho, 2.0)
            grid = zoom_grid_minimum(rho.matrix, 2.0, mode)
            if mode == "conditional":
                grid = math.log(2) - grid
            assert abs(value - grid) <= 1e-10

    @pytest.mark.parametrize("mode", ["mutual", "conditional"])
    def test_sibson_identity(self, mode):
        # D(rho || ref (x) sigma) = optimum + D(sigma* || sigma) for every PD
        # sigma_B, so the closed form is the exact minimum
        rng = np.random.default_rng(59)
        for d_a, d_b in ((2, 2), (3, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8)):
            rho = random_density(rng, d_a * d_b, dims=(d_a, d_b))
            for alpha in (1.5, 2.0, 3.0):
                if mode == "mutual":
                    value, out = mutual_information(rho, alpha)
                    optimum = value
                    ref = partial_trace_b(rho.matrix, d_a, d_b)
                else:
                    value, out = conditional_entropy(rho, alpha)
                    optimum = math.log(d_a) - value
                    ref = np.eye(d_a) / d_a
                sigma = random_pd(rng, d_b)
                sigma /= np.trace(sigma).real
                lhs = renyi_relative_entropy(rho, kron(ref, sigma), alpha).value
                excess = renyi_relative_entropy(
                    out.optimizer_sigma, sigma, alpha
                ).value
                assert excess >= 0.0
                assert abs(lhs - (optimum + excess)) <= 1e-10

    @pytest.mark.parametrize("mode", ["mutual", "conditional"])
    def test_against_t5_closed_form(self, mode):
        # t5 evaluates the divergence at the sigma_B that makes the
        # determinant bound tight.  For maximally mixed states that sigma_B is
        # the minimizer and the values agree; for mu_A (x) tau_B it is not
        # (the minimizer is tau_B), so t5 lies on the feasible side.
        solver = mutual_information if mode == "mutual" else conditional_entropy
        rng = np.random.default_rng(60)
        for d_a, d_b in ((2, 2), (2, 3), (3, 2)):
            mixed = DensityMatrix(np.eye(d_a * d_b) / (d_a * d_b), dims=(d_a, d_b))
            tau = random_density(rng, d_b).matrix
            product = DensityMatrix(kron(np.eye(d_a) / d_a, tau), dims=(d_a, d_b))
            sign = 1.0 if mode == "mutual" else -1.0
            for alpha in (1.5, 2.0, 3.0):
                closed = t5_closed_form(mixed, alpha, mode)
                value, _ = solver(mixed, alpha)
                assert abs(value - closed.value) <= 1e-10
                closed = t5_closed_form(product, alpha, mode)
                value, _ = solver(product, alpha)
                assert sign * (closed.value - value) >= -1e-10

    def test_cli_import_leaves_out_scipy(self):
        code = "import sys, renyi.cli; print('scipy' in sys.modules)"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"


_DIMS = st.sampled_from([(2, 2), (2, 3), (3, 2)])
_SEEDS = st.integers(0, 2**32 - 1)


def _local_rotation(rho, rng):
    """``(U_A (x) U_B) rho (U_A (x) U_B)^dagger`` for Haar-random U_A, U_B."""
    d_a, d_b = rho.dims
    u = np.kron(haar_unitary(rng, d_a), haar_unitary(rng, d_b))
    return DensityMatrix(u @ rho.matrix @ u.conj().T, dims=rho.dims)


class TestOptimizedProperties:
    """Properties of I_alpha and H_alpha(A|B) that need no second
    implementation, at orders alpha <= 5, where the value of a random state
    is resolved.  Data processing holds for the Petz divergence only for
    alpha <= 2, so the properties that rest on it are drawn there."""

    @settings(max_examples=20, deadline=None)
    @given(seed=_SEEDS, dims=_DIMS, alpha=st.floats(1.05, 5.0))
    def test_nonnegative_and_local_unitary_invariant(self, seed, dims, alpha):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, dims[0] * dims[1], dims=dims)
        rotated = _local_rotation(rho, rng)
        assert mutual_information(rho, alpha)[0] >= -1e-12
        for solver in (mutual_information, conditional_entropy):
            value = solver(rho, alpha)[0]
            assert solver(rotated, alpha)[0] == pytest.approx(value, rel=1e-10, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=_SEEDS, dims=_DIMS, low=st.floats(1.05, 2.0), high=st.floats(1.05, 5.0))
    def test_conditional_entropy_falls_with_the_order_within_ln_d_a(
        self, seed, dims, low, high
    ):
        rho = random_density(np.random.default_rng(seed), dims[0] * dims[1], dims=dims)
        low, high = sorted((low, high))
        h_low, h_high = conditional_entropy(rho, low)[0], conditional_entropy(rho, high)[0]
        assert h_high <= h_low + 1e-12
        assert abs(h_low) <= math.log(dims[0]) + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=_SEEDS, alpha=st.floats(1.05, 2.0))
    def test_tracing_out_half_of_b_does_not_raise_mutual_information(self, seed, alpha):
        rho = random_density(np.random.default_rng(seed), 8, dims=(2, 4))
        # B = B1 (x) B2 with two qubits; keep A (x) B1
        half = np.trace(rho.matrix.reshape(4, 2, 4, 2), axis1=1, axis2=3)
        reduced = DensityMatrix(half, dims=(2, 2))
        assert mutual_information(reduced, alpha)[0] <= mutual_information(rho, alpha)[0] + 1e-12


def _orders(top: float):
    return st.floats(0.0, top).filter(lambda a: abs(a - 1.0) > 1e-3)


_ORDERS = _orders(5.0)


def _state(rng, n, rank):
    """A Haar-rotated density matrix of the given rank whose nonzero
    eigenvalues lie within a factor 10 of each other."""
    w = np.zeros(n)
    w[:rank] = rng.uniform(0.1, 1.0, rank)
    u = haar_unitary(rng, n)
    m = (u * (w / w.sum())) @ u.conj().T
    return (m + m.conj().T) / 2.0


def _pair(rng, n, alpha):
    """rho of any rank, and sigma of any rank below order 1 and positive
    definite above it, where D_alpha needs that."""
    rho = _state(rng, n, int(rng.integers(1, n + 1)))
    return rho, _state(rng, n, n if alpha > 1.0 else int(rng.integers(1, n + 1)))


def _d(rho, sigma, alpha):
    return renyi_relative_entropy(DensityMatrix(rho), sigma, alpha).value


def _at_most(x, y):
    """``x <= y`` up to the relative tolerance 1e-10."""
    return x <= y + 1e-10 * (1.0 + abs(y))


class TestDivergenceProperties:
    """Properties of the Petz D_alpha of states at orders alpha <= 5, over
    rank-deficient operands, to a relative tolerance of 1e-10.  Data
    processing holds for the Petz divergence for alpha in [0, 2]."""

    @settings(max_examples=100, deadline=None)
    @given(seed=_SEEDS, n=st.integers(1, 4), alpha=_ORDERS)
    def test_zero_on_equal_states_and_nonnegative(self, seed, n, alpha):
        rho, sigma = _pair(np.random.default_rng(seed), n, alpha)
        assert abs(_d(sigma, sigma, alpha)) <= 1e-10
        assert _at_most(0.0, _d(rho, sigma, alpha))

    @settings(max_examples=100, deadline=None)
    @given(seed=_SEEDS, n=st.integers(1, 3), m=st.integers(1, 3), alpha=_ORDERS)
    def test_additive_under_tensor_products(self, seed, n, m, alpha):
        rng = np.random.default_rng(seed)
        (rho1, sigma1), (rho2, sigma2) = _pair(rng, n, alpha), _pair(rng, m, alpha)
        joint = _d(kron(rho1, rho2), kron(sigma1, sigma2), alpha)
        parts = _d(rho1, sigma1, alpha) + _d(rho2, sigma2, alpha)
        assert _at_most(joint, parts) and _at_most(parts, joint)

    @settings(max_examples=100, deadline=None)
    @given(seed=_SEEDS, n=st.integers(1, 4), alpha=_ORDERS)
    def test_invariant_under_a_joint_unitary(self, seed, n, alpha):
        rng = np.random.default_rng(seed)
        rho, sigma = _pair(rng, n, alpha)
        u = haar_unitary(rng, n)
        rotated = _d(u @ rho @ u.conj().T, u @ sigma @ u.conj().T, alpha)
        value = _d(rho, sigma, alpha)
        assert _at_most(rotated, value) and _at_most(value, rotated)

    @settings(max_examples=100, deadline=None)
    @given(seed=_SEEDS, n=st.integers(1, 4), orders=st.lists(_ORDERS, min_size=2, max_size=2))
    def test_nondecreasing_in_the_order(self, seed, n, orders):
        low, high = sorted(orders)
        rho, sigma = _pair(np.random.default_rng(seed), n, high)
        assert _at_most(_d(rho, sigma, low), _d(rho, sigma, high))

    @settings(max_examples=100, deadline=None)
    @given(seed=_SEEDS, d_a=st.integers(1, 3), d_b=st.integers(1, 3), alpha=_orders(2.0))
    def test_partial_trace_does_not_raise_it_up_to_order_two(self, seed, d_a, d_b, alpha):
        rho, sigma = _pair(np.random.default_rng(seed), d_a * d_b, alpha)
        value = _d(rho, sigma, alpha)
        for trace in (partial_trace_b, partial_trace_a):
            reduced = _d(trace(rho, d_a, d_b), trace(sigma, d_a, d_b), alpha)
            assert _at_most(reduced, value)

    @settings(max_examples=60, deadline=None)
    @given(seed=_SEEDS, n=st.integers(2, 4), k=st.integers(1, 3), alpha=_orders(2.0))
    def test_a_random_unitary_mixture_does_not_raise_it_up_to_order_two(
        self, seed, n, k, alpha
    ):
        # the channel X -> sum_k p_k U_k X U_k^dagger on a rank-deficient rho,
        # and on a rank-deficient sigma below order 1
        rng = np.random.default_rng(seed)
        rho = _state(rng, n, int(rng.integers(1, n)))
        sigma = _state(rng, n, n if alpha > 1.0 else int(rng.integers(1, n)))
        weights = rng.uniform(0.1, 1.0, k)
        unitaries = [haar_unitary(rng, n) for _ in range(k)]

        def mixed(x):
            m = sum(p * (u @ x @ u.conj().T) for p, u in zip(weights / weights.sum(), unitaries))
            return (m + m.conj().T) / 2.0

        assert _at_most(_d(mixed(rho), mixed(sigma), alpha), _d(rho, sigma, alpha))


class TestT5ClosedForm:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, dims=(2, 2))
        mutual = t5_closed_form(rho, 2.0, "mutual")
        assert mutual is not None
        assert mutual.value == pytest.approx(0.0, abs=1e-10)
        conditional = t5_closed_form(rho, 2.0, "conditional")
        assert conditional.value == pytest.approx(math.log(2), abs=1e-10)
        for res in (mutual, conditional):
            np.testing.assert_allclose(res.sigma_b.matrix, np.eye(2) / 2, atol=1e-10)

    @pytest.mark.parametrize(
        "alpha", [1.0 + 1e-8, 1.0 + 1e-4, 1.005, 2.0, 200.0, 400.0, 1025.0, 1e5, 1e308]
    )
    def test_exact_and_warning_free_at_every_order(self, alpha):
        # no power of a spectrum ratio overflows, so I/4 stays exact and the
        # mu_A (x) tau state (a value or None) raises no warning
        rho = DensityMatrix(np.eye(4) / 4, dims=(2, 2))
        tau = random_density(np.random.default_rng(62), 3).matrix
        product = DensityMatrix(kron(np.eye(2) / 2, tau), dims=(2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mutual = t5_closed_form(rho, alpha, "mutual")
            conditional = t5_closed_form(rho, alpha, "conditional")
            for mode in ("mutual", "conditional"):
                t5_closed_form(product, alpha, mode)
        assert mutual.value == pytest.approx(0.0, abs=1e-12)
        assert conditional.value == pytest.approx(math.log(2), abs=1e-12)

    def test_generic_state_absent(self):
        rho = random_density(np.random.default_rng(57), 4, dims=(2, 2))
        assert t5_closed_form(rho, 2.0, "mutual") is None

    def test_constructed_product_case(self):
        # mu_A (x) tau_B satisfies the conditional-mode proportionality; the
        # returned closed form equals ln d_A minus the determinant bound
        # evaluated at the detected sigma_B
        tau = np.diag([0.7, 0.3])
        rho = DensityMatrix(kron(np.eye(2) / 2, tau), dims=(2, 2))
        res = t5_closed_form(rho, 2.0, "conditional")
        assert res is not None
        at_sigma = t4_lower_bound(
            rho, kron(np.eye(2) / 2, res.sigma_b.matrix), 2.0
        )
        assert res.value == pytest.approx(
            math.log(2) - at_sigma.extras["bound"], abs=1e-10
        )

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_value_is_the_divergence_at_its_sigma(self, alpha):
        # sigma_B makes the determinant bound tight, so the value is the
        # divergence there: mu_A (x) tau gives 1.778892 ("mutual") and
        # -1.085745 ("conditional") at alpha = 1.5
        tau = random_density(np.random.default_rng(62), 3).matrix
        rho = DensityMatrix(kron(np.eye(2) / 2, tau), dims=(2, 3))
        for mode, ref in (
            ("mutual", partial_trace_b(rho.matrix, 2, 3)),
            ("conditional", np.eye(2) / 2),
        ):
            res = t5_closed_form(rho, alpha, mode)
            at_sigma = renyi_relative_entropy(rho, kron(ref, res.sigma_b.matrix), alpha)
            want = at_sigma.value if mode == "mutual" else math.log(2) - at_sigma.value
            assert res.value == pytest.approx(want, abs=1e-10)
            assert at_sigma.equality_case
        if alpha == 1.5:
            assert t5_closed_form(rho, alpha, "mutual").value == pytest.approx(
                1.778892, abs=1e-6
            )
            assert t5_closed_form(rho, alpha, "conditional").value == pytest.approx(
                -1.085745, abs=1e-6
            )

    def test_mode_validation(self):
        rho = DensityMatrix(np.eye(4) / 4, dims=(2, 2))
        with pytest.raises(ValueError):
            t5_closed_form(rho, 2.0, "joint")

    @pytest.mark.parametrize("alpha", [3.0, 5.0, 7.0, 10.0])
    @pytest.mark.parametrize("mode", ["mutual", "conditional"])
    def test_product_state_matches_its_closed_form(self, mode, alpha):
        # mu_2 (x) tau: sigma_B ~ tau^r with r = alpha/(alpha-1), and the value
        # is ln 3/(alpha-1) + ln tr tau^r ("mutual"), ln 2 minus that
        # ("conditional").  tr_A rho^(-alpha) spans (p_min/p_max)^alpha, 1.5e-13
        # at alpha = 7, which its Gram factor keeps to relative precision
        tau = random_density(np.random.default_rng(62), 3).matrix
        rho = DensityMatrix(kron(np.eye(2) / 2, tau), dims=(2, 3))
        r = alpha / (alpha - 1.0)
        want = math.log(3) / (alpha - 1.0) + math.log(np.sum(np.linalg.eigvalsh(tau) ** r))
        res = t5_closed_form(rho, alpha, mode)
        assert res is not None
        assert abs(res.value - (want if mode == "mutual" else math.log(2) - want)) <= 1e-12

    @pytest.mark.parametrize("mode", ["mutual", "conditional"])
    def test_absent_where_a_power_loses_a_factor(self, mode):
        # mu_A (x) tau_B factorizes, but at alpha = 50 the smallest eigenvalue
        # of tau^alpha is rounding dust, so sigma_B cannot be formed
        tau = random_density(np.random.default_rng(62), 3).matrix
        rho = DensityMatrix(kron(np.eye(2) / 2, tau), dims=(2, 3))
        assert t5_closed_form(rho, 2.0, mode) is not None
        assert t5_closed_form(rho, 50.0, mode) is None


class TestT6LowerBound:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, dims=(2, 2))
        rep = t6_lower_bound(rho, 2.0)
        assert rep.extras["bound"] == pytest.approx(0.0, abs=1e-12)
        assert abs(rep.extras["mutual_information"]) <= 1e-4
        assert rep.passed and rep.equality

    def test_diagonal_example(self):
        rho = DensityMatrix(np.diag([0.4, 0.1, 0.1, 0.4]), dims=(2, 2))
        rep = t6_lower_bound(rho, 2.0)
        assert rep.extras["bound"] == pytest.approx(T6_DIAG, abs=1e-12)
        assert rep.extras["bound"] < 0.0
        assert rep.passed

    def test_near_pure_state_bound_very_negative(self):
        eps = 1e-3
        diag = np.array([1.0 - 3 * eps, eps, eps, eps])
        rho = DensityMatrix(np.diag(diag), dims=(2, 2))
        rep = t6_lower_bound(rho, 2.0)
        assert rep.extras["bound"] < -5.0
        assert rep.passed

    def test_rejects_singular(self):
        rho = DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]), dims=(2, 2))
        with pytest.raises(NotPd):
            t6_lower_bound(rho, 2.0)


def _row(dec: SpectralDecomposition, i: int) -> SpectralDecomposition:
    """Row ``i`` of a stacked decomposition, as a stack of one."""
    return SpectralDecomposition(dec.eigenvalues[i : i + 1], dec.eigenvectors[i : i + 1])


class TestSibsonStack:
    """``_sibson`` over a stack of states with one order and one reference per
    state: each row has the bits of its own stack of one, which is what the
    public optimized quantity of that state reads."""

    @pytest.mark.parametrize("mode", ["mutual", "conditional"])
    @pytest.mark.parametrize("dims", T6_DIMS_CYCLE)
    def test_rows_match_stacks_of_one(self, dims, mode):
        d = dims[0] * dims[1]
        # full rank, as t6 reads, and one smaller support shared by the stack
        for rank in (d, d - 2):
            stack = np.stack([random_density_array(d, seed, rank) for seed in range(12)])
            rho = DensityMatrix._trusted(_density_decompose(stack), dims)
            ref = _reference(rho, mode)
            if mode == "conditional":  # mu_A, one copy per state
                ref = SpectralDecomposition(
                    np.tile(ref.eigenvalues, (12, 1)), np.tile(ref.eigenvectors, (12, 1, 1))
                )
            alpha = np.resize(ORDERS_ABOVE_ONE, 12)  # each order three times
            value, g, sigma = _sibson(rho.spectrum, alpha, ref)
            for i in range(12):
                one = _sibson(_row(rho.spectrum, i), alpha[i : i + 1], _row(ref, i))
                assert _bits(value[i]) == _bits(one[0]), (rank, i)
                assert _bits(g.eigenvalues[i]) == _bits(one[1].eigenvalues), (rank, i)
                assert _bits(g.eigenvectors[i]) == _bits(one[1].eigenvectors), (rank, i)
                assert _bits(sigma[i]) == _bits(one[2]), (rank, i)
                alone = DensityMatrix(stack[i], dims=dims)
                optimized = mutual_information if mode == "mutual" else conditional_entropy
                want = optimized(alone, float(alpha[i]))[1].optimum_value
                assert _bits(value[i]) == _bits(want), (rank, i)

    def test_an_underflowing_row_names_its_order(self):
        stack = np.stack([random_density_array(4, seed) for seed in range(3)])
        rho = DensityMatrix._trusted(_density_decompose(stack), (2, 2))
        with pytest.raises(AlphaOutOfRange, match=r"underflows at alpha = 2000\.0$"):
            _sibson(rho.spectrum, np.array([2.0, 2000.0, 3.0]), _reference(rho, "mutual"))


class TestTriangle:
    def test_maximally_mixed_pair(self):
        for d in (2, 3):
            rho = DensityMatrix(np.eye(d) / d)
            rep = triangle_bound_check(rho, np.eye(d) / d, 2.0)
            assert rep.lhs == pytest.approx(0.0, abs=1e-12)
            assert rep.rhs == pytest.approx(math.log(d), abs=1e-12)
            assert rep.passed

    def test_diagonal_example(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        rep = triangle_bound_check(rho, np.diag([0.25, 0.75]), 2.0)
        assert rep.lhs == pytest.approx(D2_EXAMPLE, abs=1e-12)
        assert rep.rhs == pytest.approx(TRIANGLE_RHS, abs=1e-12)
        assert rep.passed

    def test_identity_pieces(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        sigma = np.diag([0.25, 0.75])
        extras = triangle_bound_check(rho, sigma, 2.0).extras
        assert extras["d_rho_identity"] == pytest.approx(math.log(0.5), abs=1e-12)
        d_i_sigma = extras["d_identity_sigma"]
        assert d_i_sigma == pytest.approx(math.log(16.0 / 3.0), abs=1e-12)
        assert d_i_sigma == pytest.approx(identity_sigma_divergence(sigma, 2.0), abs=1e-12)

    def test_random_pairs(self):
        rng = np.random.default_rng(58)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            rho = random_density(rng, n)
            rep = triangle_bound_check(rho, random_pd(rng, n), 1.5)
            assert rep.passed

    def test_scalar_case_is_equality(self):
        rep = triangle_bound_check(
            DensityMatrix(np.array([[1.0]])), np.array([[1.7]]), 2.0
        )
        assert rep.equality


class TestSharedSigmaDecomposition:
    """t4 and the triangle check reuse one decomposition of sigma; the
    numbers they report equal the standalone functions' bit for bit, and
    ``D(I || sigma)`` matches its LAPACK closed form."""

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 5.0])
    def test_reports_match_standalone_functions(self, alpha):
        rng = np.random.default_rng(int(10 * alpha))
        cases = [(DensityMatrix(np.eye(3) / 3), 1.7 * np.eye(3))]
        for _ in range(25):
            n = int(rng.integers(1, 7))
            cases.append((random_density(rng, n), random_pd(rng, n)))
        for rho, sigma in cases:
            t4 = t4_lower_bound(rho, sigma, alpha)
            divergence = renyi_relative_entropy(rho, sigma, alpha)
            assert t4.extras["divergence"] == divergence.value
            assert t4.equality == divergence.equality_case
            triangle = triangle_bound_check(rho, sigma, alpha)
            assert triangle.lhs == divergence.value
            assert triangle.extras["d_identity_sigma"] == pytest.approx(
                identity_sigma_divergence(sigma, alpha), rel=1e-12, abs=1e-12
            )
        assert t4_lower_bound(*cases[0], alpha).equality
