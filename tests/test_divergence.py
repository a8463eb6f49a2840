import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from renyi.divergence import (
    bloch_grid_minimum,
    conditional_entropy,
    divergence_vs_identity,
    equality_condition_check,
    identity_vs_divergence,
    mutual_information,
    renyi_relative_entropy,
    subsystem_entropy,
    t4_lower_bound,
    t5_closed_form,
    t6_lower_bound,
    triangle_bound_check,
)
from renyi.exceptions import (
    AlphaOne,
    AlphaOutOfRange,
    NotBipartite,
    NotPd,
    SigmaSingular,
    TraceNonpositive,
)
from renyi.linalg import kron, matrix_power, partial_trace_b
from renyi.quantum import DensityMatrix, quantum_renyi_entropy

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
        assert subsystem_entropy(rho, 2.0) == pytest.approx(
            quantum_renyi_entropy(rho, 2.0).value, abs=1e-12
        )

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
    def test_maximally_mixed_pair(self):
        for d in (2, 3, 4):
            rho = DensityMatrix(np.eye(d) / d)
            flag, c = equality_condition_check(rho, np.eye(d) / d, 2.0)
            assert flag
            assert c == pytest.approx(d**3, rel=1e-10)

    def test_non_proportional_pair(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        flag, _ = equality_condition_check(rho, np.diag([0.25, 0.75]), 2.0)
        assert not flag

    def test_constructed_equality_pair(self):
        rng = np.random.default_rng(53)
        for alpha in (1.5, 2.0, 3.0):
            m = random_pd(rng, 3)
            rho = DensityMatrix(m / np.trace(m).real)
            sigma = matrix_power(rho.matrix, alpha / (1.0 - alpha))
            sigma /= np.trace(sigma).real
            flag, _ = equality_condition_check(rho, sigma, alpha)
            assert flag

    def test_rejects_singular_sigma(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(NotPd):
            equality_condition_check(rho, np.diag([1.0, 0.0]), 2.0)


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
            grid = bloch_grid_minimum(rho, 2.0, mode, step=0.01)
            if mode == "conditional":
                grid = math.log(2) - grid
            assert abs(value - grid) <= 1e-4

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


class TestT5ClosedForm:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, dims=(2, 2))
        mutual = t5_closed_form(rho, 2.0, "mutual")
        assert mutual is not None
        assert mutual.value == pytest.approx(0.0, abs=1e-10)
        assert mutual.c == pytest.approx(64.0, rel=1e-10)
        conditional = t5_closed_form(rho, 2.0, "conditional")
        assert conditional.value == pytest.approx(math.log(2), abs=1e-10)
        np.testing.assert_allclose(
            conditional.sigma_b.matrix, np.eye(2) / 2, atol=1e-10
        )

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

    def test_mode_validation(self):
        rho = DensityMatrix(np.eye(4) / 4, dims=(2, 2))
        with pytest.raises(ValueError):
            t5_closed_form(rho, 2.0, "joint")


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
        assert divergence_vs_identity(rho, 2.0) == pytest.approx(
            math.log(0.5), abs=1e-12
        )
        assert identity_vs_divergence(np.diag([0.25, 0.75]), 2.0) == pytest.approx(
            math.log(16.0 / 3.0), abs=1e-12
        )

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
    numbers they report equal the standalone functions' bit for bit."""

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
            equality, c = equality_condition_check(rho, sigma, alpha)
            assert t4.extras["divergence"] == divergence.value
            assert t4.extras["c"] == c
            assert t4.equality == equality == divergence.equality_case
            triangle = triangle_bound_check(rho, sigma, alpha)
            assert triangle.lhs == divergence.value
            assert triangle.extras["d_identity_sigma"] == identity_vs_divergence(
                sigma, alpha
            )
        assert t4_lower_bound(*cases[0], alpha).equality
