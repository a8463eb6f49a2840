import math

import numpy as np
import pytest

from renyi.exceptions import (
    AlphaOne,
    AlphaOutOfRange,
    DimensionMismatch,
    InvalidDensityMatrix,
    NotPsd,
)
from renyi.quantum import (
    DensityMatrix,
    log_dim_cap,
    quantum_renyi_entropy,
    t3_bound,
    von_neumann_entropy,
)

RENYI_075_025_B2 = 0.6780719051126377


def random_density(rng, n, rank=None):
    rank = rank or n
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def haar_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestDensityMatrix:
    def test_invariants(self):
        rho = random_density(np.random.default_rng(0), 4)
        assert rho.dim == 4
        assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-10
        assert rho.eigenvalues.min() >= 0.0

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidDensityMatrix):
            DensityMatrix(np.eye(2))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsd):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_bad_dims(self):
        with pytest.raises(DimensionMismatch):
            DensityMatrix(np.eye(4) / 4, dims=(2, 3))

    @pytest.mark.parametrize(
        "dims",
        [(2.9, 2.1), "22", (True, 4), (2, 2, 7), (4,), 4, (2, 2.0), (-2, -2), (np.bool_(1), 4)],
        ids=["floats", "string", "bool", "three-parts", "one-part", "scalar", "int-float",
             "negative", "numpy-bool"],
    )
    def test_rejects_malformed_dims(self, dims):
        # exactly two positive integers, not bools, whose product is dim
        with pytest.raises(DimensionMismatch):
            DensityMatrix(np.eye(4) / 4, dims=dims)

    @pytest.mark.parametrize("dims", [[2, 2], (np.int64(2), 2), np.array([2, 2])])
    def test_integer_dims_are_a_tuple_of_ints(self, dims):
        tag = DensityMatrix(np.eye(4) / 4, dims=dims).dims
        assert tag == (2, 2) and all(type(d) is int for d in tag)

    def test_immutability(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(AttributeError):
            rho.dim = 3
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0


class TestQuantumRenyiEntropy:
    def test_maximally_mixed(self):
        for d in (2, 3, 4, 8):
            rho = DensityMatrix(np.eye(d) / d)
            for alpha in (0.3, 0.5, 1.0, 2.0, 5.0):
                got = quantum_renyi_entropy(rho, alpha).value
                assert got == pytest.approx(math.log(d), abs=1e-10)

    def test_maximally_mixed_at_huge_order(self):
        rho = DensityMatrix(np.eye(8) / 8)
        got = quantum_renyi_entropy(rho, 1e308).value
        assert got == pytest.approx(math.log(8), abs=1e-12)

    def test_pure_state(self):
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0]))
        for alpha in (0.5, 1.0, 2.0):
            assert quantum_renyi_entropy(rho, alpha).value == pytest.approx(
                0.0, abs=1e-12
            )

    def test_matches_classical_in_bits(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        got = quantum_renyi_entropy(rho, 2.0, units="bits").value
        assert got == pytest.approx(RENYI_075_025_B2, abs=1e-12)

    def test_diagonal_oracle_random(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            draws = rng.standard_exponential(n)
            p = draws / draws.sum()
            rho = DensityMatrix(np.diag(p))
            for alpha in (0.3, 0.9, 2.0, 5.0):
                q = quantum_renyi_entropy(rho, alpha, units="bits").value
                # the direct sum: renyi_entropy is the same kernel as q
                assert abs(q - math.log2(np.sum(p**alpha)) / (1.0 - alpha)) <= 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            rho = random_density(rng, n)
            u = haar_unitary(rng, n)
            conj = DensityMatrix(u @ rho.matrix @ u.conj().T)
            for alpha in (0.5, 2.0):
                a = quantum_renyi_entropy(rho, alpha).value
                b = quantum_renyi_entropy(conj, alpha).value
                assert abs(a - b) <= 1e-9

    def test_alpha_continuity_at_one(self):
        rho = random_density(np.random.default_rng(42), 5)
        h1 = von_neumann_entropy(rho)
        # the band around 1 is the von Neumann limit, bit for bit
        for alpha in (1.0, 1.0 - 5e-10, 1.0 + 5e-10):
            assert quantum_renyi_entropy(rho, alpha).value.hex() == h1.hex()
        for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
            assert abs(quantum_renyi_entropy(rho, alpha).value - h1) <= 1e-2

    def test_rejects_nonpositive_alpha(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(AlphaOutOfRange):
            quantum_renyi_entropy(rho, 0.0)
        with pytest.raises(AlphaOutOfRange):
            quantum_renyi_entropy(rho, -1.0)

    def test_units_validation(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            quantum_renyi_entropy(rho, 2.0, units="trits")


class TestT3Bound:
    def test_maximally_mixed_equality(self):
        rho = DensityMatrix(np.eye(4) / 4)
        rep = t3_bound(rho, 0.5)
        assert rep.extras["bound"] == pytest.approx(math.log(4), abs=1e-12)
        assert rep.extras["entropy"] == pytest.approx(math.log(4), abs=1e-12)
        assert rep.extras["cap"] == pytest.approx(math.log(4), abs=1e-12)
        assert rep.passed and rep.equality

    def test_pure_state_with_zero_count(self):
        rep = t3_bound(DensityMatrix(np.diag([1.0, 0.0])), 0.5)
        assert rep.extras["d0"] == 1
        assert rep.extras["bound"] == pytest.approx(0.0, abs=1e-12)
        assert rep.extras["entropy"] == pytest.approx(0.0, abs=1e-12)
        assert rep.passed and rep.equality

    def test_report_depends_only_on_spectrum(self):
        rng = np.random.default_rng(43)
        diag = DensityMatrix(np.diag([0.75, 0.25]))
        u = haar_unitary(rng, 2)
        rotated = DensityMatrix(u @ np.diag([0.75, 0.25]) @ u.conj().T)
        a = t3_bound(diag, 2.0)
        b = t3_bound(rotated, 2.0)
        assert a.extras["bound"] == pytest.approx(b.extras["bound"], abs=1e-10)
        assert a.extras["entropy"] == pytest.approx(b.extras["entropy"], abs=1e-10)
        assert a.passed == b.passed and a.equality == b.equality

    def test_directions_random(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            rho = random_density(rng, n, rank=int(rng.integers(1, n + 1)))
            for alpha in (0.3, 0.5, 2.0, 5.0):
                rep = t3_bound(rho, alpha)
                assert rep.passed, (n, alpha, rep)

    def test_rejects_alpha_one(self):
        with pytest.raises(AlphaOne):
            t3_bound(DensityMatrix(np.eye(2) / 2), 1.0)


class TestLogDimCap:
    def test_cap_holds_random(self):
        rng = np.random.default_rng(45)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            rho = random_density(rng, n, rank=int(rng.integers(1, n + 1)))
            for alpha in (0.3, 0.5, 2.0, 5.0):
                rep = log_dim_cap(rho, alpha)
                assert rep.passed
                assert rep.extras["entropy"] <= math.log(n) + 1e-9

    def test_equality_at_maximally_mixed(self):
        rep = log_dim_cap(DensityMatrix(np.eye(3) / 3), 2.0)
        assert rep.equality
