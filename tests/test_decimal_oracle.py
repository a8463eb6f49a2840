"""The float64 entropy and divergence paths against the 50-digit oracle.

On well-conditioned real states of order n <= 6, the eigvalsh path of
``entropy quantum``, ``quantum_renyi_entropy`` (Jacobi eigenvalues) and
``renyi_relative_entropy`` (the Petz kernel) agree with
``tests/decimal_oracle.py`` within 1e-12 relative.
"""

import decimal
import json
from decimal import Decimal

import numpy as np
import pytest

import decimal_oracle as oracle
from renyi.cli import main
from renyi.divergence import renyi_relative_entropy
from renyi.fileformat import dump_payload, matrix_payload
from renyi.quantum import DensityMatrix, quantum_renyi_entropy

ORDERS = (0.5, 2.0, 10.0)
TOL = 1e-12


def _real_state(n: int, seed: int, trace: float = 1.0) -> np.ndarray:
    """A real symmetric positive definite matrix of the given trace, with
    eigenvalue ratio below about 10 (a Gram matrix shifted by n/2)."""
    g = np.random.default_rng(seed).standard_normal((n, n))
    m = g @ g.T + 0.5 * n * np.eye(n)
    return trace * m / np.trace(m)


STATES = [(n, seed) for n in range(1, 7) for seed in (1, 2)]


def _close(value: float, want: float) -> bool:
    return abs(value - want) <= TOL * max(1.0, abs(want))


def test_the_oracle_diagonalizes_at_its_precision():
    m = _real_state(6, 3)
    w, v = oracle.eigh(m)
    with decimal.localcontext(oracle._context()):
        a = [[Decimal(float(x)) for x in row] for row in m]
        residual = max(
            abs(sum(a[i][k] * v[k][j] for k in range(6)) - w[j] * v[i][j])
            for i in range(6)
            for j in range(6)
        )
        gram = max(
            abs(sum(v[k][i] * v[k][j] for k in range(6)) - int(i == j))
            for i in range(6)
            for j in range(6)
        )
    assert residual < Decimal("1e-40") and gram < Decimal("1e-40")
    assert np.allclose(sorted(float(x) for x in w), np.linalg.eigvalsh(m), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n,seed", STATES)
def test_quantum_entropy_paths_agree_with_the_oracle(capsys, tmp_path, n, seed):
    m = _real_state(n, seed)
    path = tmp_path / "rho.json"
    path.write_text(dump_payload(matrix_payload(m)), encoding="utf-8")
    rho = DensityMatrix(m)
    for alpha in ORDERS:
        want = oracle.renyi_entropy(m, alpha)
        code = main(["entropy", "quantum", "--state", str(path), "--alpha", str(alpha), "--json"])
        cli = json.loads(capsys.readouterr().out)["value"]
        assert code == 0
        assert _close(cli, want), (alpha, cli, want)
        library = quantum_renyi_entropy(rho, alpha).value
        assert _close(library, want), (alpha, library, want)


@pytest.mark.parametrize("n,seed", STATES)
def test_petz_divergence_agrees_with_the_oracle(n, seed):
    m = _real_state(n, seed)
    sigma = _real_state(n, seed + 100, trace=n / 2)  # no unit trace needed
    rho = DensityMatrix(m)
    for alpha in ORDERS:
        want = oracle.petz_divergence(m, sigma, alpha)
        value = renyi_relative_entropy(rho, sigma, alpha).value
        assert _close(value, want), (alpha, value, want)
