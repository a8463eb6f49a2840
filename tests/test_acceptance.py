"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <k> PASS/FAIL`` line (run pytest with -s
to see them live).  Criteria with runtime caps assert wall-clock time too.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

from renyi.cli import main as cli_main
from renyi.classical import entropy_type_beta, renyi_entropy
from renyi.divergence import conditional_entropy, mutual_information
from renyi.harness import random_density, run_suite
from renyi.linalg import matrix_power, recombine, spectral_decompose
from renyi.quantum import DensityMatrix, quantum_renyi_entropy

from bloch_oracle import zoom_grid_minimum


@contextlib.contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS: {description} [{elapsed:.1f}s]")


def test_criterion_1_worked_example():
    with criterion(1, "maximally mixed worked example (alpha=2, dA=dB=2)"):
        start = time.perf_counter()
        rho = DensityMatrix(np.eye(4) / 4, dims=(2, 2))
        mi, out_mi = mutual_information(rho, 2.0)
        ce, out_ce = conditional_entropy(rho, 2.0)
        elapsed = time.perf_counter() - start
        assert abs(mi) <= 1e-12
        assert abs(ce - math.log(2)) <= 1e-12
        for out in (out_mi, out_ce):
            assert np.abs(out.optimizer_sigma.matrix - np.eye(2) / 2).max() <= 1e-12
        assert elapsed < 10.0


def test_criterion_2_oracle_equivalence():
    with criterion(2, "diagonal oracle equivalence over 10,000 trials"):
        report = run_suite("diag_oracle", 10_000, seed=1)
        assert report.failures == []
        assert report.max_violation <= 1e-10


def test_criterion_3_inequality_suites():
    suites = (
        "lemma2",
        "lemma3",
        "lemma4",
        "t1",
        "t2_2",
        "t3",
        "t3_2",
        "t4",
        "triangle",
        "info_fn_eq",
        "eq4_roundtrip",
    )
    with criterion(3, "eleven inequality suites, 1000 trials each, seed 1"):
        start = time.perf_counter()
        reports = {name: run_suite(name, 1000, seed=1, tolerance=1e-8) for name in suites}
        elapsed = time.perf_counter() - start
        for name, report in reports.items():
            assert report.failures == [], f"{name} reported failures"
            assert report.max_violation <= 1e-8, name
            assert report.injected_equality == 10, name
            assert report.equality_flagged == report.injected_equality, name
        assert elapsed < 60.0, f"suites took {elapsed:.1f}s"


def test_criterion_4_t6_suite():
    with criterion(4, "mutual-information bound suite (t6), 200 trials"):
        start = time.perf_counter()
        report = run_suite("t6", 200, seed=1, tolerance=1e-8)
        elapsed = time.perf_counter() - start
        assert report.failures == []
        assert report.max_violation <= 1e-8
        assert report.injected_equality == 2
        assert report.equality_flagged == 2
        assert elapsed < 900.0, f"t6 suite took {elapsed:.1f}s"


def test_criterion_5_optimizer_vs_grid_oracle():
    with criterion(5, "closed-form minimizer vs Bloch-ball zoom grid on 20 states"):
        start = time.perf_counter()
        worst = 0.0
        for seed in range(20):
            rho = DensityMatrix(
                random_density(4, seed, rank=4).matrix, dims=(2, 2)
            )
            value, _ = mutual_information(rho, 2.0)
            grid = zoom_grid_minimum(rho.matrix, 2.0, "mutual")
            worst = max(worst, abs(value - grid))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-10, f"worst |closed form - grid| = {worst:.2e}"
        assert elapsed < 5.0, f"grid comparison took {elapsed:.1f}s"


def test_criterion_6_closed_form_cross_checks():
    with criterion(6, "closed-form cross checks"):
        for beta in (0.3, 0.5, 2.0, 5.0):
            assert abs(entropy_type_beta([0.5, 0.5], beta) - 1.0) <= 1e-12
        for n in (2, 4, 8, 16):
            for beta in (0.3, 0.5, 0.9, 1.5, 2.0, 3.0, 5.0, 1e4):
                got = renyi_entropy([1.0 / n] * n, beta)
                assert abs(got - math.log2(n)) <= 1e-12
        for d in (2, 3, 4, 5, 6, 7, 8):
            rho = DensityMatrix(np.eye(d) / d)
            for alpha in (0.3, 0.5, 0.9, 1.0, 1.5, 2.0, 3.0, 5.0, 400.0):
                got = quantum_renyi_entropy(rho, alpha).value
                assert abs(got - math.log(d)) <= 1e-10


def test_criterion_7_eigensolver():
    with criterion(7, "eigensolver on 10,000 random Hermitian matrices"):
        rng = np.random.default_rng(2025)
        for trial in range(10_000):
            n = 1 + trial % 8
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = (g + g.conj().T) / 2
            dec = spectral_decompose(a)
            scale = 1.0 + np.abs(a).max()
            assert np.abs(recombine(dec.eigenvectors, dec.eigenvalues) - a).max() <= 1e-9 * scale
            v = dec.eigenvectors
            assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-9
            if trial % 5 == 0:
                pd = a @ a.conj().T + 0.1 * np.eye(n)
                r = 0.5 if trial % 10 == 0 else 2.0
                back = matrix_power(matrix_power(pd, r), 1.0 / r)
                assert np.abs(back - pd).max() <= 1e-8


def _run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    return code, buffer.getvalue()


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "verify and gen byte-identical across repeated runs"):
        verify_argv = ["verify", "t3", "--trials", "120", "--seed", "11", "--json"]
        code_a, out_a = _run_cli(verify_argv)
        code_b, out_b = _run_cli(verify_argv)
        assert code_a == code_b == 0
        assert out_a.encode() == out_b.encode()

        plain = ["verify", "lemma3", "--trials", "80", "--seed", "3"]
        assert _run_cli(plain) == _run_cli(plain)

        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _ = _run_cli(
                ["gen", "density", "--dim", "6", "--seed", "99",
                 "--rank", "4", "--out", str(path)]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

        for kind, extra in (("simplex", ["--zeros", "2"]), ("pd", ["--cap", "50"])):
            files = [tmp_path / f"{kind}_{i}.json" for i in (0, 1)]
            for path in files:
                code, _ = _run_cli(
                    ["gen", kind, "--dim", "5", "--seed", "21", "--out", str(path)]
                    + extra
                )
                assert code == 0
            assert files[0].read_bytes() == files[1].read_bytes()
