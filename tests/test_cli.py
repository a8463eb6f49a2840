import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from renyi import linalg
from renyi.cli import main
from renyi.exceptions import RenyiError
from renyi.fileformat import (
    dump_payload,
    load_payload,
    matrix_from_payload,
    matrix_payload,
)
from renyi.harness import SUITES, derive_rng, random_density_array
from renyi.quantum import DensityMatrix, quantum_renyi_entropy

from test_harness import _SPECTRAL, _count_calls


def write_dist(path, p):
    path.write_text(dump_payload({"p": list(p)}), encoding="utf-8")
    return str(path)


def write_matrix(path, matrix, dims=None):
    path.write_text(dump_payload(matrix_payload(matrix, dims=dims)), encoding="utf-8")
    return str(path)


@pytest.fixture
def u2(tmp_path):
    return write_dist(tmp_path / "u2.json", [0.5, 0.5])


@pytest.fixture
def mm4(tmp_path):
    return write_matrix(tmp_path / "mm4.json", np.eye(4) / 4, dims=(2, 2))


# the flags of each theorem's inputs, in the order the suite declares them
BOUNDS_FLAGS = {
    "lemma2": ("a", "b"),
    "lemma3": ("a", "b"),
    "lemma4": ("a",),
    "t1": ("dist", "beta"),
    "t2_2": ("dist", "beta"),
    "t3": ("state", "alpha"),
    "t3_2": ("state", "alpha"),
    "t4": ("state", "sigma", "alpha"),
    "t6": ("state", "alpha"),
    "triangle": ("state", "sigma", "alpha"),
}


# one flag per theorem that its suite does not read; --dims counts as read
# by the theorems that read a state
UNREAD_FLAGS = {
    "lemma2": ("dims", "x,y"),
    "lemma3": ("alpha", "2"),
    "lemma4": ("b", "b.json"),
    "t1": ("alpha", "2"),
    "t2_2": ("state", "rho.json"),
    "t3": ("beta", "2"),
    "t3_2": ("sigma", "sigma.json"),
    "t4": ("beta", "2"),
    "t6": ("sigma", "sigma.json"),
    "triangle": ("dist", "p.json"),
}


def _bounds_argv(tmp_path, theorem, record) -> list[str]:
    """``bounds theorem`` with a flag for each input of a serialized record,
    each payload written to a file."""
    argv = ["bounds", theorem]
    for name, flag in zip(SUITES[theorem].inputs, BOUNDS_FLAGS[theorem]):
        value = record[name]
        if isinstance(value, dict):
            value = tmp_path / f"{name}.json"
            value.write_text(dump_payload(record[name]), encoding="utf-8")
        argv += [f"--{flag}", str(value)]
    return argv


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEntropyCommands:
    def test_classical_uniform(self, capsys, u2):
        code, out, _ = run(capsys, ["entropy", "classical", "--dist", u2, "--beta", "2"])
        assert code == 0
        assert out.splitlines()[0] == "value 1"

    def test_quantum_maximally_mixed(self, capsys, mm4):
        code, out, _ = run(
            capsys,
            ["entropy", "quantum", "--state", mm4, "--alpha", "2", "--units", "nats"],
        )
        assert code == 0
        assert out.splitlines()[0] == "value 1.38629436112"

    def test_quantum_extreme_order_is_finite(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = g @ g.conj().T
        state = write_matrix(tmp_path / "rho8.json", rho / np.trace(rho).real)
        code, out, _ = run(
            capsys, ["entropy", "quantum", "--state", state, "--alpha", "2000"]
        )
        assert code == 0
        assert math.isfinite(float(out.splitlines()[0].split()[1]))

    def test_twelve_significant_digits(self, capsys, tmp_path):
        dist = write_dist(tmp_path / "p.json", [0.75, 0.25])
        code, out, _ = run(capsys, ["entropy", "classical", "--dist", dist, "--beta", "2"])
        assert code == 0
        assert out.splitlines()[0] == "value 0.678071905113"

    def test_classical_nats_are_bits_times_ln2(self, capsys, tmp_path):
        dist = write_dist(tmp_path / "p.json", [0.75, 0.25])
        argv = ["entropy", "classical", "--dist", dist, "--beta", "2", "--json"]
        _, out, _ = run(capsys, argv)
        code, nats, _ = run(capsys, argv + ["--units", "nats"])
        assert code == 0
        assert json.loads(nats)["units"] == "nats"
        assert json.loads(nats)["value"] == json.loads(out)["value"] * math.log(2.0)

    def test_json_report_echoes_inputs(self, capsys, u2):
        code, out, _ = run(
            capsys,
            ["entropy", "classical", "--dist", u2, "--beta", "2", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 1.0
        assert payload["beta"] == 2.0
        assert payload["units"] == "bits"
        assert payload["inputs"]["dist"] == {"p": [0.5, 0.5]}
        assert "tolerances" in payload

    @pytest.mark.parametrize("command", ["entropy classical", "type-beta"])
    def test_distribution_validated_once(self, capsys, monkeypatch, u2, command):
        from renyi import classical

        counts = _count_calls(monkeypatch, classical, ("probability_vector",))
        code, _, _ = run(capsys, [*command.split(), "--dist", u2, "--beta", "2"])
        assert (code, counts) == (0, {"probability_vector": 1})

    def test_type_beta(self, capsys, u2):
        code, out, _ = run(capsys, ["type-beta", "--dist", u2, "--beta", "0.5"])
        assert code == 0
        assert out.splitlines()[0] == "value 1"


# the states `entropy quantum` is checked on: full rank, rank deficient
# (5 zero eigenvalues), 1x1 and the largest dimension the reader admits
QUANTUM_ENTROPY_STATES = {
    "full-8": lambda: random_density_array(8, 3),
    "rank-3-of-8": lambda: random_density_array(8, 5, rank=3),
    "one-by-one": lambda: np.ones((1, 1)),
    "full-64": lambda: random_density_array(64, 3),
}


class TestQuantumEntropyFromTheSpectrum:
    """`entropy quantum` reads the state's spectrum alone, by eigvalsh."""

    def test_no_eigenvectors_are_formed(self, capsys, monkeypatch, mm4):
        counts = _count_calls(monkeypatch, linalg, _SPECTRAL)
        code, _, _ = run(capsys, ["entropy", "quantum", "--state", mm4, "--alpha", "2"])
        assert (code, counts) == (
            0, {"spectral_decompose": 0, "spectral_values": 1, "as_hermitian": 1}
        )

    @pytest.mark.parametrize("name", sorted(QUANTUM_ENTROPY_STATES))
    def test_value_is_the_library_entropy(self, capsys, tmp_path, name):
        matrix = QUANTUM_ENTROPY_STATES[name]()
        state = write_matrix(tmp_path / "rho.json", matrix)
        rho = DensityMatrix(matrix)
        for alpha in (0.3, 0.5, 1.0, 2.0, 10.0, 1000.0):
            code, out, _ = run(
                capsys, ["entropy", "quantum", "--state", state, "--alpha", str(alpha), "--json"]
            )
            want = quantum_renyi_entropy(rho, alpha).value
            assert code == 0
            assert abs(json.loads(out)["value"] - want) <= 1e-12 * max(1.0, abs(want)), alpha


class TestDivergenceCommands:
    def test_divergence_value(self, capsys, tmp_path):
        rho = write_matrix(tmp_path / "rho.json", np.diag([0.5, 0.5]))
        sigma = write_matrix(tmp_path / "sig.json", np.diag([0.25, 0.75]))
        code, out, _ = run(
            capsys,
            ["divergence", "--state", rho, "--sigma", sigma, "--alpha", "2"],
        )
        assert code == 0
        value = float(out.splitlines()[0].split()[1])
        assert value == pytest.approx(math.log(4 / 3), abs=1e-10)

    def test_mutual_info_worked_example(self, capsys, mm4):
        code, out, _ = run(
            capsys, ["mutual-info", "--state", mm4, "--dims", "2,2", "--alpha", "2"]
        )
        assert code == 0
        lines = dict(
            line.split(maxsplit=1) for line in out.splitlines() if " " in line
        )
        assert abs(float(lines["value"])) <= 1e-4
        assert "sigma_b" in out

    def test_mutual_info_rejects_a_singular_marginal(self, capsys, tmp_path):
        # |0><0| (x) I/2 has the singular marginal rho_A = |0><0|
        state = write_matrix(
            tmp_path / "rho.json", np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2), dims=(2, 2)
        )
        code, out, err = run(capsys, ["mutual-info", "--state", state, "--alpha", "2"])
        assert (code, out) == (1, "")
        assert json.loads(err)["code"] == "MarginalSingular"

    def test_conditional_json(self, capsys, mm4):
        code, out, _ = run(
            capsys,
            ["conditional", "--state", mm4, "--alpha", "2", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(math.log(2), abs=1e-4)
        sigma, _ = matrix_from_payload(payload["sigma_b"])
        np.testing.assert_allclose(sigma, np.eye(2) / 2, atol=1e-3)


class TestBounds:
    def test_lemma3(self, capsys, tmp_path):
        a = write_matrix(tmp_path / "a.json", np.diag([2.0, 2.0]))
        b = write_matrix(tmp_path / "b.json", np.diag([3.0, 3.0]))
        code, out, _ = run(capsys, ["bounds", "lemma3", "--a", a, "--b", b])
        assert code == 0
        assert "passed True" in out
        assert "equality True" in out

    def test_t1(self, capsys, tmp_path):
        dist = write_dist(tmp_path / "p.json", [0.75, 0.25])
        code, out, _ = run(capsys, ["bounds", "t1", "--dist", dist, "--beta", "2"])
        assert code == 0
        assert "passed True" in out

    def test_t1_json(self, capsys, u2):
        code, out, _ = run(capsys, ["bounds", "t1", "--dist", u2, "--beta", "2", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["passed"] is True
        assert payload["report"]["equality"] is True

    def test_t3_json(self, capsys, mm4):
        code, out, _ = run(
            capsys, ["bounds", "t3", "--state", mm4, "--alpha", "0.5", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["passed"] is True
        assert payload["report"]["equality"] is True

    def test_missing_required_input_is_usage_error(self, capsys, mm4):
        code, _, err = run(capsys, ["bounds", "t4", "--state", mm4, "--alpha", "2"])
        assert code == 2
        assert "--sigma" in err

    @pytest.mark.parametrize("theorem", sorted(BOUNDS_FLAGS))
    def test_report_is_the_suite_check(self, capsys, tmp_path, theorem):
        suite = SUITES[theorem]
        record = suite.serialize(suite.gen(derive_rng(11, 5), 5))
        code, out, _ = run(capsys, _bounds_argv(tmp_path, theorem, record) + ["--json"])
        assert code == 0
        payload = json.loads(out)
        expected = suite.check([suite.parse(record)])[0]
        assert payload["report"] == json.loads(json.dumps(expected.to_dict()))
        assert list(payload["inputs"]) == sorted(BOUNDS_FLAGS[theorem])

    @pytest.mark.parametrize("theorem", sorted(BOUNDS_FLAGS))
    def test_missing_flags_listed_in_suite_order(self, capsys, theorem):
        code, out, err = run(capsys, ["bounds", theorem])
        assert code == 2
        assert out == ""
        flags = ", --".join(BOUNDS_FLAGS[theorem])
        line = f"renyi bounds {theorem}: error: the following arguments are required: --{flags}"
        assert err.splitlines()[-1] == line

    @pytest.mark.parametrize("theorem", sorted(UNREAD_FLAGS))
    def test_unread_flag_is_usage_error(self, capsys, tmp_path, theorem):
        flag, value = UNREAD_FLAGS[theorem]
        suite = SUITES[theorem]
        record = suite.serialize(suite.gen(derive_rng(11, 5), 5))
        argv = _bounds_argv(tmp_path, theorem, record)
        assert run(capsys, argv)[0] == 0
        code, out, err = run(capsys, argv + [f"--{flag}", value])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"renyi: error: unrecognized arguments: --{flag} {value}"

    @pytest.mark.parametrize("theorem", sorted(BOUNDS_FLAGS))
    def test_help_lists_exactly_the_flags_the_theorem_reads(self, capsys, theorem):
        code, out, _ = run(capsys, ["bounds", theorem, "--help"])
        assert code == 0
        reads = BOUNDS_FLAGS[theorem] + (("dims",) if "state" in BOUNDS_FLAGS[theorem] else ())
        options = out.split("options:")[1]
        shown = {word for word in options.split() if word.startswith("--")}
        assert shown == {f"--{flag}" for flag in reads + ("help", "json")}

    def test_flag_before_the_theorem_is_usage_error(self, capsys, mm4):
        # as in gen, a command's flags follow its last subcommand
        argv = ["bounds", "t4", "--state", mm4, "--sigma", mm4, "--alpha", "2", "--json"]
        assert run(capsys, argv)[0] == 0
        code, out, err = run(capsys, ["bounds", "--json", *argv[1:-1]])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "renyi: error: unrecognized arguments: --json"

    def test_t6_dims_flag_retags_the_state(self, capsys, tmp_path):
        # the JSON report echoes the split it used, so it replays itself
        rho = SUITES["t6"].gen(derive_rng(2, 1), 1)["rho"][0]  # a 2x3 split
        state = write_matrix(tmp_path / "rho6.json", rho, dims=(3, 2))
        reports = {}
        for dims in ("3,2", "2,3"):
            code, out, _ = run(
                capsys,
                ["bounds", "t6", "--state", state, "--alpha", "2", "--dims", dims, "--json"],
            )
            assert code == 0
            reports[dims] = json.loads(out)["report"]
            assert json.loads(out)["inputs"]["dims"] == [int(d) for d in dims.split(",")]
        expected = SUITES["t6"].check([{"rho": (rho, (2, 3)), "alpha": 2.0}])[0]
        assert reports["2,3"] == json.loads(json.dumps(expected.to_dict()))
        assert reports["2,3"] != reports["3,2"]

    def test_t1_rejects_unnormalized_distribution(self, capsys, tmp_path):
        bad = write_dist(tmp_path / "bad.json", [0.5, 0.4])
        code, out, err = run(capsys, ["bounds", "t1", "--dist", bad, "--beta", "2"])
        assert code == 1
        assert out == ""
        assert json.loads(err)["code"] == "InvalidDistribution"


# default stdout, byte for byte, on inputs whose printed values are exact:
# u2 = (1/2, 1/2), mm4 = I/4, bell = |Phi+><Phi+|, diag(1/2, 1/2) against
# diag(1/4, 3/4) (ln 4/3), and the untagged diag(3/8, 1/8, 1/8, 3/8), which
# t6 reads only through --dims; each command's --units default is pinned too
PINNED_STDOUT = {
    "entropy classical --dist u2 --beta 2": "value 1\nunits bits\nbeta 2\n",
    "entropy classical --dist u2 --beta 2 --units nats": (
        "value 0.69314718056\nunits nats\nbeta 2\n"
    ),
    "entropy quantum --state mm4 --alpha 2": "value 1.38629436112\nunits nats\nalpha 2\n",
    "type-beta --dist u2 --beta 2": "value 1\nbeta 2\nunits type-beta\n",
    "divergence --state half --sigma quarter --alpha 2": (
        "value 0.287682072452\nunits nats\nalpha 2\nequality_case False\n"
    ),
    "divergence --state half --sigma quarter --alpha 2 --units bits": (
        "value 0.415037499279\nunits bits\nalpha 2\nequality_case False\n"
    ),
    "conditional --state bell --alpha 2": (
        "value -0.69314718056\nunits nats\nalpha 2\n"
        "sigma_b\n  0.5+0j  0+0j\n  0+0j  0.5+0j\n"
    ),
    "mutual-info --state bell --alpha 2": (
        "value 1.38629436112\nunits nats\nalpha 2\n"
        "sigma_b\n  0.5+0j  0+0j\n  0+0j  0.5+0j\n"
    ),
    "bounds t3 --state mm4 --alpha 2": (
        "check t3\nlhs 1.38629436112\nrhs 1.38629436112\ngap 0\npassed True\n"
        "equality True\ntolerance 1e-08\nbound 1.38629436112\ncap 1.38629436112\n"
        "d0 0\nentropy 1.38629436112\nslack_cap 0\nslack_t3 0\n"
    ),
    "bounds t4 --state mm4 --sigma mm4 --alpha 2": (
        "check t4\nlhs 0\nrhs 0\ngap 0\npassed True\nequality True\n"
        "tolerance 1e-08\nbound 0\ndivergence 0\nslack_t4 0\n"
    ),
    "bounds t6 --state corr --dims 2,2 --alpha 2": (
        "check t6\nlhs -0.287682072452\nrhs 0.223143551314\ngap 0.417633419411\n"
        "passed True\nequality False\ntolerance 1e-08\nbound -0.287682072452\n"
        "mutual_information 0.223143551314\nslack_t6 0.417633419411\n"
    ),
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_default_stdout_bytes(capsys, tmp_path, u2, mm4, command):
    bell = np.outer([1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]) / 2
    files = {
        "u2": u2,
        "mm4": mm4,
        "bell": write_matrix(tmp_path / "bell.json", bell, dims=(2, 2)),
        "half": write_matrix(tmp_path / "half.json", np.diag([0.5, 0.5])),
        "quarter": write_matrix(tmp_path / "quarter.json", np.diag([0.25, 0.75])),
        "corr": write_matrix(tmp_path / "corr.json", np.diag([0.375, 0.125, 0.125, 0.375])),
    }
    argv = [files.get(word, word) for word in command.split()]
    assert run(capsys, argv) == (0, PINNED_STDOUT[command], "")


class TestVerifyAndGen:
    def test_verify_clean(self, capsys):
        code, out, _ = run(capsys, ["verify", "lemma4", "--trials", "60", "--seed", "1"])
        assert code == 0
        assert "failures 0" in out

    def test_verify_zero_trials(self, capsys):
        code, out, _ = run(capsys, ["verify", "t4", "--trials", "0", "--seed", "1"])
        assert code == 0
        assert "trials 0" in out

    def test_verify_deterministic_output(self, capsys):
        argv = ["verify", "t3", "--trials", "40", "--seed", "7", "--json"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_verify_failures_end_in_one_error_object(self, capsys, monkeypatch):
        # a suite that records failures prints its report, then main prints
        # the SuiteFailures object and exits 1
        from renyi import harness

        forced = harness.run_suite

        def run_suite(name, trials, seed):
            return forced(name, trials, seed, tolerance=-1.0)

        monkeypatch.setattr(harness, "run_suite", run_suite)
        code, out, err = run(capsys, ["verify", "lemma4", "--trials", "3", "--seed", "1"])
        assert code == 1
        assert "failures 3" in out
        assert sum(line.startswith("failure trial=") for line in out.splitlines()) == 3
        assert err == (
            '{"code": "SuiteFailures", "message": "suite lemma4 recorded 3 '
            'violation(s) beyond tolerance", "offending_field": ""}\n'
        )

    def test_gen_deterministic_files(self, capsys, tmp_path):
        one = tmp_path / "one.json"
        two = tmp_path / "two.json"
        for out in (one, two):
            code, _, _ = run(
                capsys,
                ["gen", "density", "--dim", "4", "--seed", "7", "--out", str(out)],
            )
            assert code == 0
        assert one.read_bytes() == two.read_bytes()

    def test_gen_round_trip_bytes(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        code, _, _ = run(
            capsys,
            ["gen", "density", "--dim", "3", "--seed", "5", "--out", str(path)],
        )
        assert code == 0
        raw = path.read_text(encoding="utf-8")
        reparsed = dump_payload(load_payload(raw))
        assert reparsed == raw

    def test_gen_simplex_and_pd(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            [
                "gen", "simplex", "--dim", "5", "--seed", "7",
                "--zeros", "2", "--out", str(tmp_path / "p.json"),
            ],
        )
        assert code == 0
        payload = load_payload((tmp_path / "p.json").read_text(encoding="utf-8"))
        p = np.array(payload["p"])
        assert (p == 0.0).sum() == 2 and abs(p.sum() - 1) < 1e-10
        code, _, _ = run(
            capsys,
            [
                "gen", "pd", "--dim", "2", "--seed", "3",
                "--cap", "10", "--out", str(tmp_path / "a.json"),
            ],
        )
        assert code == 0


class TestErrorHandling:
    @pytest.mark.parametrize(
        "argv,code",
        [
            (["gen", "pd", "--dim", "3", "--seed", "1", "--cap", "0.5"], "BadCap"),
            (["gen", "pd", "--dim", "3", "--seed", "1", "--cap", "nan"], "BadCap"),
            (["gen", "pd", "--dim", "3", "--seed", "1", "--cap", "inf"], "BadCap"),
        ]
        + [
            (["gen", kind, "--dim", dim, "--seed", "1"], "BadDim")
            for kind in ("density", "pd", "simplex")
            for dim in ("0", "-2")
        ]
        + [(["verify", "t4", "--trials", "-1", "--seed", "1"], "BadTrials")],
    )
    def test_bad_arguments_end_in_error_object(self, capsys, tmp_path, argv, code):
        out = tmp_path / "out.json"
        if argv[0] == "gen":
            argv = argv + ["--out", str(out)]
        rc, stdout, err = run(capsys, argv)  # an escaping exception fails here
        assert rc == 1
        assert stdout == ""
        assert json.loads(err)["code"] == code
        assert not out.exists()

    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run(
            capsys, ["entropy", "classical", "--dist", "nope.json", "--beta", "2"]
        )
        assert code == 1
        error = json.loads(err)
        assert error["code"] == "IoError"
        assert error["message"]

    def test_invalid_distribution(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"p": [0.5, 0.4]}', encoding="utf-8")
        code, _, err = run(
            capsys, ["entropy", "classical", "--dist", str(bad), "--beta", "2"]
        )
        assert code == 1
        assert json.loads(err)["code"] == "InvalidDistribution"

    @pytest.mark.parametrize("command", ["entropy classical", "type-beta"])
    def test_bad_distribution_wins_over_bad_order(self, capsys, tmp_path, command):
        dist = write_dist(tmp_path / "bad.json", [0.5, 0.4])
        code, _, err = run(capsys, [*command.split(), "--dist", dist, "--beta", "-1"])
        assert code == 1
        assert json.loads(err)["code"] == "InvalidDistribution"

    def test_malformed_matrix_names_field(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "matrix": [[1, 0], [0, 1]]}', encoding="utf-8")
        code, _, err = run(
            capsys, ["entropy", "quantum", "--state", str(bad), "--alpha", "2"]
        )
        assert code == 1
        error = json.loads(err)
        assert error["code"] == "FileFormatError"
        assert error["offending_field"] == "matrix"

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "density", "--dim", "6", "--seed", "1", "--dims=-2,-3"],
            ["conditional", "--alpha", "2", "--dims=-2,-2"],
            ["mutual-info", "--alpha", "2", "--dims=-2,-2"],
            ["bounds", "t6", "--alpha", "2", "--dims=-2,-2"],
        ],
    )
    def test_nonpositive_dims_rejected(self, capsys, tmp_path, mm4, argv):
        out = tmp_path / "out.json"
        argv = argv + (["--out", str(out)] if argv[0] == "gen" else ["--state", mm4])
        code, stdout, err = run(capsys, argv)
        assert code == 1
        assert stdout == ""
        error = json.loads(err)
        assert (error["code"], error["offending_field"]) == ("FileFormatError", "dims")
        assert not out.exists()

    def test_usage_error_exit_two(self, capsys):
        assert main(["entropy", "classical", "--beta", "2"]) == 2
        assert main(["no-such-command"]) == 2

    @pytest.mark.parametrize(
        "kind,flag,value",
        [
            ("pd", "--dims", "2,2"),
            ("simplex", "--dims", "2,2"),
            ("pd", "--rank", "2"),
            ("simplex", "--rank", "2"),
            ("density", "--zeros", "1"),
            ("pd", "--zeros", "1"),
            ("density", "--cap", "10"),
            ("simplex", "--cap", "10"),
        ],
    )
    def test_gen_rejects_a_flag_its_kind_does_not_read(self, capsys, tmp_path, kind, flag, value):
        out = tmp_path / "out.json"
        argv = ["gen", kind, "--dim", "4", "--seed", "1", "--out", str(out), flag, value]
        assert main(argv) == 2
        assert not out.exists()

    def test_max_dim_cap(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RENYI_MAX_DIM", "3")
        state = write_matrix(tmp_path / "mm4.json", np.eye(4) / 4)
        code, _, err = run(
            capsys, ["entropy", "quantum", "--state", state, "--alpha", "2"]
        )
        assert code == 1
        assert "RENYI_MAX_DIM" in json.loads(err)["message"]

    @pytest.mark.parametrize(
        "command",
        [
            "divergence --state {ok} --sigma {big} --alpha 2",
            "bounds lemma3 --a {big} --b {ok}",
            "bounds lemma3 --a {ok} --b {big}",
            "bounds t3 --state {big} --alpha 2",
            "gen density --dim 4 --seed 1 --out {out}",
        ],
    )
    def test_max_dim_caps_every_matrix_flag_and_gen(
        self, capsys, tmp_path, monkeypatch, command
    ):
        monkeypatch.setenv("RENYI_MAX_DIM", "3")
        files = {
            "ok": write_matrix(tmp_path / "ok.json", np.eye(2) / 2),
            "big": write_matrix(tmp_path / "big.json", np.eye(4) / 4),
            "out": str(tmp_path / "out.json"),
        }
        code, out, err = run(capsys, command.format(**files).split())
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "code": "FileFormatError",
            "message": "dim 4 exceeds RENYI_MAX_DIM=3",
            "offending_field": "dim",
        }
        assert not (tmp_path / "out.json").exists()

    def test_beta_one_maps_to_error_object(self, capsys, u2):
        code, _, err = run(capsys, ["type-beta", "--dist", u2, "--beta", "1.0"])
        assert code == 1
        assert json.loads(err)["code"] == "BetaOne"


EXTREME_ORDERS = ("0", "1e-9", "0.5", "2", "600", "1025", "2000", "1e5", "1e308")

# each command's flags, with {order} for the order; files come from `gen`
EXTREME_COMMANDS = {
    "entropy-classical": "entropy classical --dist {dist} --beta {order}",
    "entropy-quantum": "entropy quantum --state {rho8} --alpha {order}",
    "type-beta": "type-beta --dist {dist} --beta {order}",
    "divergence": "divergence --state {rho8} --sigma {pd8} --alpha {order}",
    "conditional": "conditional --state {rho4} --alpha {order}",
    "mutual-info": "mutual-info --state {rho4} --alpha {order}",
    "bounds-t1": "bounds t1 --dist {dist} --beta {order}",
    "bounds-t2_2": "bounds t2_2 --dist {dist} --beta {order}",
    "bounds-t3": "bounds t3 --state {rho8} --alpha {order}",
    "bounds-t3_2": "bounds t3_2 --state {rho8} --alpha {order}",
    "bounds-t4": "bounds t4 --state {rho8} --sigma {pd8} --alpha {order}",
    "bounds-t6": "bounds t6 --state {rho4} --alpha {order}",
    "bounds-triangle": "bounds triangle --state {rho8} --sigma {pd8} --alpha {order}",
    "entropy-quantum-mixed": "entropy quantum --state {mixed8} --alpha {order}",
    "bounds-t3-mixed": "bounds t3 --state {mixed8} --alpha {order}",
    "bounds-t3_2-mixed": "bounds t3_2 --state {mixed8} --alpha {order}",
    "conditional-mixed": "conditional --state {mixed4} --alpha {order}",
    "mutual-info-mixed": "mutual-info --state {mixed4} --alpha {order}",
    "bounds-t6-mixed": "bounds t6 --state {mixed4} --alpha {order}",
}

# commands whose --json report must be strict JSON at every order
STRICT_JSON_COMMANDS = (
    "entropy-classical",
    "type-beta",
    "bounds-t1",
    "bounds-t2_2",
    "bounds-t3",
    "entropy-quantum-mixed",
    "bounds-t3-mixed",
    "bounds-t3_2-mixed",
)

# runs that used to end in ZeroDivisionError or OverflowError
FORMER_TRACEBACKS = {("conditional", order) for order in ("1025", "2000", "1e5", "1e308")}

# the commands that evaluate the Petz divergence, and where each --json
# report carries D_alpha(rho || sigma)
PETZ_VALUES = {
    "divergence": lambda out: out["value"],
    "bounds-t4": lambda out: out["report"]["extras"]["divergence"],
    "bounds-triangle": lambda out: out["report"]["lhs"],
}


@pytest.fixture(scope="module")
def extreme_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("extreme")
    files = {
        "rho8": "density --dim 8 --seed 3",
        "pd8": "pd --dim 8 --seed 4",
        "rho4": "density --dim 4 --seed 7 --dims 2,2",
        "dist": "simplex --dim 4 --seed 1",
    }
    for name, spec in files.items():
        files[name] = str(root / f"{name}.json")
        assert main(["gen", *spec.split(), "--out", files[name]]) == 0
    files["mixed8"] = write_matrix(root / "mixed8.json", np.eye(8) / 8)
    # every Gram factor weight of the Sibson path is 1, at every order
    files["mixed4"] = write_matrix(root / "mixed4.json", np.eye(4) / 4, dims=(2, 2))
    return files


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _value_or_error_object(code, out, err, strict_json=False):
    """A run either prints a result or exits 1 with a typed error object."""
    if code == 0:
        assert out
        if strict_json:
            json.loads(out, parse_constant=_reject_constant)
    else:
        assert (code, out) == (1, "")
        error = json.loads(err.strip().splitlines()[-1])
        assert error["code"] in {cls.__name__ for cls in RenyiError.__subclasses__()}


@pytest.mark.parametrize("order", EXTREME_ORDERS)
@pytest.mark.parametrize("command", sorted(EXTREME_COMMANDS))
def test_extreme_orders_end_in_value_or_error_object(
    capsys, extreme_files, command, order
):
    argv = EXTREME_COMMANDS[command].format(order=order, **extreme_files).split()
    code, out, err = run(capsys, argv)  # an escaping exception fails here
    if (command, order) in FORMER_TRACEBACKS:
        assert code == 1
    _value_or_error_object(code, out, err)
    if command in STRICT_JSON_COMMANDS:
        code, out, err = run(capsys, argv + ["--json"])
        _value_or_error_object(code, out, err, strict_json=True)


@pytest.mark.parametrize("theorem", ["lemma2", "lemma3"])
def test_overflowing_lemma_sides_are_one_error_object(capsys, tmp_path, theorem):
    # 1e200 I is a finite PSD pair whose trace product overflows
    big = write_matrix(tmp_path / "big.json", 1e200 * np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["bounds", theorem, "--a", big, "--b", big, "--json"])
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["code"] == "SideOverflow"


# each command on a matrix with entries near the float maximum, and the
# error it ends in for 1e308 I (whose trace overflows), for a Hermitian
# matrix with +-1e308 i off the diagonal (eigenvalues +-1e308) and for the
# matrix of 1e308s (eigenvalues 0 and 2e308, past the float range)
NEAR_FLOAT_MAX_COMMANDS = {
    "entropy quantum --state {x} --alpha 2": ("InvalidDensityMatrix", "NotPsd", "SideOverflow"),
    "divergence --state {x} --sigma {pd} --alpha 2": (
        "InvalidDensityMatrix", "NotPsd", "SideOverflow"
    ),
    "bounds lemma4 --a {x}": ("SideOverflow", "NotPd", "NotPd"),
    "bounds t3 --state {x} --alpha 2": ("InvalidDensityMatrix", "NotPsd", "SideOverflow"),
    "bounds t4 --state {x} --sigma {pd} --alpha 2": (
        "InvalidDensityMatrix", "NotPsd", "SideOverflow"
    ),
    "mutual-info --state {x} --dims 2,1 --alpha 2": (
        "InvalidDensityMatrix", "NotPsd", "SideOverflow"
    ),
}


@pytest.mark.parametrize("command", sorted(NEAR_FLOAT_MAX_COMMANDS))
def test_entries_near_the_float_maximum_are_one_error_object(capsys, tmp_path, command):
    pd = write_matrix(tmp_path / "pd.json", np.eye(2))
    inputs = (
        1e308 * np.eye(2),
        np.array([[0.5, 1e308j], [-1e308j, 0.5]]),
        np.full((2, 2), 1e308),
    )
    for matrix, want in zip(inputs, NEAR_FLOAT_MAX_COMMANDS[command]):
        x = write_matrix(tmp_path / "x.json", matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, command.format(x=x, pd=pd).split())
        assert (code, out) == (1, ""), want
        lines = err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["code"] == want


# payloads that break the file format's one number rule (no boolean, and
# finite as a float), each with a command that reads it and the field its
# FileFormatError names; 10**400 is a JSON integer past the float range
_I4 = json.dumps(matrix_payload(np.eye(4) / 4)["matrix"])
BAD_NUMBER_PAYLOADS = {
    "dim-true": ('{"dim": true, "matrix": [[[1, 0]]]}', "entropy quantum --state", "dim"),
    "dims-true": (
        '{"dim": 4, "dims": [true, 4], "matrix": ' + _I4 + "}", "mutual-info --state", "dims"
    ),
    "entry-true": ('{"dim": 1, "matrix": [[[true, 0]]]}', "entropy quantum --state", "matrix"),
    "entry-huge": (
        '{"dim": 1, "matrix": [[[1' + "0" * 400 + ', 0]]]}', "entropy quantum --state", "matrix"
    ),
    "entry-nan": ('{"dim": 1, "matrix": [[[NaN, 0]]]}', "entropy quantum --state", "matrix"),
    "p-true": ('{"p": [true, false]}', "entropy classical --dist", "p"),
    "p-huge": ('{"p": [1' + "0" * 400 + ", 0]}", "entropy classical --dist", "p"),
    "p-inf": ('{"p": [Infinity, 0]}', "entropy classical --dist", "p"),
}


@pytest.mark.parametrize("name", sorted(BAD_NUMBER_PAYLOADS))
def test_numbers_outside_the_rule_are_one_file_format_error(capsys, tmp_path, name):
    text, command, field = BAD_NUMBER_PAYLOADS[name]
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    order = "--beta" if "--dist" in command else "--alpha"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, [*command.split(), str(path), order, "2"])
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert (error["code"], error["offending_field"]) == ("FileFormatError", field)


# files the reader cannot decode or parse: bytes that are not UTF-8, arrays
# nested past the recursion limit, and an integer of 4,301 digits, past
# Python's int-to-str limit; each used to end in a traceback
MALFORMED_FILES = {
    "not-utf8": b'{"p": [\xff]}',
    "deep": b"[" * 100_000,
    "long-int": b'{"dim": 1' + b"0" * 4300 + b"}",
}


@pytest.mark.parametrize("command", ["entropy quantum --state", "entropy classical --dist"])
@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_malformed_files_are_one_file_format_error(capsys, tmp_path, name, command):
    path = tmp_path / "bad.json"
    path.write_bytes(MALFORMED_FILES[name])
    order = "--beta" if "--dist" in command else "--alpha"
    code, out, err = run(capsys, [*command.split(), str(path), order, "2"])
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert (error["code"], error["offending_field"]) == ("FileFormatError", "")


def test_declared_dim_is_capped_before_any_allocation(capsys, tmp_path, monkeypatch):
    # 3 MB declaring a 10^6 x 10^6 matrix (14.6 TiB of complex128), with 10^6
    # empty rows so the row count matches the declared dim
    monkeypatch.delenv("RENYI_MAX_DIM", raising=False)
    path = tmp_path / "huge.json"
    text = '{"dim": 1000000, "matrix": [' + ",".join(["[]"] * 10**6) + "]}"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, ["entropy", "quantum", "--state", str(path), "--alpha", "2"])
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "code": "FileFormatError",
        "message": "dim 1000000 exceeds RENYI_MAX_DIM=64",
        "offending_field": "dim",
    }


# the Sibson commands on I/4, and where each --json report carries the value,
# which is ln 2 for H_alpha(A|B) and 0 for I_alpha(A;B) at every order
MIXED_SIBSON_VALUES = {
    "conditional-mixed": (lambda out: out["value"], math.log(2)),
    "mutual-info-mixed": (lambda out: out["value"], 0.0),
    "bounds-t6-mixed": (lambda out: out["report"]["extras"]["mutual_information"], 0.0),
}


@pytest.mark.parametrize("command", sorted(MIXED_SIBSON_VALUES))
def test_sibson_commands_are_exact_on_the_mixed_state(capsys, extreme_files, command):
    value_of, want = MIXED_SIBSON_VALUES[command]
    for order in EXTREME_ORDERS:
        if float(order) <= 1.0:
            continue
        argv = EXTREME_COMMANDS[command].format(order=order, **extreme_files).split()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv + ["--json"])
        assert (code, err) == (0, ""), order
        assert value_of(json.loads(out)) == pytest.approx(want, abs=1e-12), order


def load_matrix(path):
    return matrix_from_payload(load_payload(Path(path).read_text(encoding="utf-8")))[0]


def petz_reference(rho, sigma, alpha):
    """``D_alpha(rho || sigma)`` for PD operands from LAPACK eigenpairs, with
    ``tr(rho^alpha sigma^(1-alpha))`` summed in the log domain."""
    p, u = np.linalg.eigh(rho)
    q, v = np.linalg.eigh(sigma)
    weight = np.abs(u.conj().T @ v) ** 2 * p[:, None]
    y = np.log(p)[:, None] - np.log(q)[None, :]
    top = y.max() if alpha > 1.0 else y.min()
    with np.errstate(over="ignore"):
        total = np.sum(weight * np.exp((alpha - 1.0) * (y - top)))
    return top + math.log(total) / (alpha - 1.0)


@pytest.mark.parametrize("command", sorted(PETZ_VALUES))
def test_petz_commands_give_the_divergence_at_every_order(
    capsys, extreme_files, command
):
    rho, sigma = load_matrix(extreme_files["rho8"]), load_matrix(extreme_files["pd8"])
    values = []
    for order in EXTREME_ORDERS:
        argv = EXTREME_COMMANDS[command].format(order=order, **extreme_files).split()
        code, out, err = run(capsys, argv + ["--json"])
        if command != "divergence" and float(order) <= 1.0:
            assert code == 1 and json.loads(err)["code"] == "AlphaOutOfRange"
            continue
        assert (code, err) == (0, "")
        value = PETZ_VALUES[command](json.loads(out))
        want = petz_reference(rho, sigma, float(order))
        assert value == pytest.approx(want, rel=1e-10, abs=1e-12)
        values.append(value)
    # D_alpha does not decrease with the order
    assert all(b >= a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("order", EXTREME_ORDERS)
@pytest.mark.parametrize("command", sorted(PETZ_VALUES))
def test_petz_commands_raise_no_warning(capsys, extreme_files, command, order):
    argv = EXTREME_COMMANDS[command].format(order=order, **extreme_files).split()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv)
    _value_or_error_object(code, out, err)


def test_scalar_t4_is_minus_log_sigma_at_every_order(capsys, tmp_path):
    # the 1x1 state [1] against [q]: D_alpha = -ln q, and the bound is tight
    state = write_matrix(tmp_path / "one.json", np.eye(1))
    sigma = str(tmp_path / "q.json")
    assert main(["gen", "pd", "--dim", "1", "--seed", "6", "--out", sigma]) == 0
    capsys.readouterr()
    q = float(load_matrix(sigma)[0, 0].real)
    assert q == pytest.approx(0.2551, abs=1e-4)
    for order in ("2", "1025", "2000", "1e5", "1e308"):
        argv = ["bounds", "t4", "--state", state, "--sigma", sigma, "--alpha", order]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv + ["--json"])
        assert (code, err) == (0, "")
        report = json.loads(out)["report"]
        assert report["extras"]["divergence"] == pytest.approx(-math.log(q), rel=1e-14)
        assert report["equality"]


@st.composite
def dusty_distributions(draw):
    """Distributions of 1 to 12 entries with exact zeros and 1e-13 dust."""
    masses = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8))
    extras = draw(st.lists(st.sampled_from([0.0, 1e-13]), max_size=4))
    scale = (1.0 - sum(extras)) / sum(masses)
    return draw(st.permutations([m * scale for m in masses] + extras))


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    p=dusty_distributions(),
    order=st.sampled_from(EXTREME_ORDERS),
    command=st.sampled_from(
        ["entropy-classical", "type-beta", "bounds-t1", "bounds-t2_2"]
    ),
)
def test_classical_commands_end_in_value_or_error_object(
    capsys, tmp_path, p, order, command
):
    dist = write_dist(tmp_path / "dist.json", p)
    argv = EXTREME_COMMANDS[command].format(order=order, dist=dist).split()
    code, out, err = run(capsys, argv + ["--json"])
    _value_or_error_object(code, out, err, strict_json=True)


# argv, and the lines read before the reader closes stdout: the JSON echo of
# a 64-dim state (about 400 kB) is far more than a pipe holds, so the CLI is
# still writing after the first line; verify's summary fits in a pipe, so
# its reader closes before the CLI (still importing) writes anything
BROKEN_PIPES = {
    "entropy-64": ("entropy quantum --state {rho64} --alpha 2 --json", 1),
    "verify": ("verify lemma2 --trials 20 --seed 9 --json", 0),
}


@pytest.mark.parametrize("command", sorted(BROKEN_PIPES))
def test_closed_stdout_is_one_io_error_object(tmp_path, command):
    rho64 = write_matrix(tmp_path / "rho64.json", np.diag(np.arange(1.0, 65.0) / 2080.0))
    text, lines = BROKEN_PIPES[command]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "renyi.cli", *text.format(rho64=rho64).split()]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines):
        assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    # one line: no traceback, and no "Exception ignored" at interpreter exit
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "code": "IoError",
        "message": "stdout was closed before the output was complete",
        "offending_field": "",
    }
