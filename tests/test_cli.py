import json
import math

import numpy as np
import pytest

from renyi.cli import main
from renyi.fileformat import (
    dump_payload,
    load_payload,
    matrix_from_payload,
    matrix_payload,
)


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

    def test_type_beta(self, capsys, u2):
        code, out, _ = run(capsys, ["type-beta", "--dist", u2, "--beta", "0.5"])
        assert code == 0
        assert out.splitlines()[0] == "value 1"


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

    def test_usage_error_exit_two(self, capsys):
        assert main(["entropy", "classical", "--beta", "2"]) == 2
        assert main(["no-such-command"]) == 2

    def test_max_dim_cap(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RENYI_MAX_DIM", "3")
        state = write_matrix(tmp_path / "mm4.json", np.eye(4) / 4)
        code, _, err = run(
            capsys, ["entropy", "quantum", "--state", state, "--alpha", "2"]
        )
        assert code == 1
        assert "RENYI_MAX_DIM" in json.loads(err)["message"]

    def test_beta_one_maps_to_error_object(self, capsys, u2):
        code, _, err = run(capsys, ["type-beta", "--dist", u2, "--beta", "1.0"])
        assert code == 1
        assert json.loads(err)["code"] == "BetaOne"
