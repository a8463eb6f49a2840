import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from renyi.cli import main
from renyi.exceptions import RenyiError
from renyi.fileformat import (
    dump_payload,
    load_payload,
    matrix_from_payload,
    matrix_payload,
)
from renyi.harness import SUITES, derive_rng


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

    @pytest.mark.parametrize("theorem", sorted(BOUNDS_FLAGS))
    def test_report_is_the_suite_check(self, capsys, tmp_path, theorem):
        suite = SUITES[theorem]
        record = suite.serialize(suite.gen(derive_rng(11, 5), 5))
        argv = ["bounds", theorem, "--json"]
        for name, flag in zip(suite.inputs, BOUNDS_FLAGS[theorem]):
            value = record[name]
            if isinstance(value, dict):
                value = tmp_path / f"{name}.json"
                value.write_text(dump_payload(record[name]), encoding="utf-8")
            argv += [f"--{flag}", str(value)]
        code, out, _ = run(capsys, argv)
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
        flags = " --".join(BOUNDS_FLAGS[theorem])
        assert err == f"error: bounds {theorem} requires --{flags}\n"

    def test_t6_dims_flag_retags_the_state(self, capsys, tmp_path):
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
        expected = SUITES["t6"].check([{"rho": (rho, (2, 3)), "alpha": 2.0}])[0]
        assert reports["2,3"] == json.loads(json.dumps(expected.to_dict()))
        assert reports["2,3"] != reports["3,2"]

    def test_t1_rejects_unnormalized_distribution(self, capsys, tmp_path):
        bad = write_dist(tmp_path / "bad.json", [0.5, 0.4])
        code, out, err = run(capsys, ["bounds", "t1", "--dist", bad, "--beta", "2"])
        assert code == 1
        assert out == ""
        assert json.loads(err)["code"] == "InvalidDistribution"


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


EXTREME_ORDERS = ("0", "1e-9", "0.5", "2", "1025", "2000", "1e5", "1e308")

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
}

# commands whose --json report must be strict JSON at every order
STRICT_JSON_COMMANDS = (
    "entropy-classical",
    "type-beta",
    "bounds-t1",
    "bounds-t2_2",
    "bounds-t3",
)

# runs that used to end in ZeroDivisionError or OverflowError
FORMER_TRACEBACKS = {
    (command, order)
    for command in ("divergence", "bounds-t4", "bounds-triangle")
    for order in ("1e5", "1e308")
} | {("conditional", order) for order in ("1025", "2000", "1e5", "1e308")}


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
