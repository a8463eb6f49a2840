import dataclasses
import json
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_records as golden
from renyi import harness, quantum
from renyi.divergence import t6_lower_bound
from renyi.exceptions import (
    AlphaOne,
    AlphaOutOfRange,
    BadCap,
    BadDim,
    BadRank,
    BadTrials,
    BadZeros,
    DimensionMismatch,
    FileFormatError,
    InvalidDistribution,
    NonHermitianInput,
    NotBipartite,
    NotPd,
    SigmaSingular,
    UnknownSuite,
)
from renyi.harness import (
    SUITES,
    _basis_from_rng,
    derive_rng,
    random_density,
    random_pd,
    random_simplex,
    replay,
    run_suite,
)
from renyi.quantum import DensityMatrix
from renyi.report import CHAIN_TOL, EQ_TOL, chain, identities


def _entry(verdict, i: int) -> str:
    """Trial ``i``'s verdict-array entries, as JSON."""
    return json.dumps(
        (
            float(verdict.gap[i]),
            bool(verdict.equality[i]),
            float(verdict.tolerance[i]),
            float(verdict.violation[i]),
        )
    )


def _fields(report) -> str:
    """The same fields of a report, as JSON."""
    return json.dumps((report.gap, report.equality, report.tolerance, report.violation))


def _refuse_big_arrays(monkeypatch) -> None:
    """Make ``np.empty`` fail the test, not allocate, past 10**6 entries."""
    empty = np.empty

    def guarded(shape, *args, **kwargs):
        assert np.prod(shape) <= 10**6, f"np.empty{shape}"
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", guarded)


class TestGenerators:
    def test_density_contract(self):
        rho = random_density(3, 123)
        assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-10
        assert rho.eigenvalues.min() >= 0.0

    def test_density_rank(self):
        rho = random_density(4, 9, rank=2)
        assert int((rho.eigenvalues > 1e-12).sum()) == 2

    def test_density_determinism(self):
        a = random_density(4, 77)
        b = random_density(4, 77)
        assert np.array_equal(a.matrix, b.matrix)

    def test_density_bad_rank(self):
        with pytest.raises(BadRank):
            random_density(3, 1, rank=4)
        with pytest.raises(BadRank):
            random_density(3, 1, rank=0)

    def test_pd_contract(self):
        from renyi.linalg import spectral_decompose

        for dim, cap in ((2, 100.0), (1, 10.0), (5, 1000.0)):
            a = random_pd(dim, 11, cap)
            w = spectral_decompose(a).eigenvalues
            assert w.min() > 0.0
            assert w.max() / w.min() <= cap * (1 + 1e-9)

    def test_pd_cap_one_is_identity_multiple(self):
        a = random_pd(3, 5, 1.0)
        np.testing.assert_allclose(a, np.eye(3), atol=1e-12)

    def test_simplex_contract(self):
        p = random_simplex(5, 7, zeros=2)
        assert p.size == 5
        assert int((p == 0.0).sum()) == 2
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_simplex_degenerate(self):
        np.testing.assert_allclose(random_simplex(1, 3, zeros=0), [1.0])

    def test_simplex_determinism(self):
        assert np.array_equal(random_simplex(6, 42, 1), random_simplex(6, 42, 1))

    def test_simplex_bad_zeros(self):
        with pytest.raises(BadZeros):
            random_simplex(3, 1, zeros=3)
        with pytest.raises(BadZeros):
            random_simplex(3, 1, zeros=-1)

    def test_density_invariants_bulk(self):
        # 10,000 draws honor the DensityMatrix invariants
        count = 0
        for seed in range(10_000):
            dim = 1 + seed % 8
            rank = 1 + seed % dim
            rho = random_density(dim, seed, rank=rank)
            assert rho.eigenvalues.min() >= 0.0
            count += 1
        assert count == 10_000

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 32, 64])
    def test_basis_is_unitary(self, n):
        u = _basis_from_rng(derive_rng(13, n), n)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(n), rtol=0, atol=1e-13)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(n), rtol=0, atol=1e-13)

    def test_basis_phases_are_uniform(self):
        # Haar entries have mean 0 and E|u_00|^2 = 1/n; an unfixed QR factor
        # keeps diag(R)'s phase and gives a real negative u_00 on average
        entries = np.array(
            [_basis_from_rng(derive_rng(21, k), 2)[0, 0] for k in range(4000)]
        )
        assert abs(entries.mean()) < 0.05
        assert abs(np.mean(np.abs(entries) ** 2) - 0.5) < 0.03

    def test_simplex_mean_on_support(self):
        n, zeros = 5, 2
        rng = derive_rng(2024)
        totals = np.zeros(n)
        draws = 10_000
        for _ in range(draws):
            # fresh substream per draw through the generator's own rng
            p = np.zeros(n)
            m = n - zeros
            e = rng.standard_exponential(m)
            p[:m] = e / e.sum()
            totals[:m] += p[:m]
        mean = totals[: n - zeros] / draws
        np.testing.assert_allclose(mean, 1.0 / (n - zeros), rtol=0.05)


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("lemma99", 10, 1)

    def test_registry_names(self):
        assert set(SUITES) == {
            "lemma2",
            "lemma3",
            "lemma4",
            "t1",
            "t2_2",
            "t3",
            "t3_2",
            "t4",
            "t6",
            "triangle",
            "info_fn_eq",
            "eq4_roundtrip",
            "diag_oracle",
        }

    @pytest.mark.parametrize(
        "name",
        [n for n in sorted(SUITES) if n != "t6"],
    )
    def test_small_runs_are_clean(self, name):
        rep = run_suite(name, 150, seed=1)
        suite = SUITES[name]
        tolerance = suite.check([suite.gen(derive_rng(1, 0), 0)])[0].tolerance
        assert rep.failures == []
        assert rep.max_violation <= tolerance
        assert rep.injected_equality == 2
        assert rep.equality_flagged == 2

    def test_t6_small_run(self):
        rep = run_suite("t6", 8, seed=1)
        assert rep.failures == []
        assert rep.injected_equality == 1
        assert rep.equality_flagged == 1

    def test_determinism(self):
        a = run_suite("lemma3", 120, seed=9)
        b = run_suite("lemma3", 120, seed=9)
        assert a.to_dict() == b.to_dict()
        assert a.elapsed != 0.0  # elapsed exists but is excluded from content

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_rekeyed_generator_matches_fresh_substreams(self, monkeypatch, name):
        # run_suite re-keys one generator per trial; each trial, equality
        # cases and block boundaries included, sees what a fresh
        # derive_rng(seed, trial) and a Philox built from the key give.
        # Seeds past 64 bits or below zero fold into the key word mod 2^64.
        suite = SUITES[name]
        seen = []

        def record(batch):
            seen.extend(batch)
            zeros = np.zeros(len(batch))
            return harness.Verdict("record", zeros, zeros, zeros, zeros > 0.0, zeros)

        monkeypatch.setitem(SUITES, name, dataclasses.replace(suite, check=record))
        monkeypatch.setattr(harness, "BLOCK", 64)
        seeds = (8, 2**64 + 5, 2**63, -1) if name in ("info_fn_eq", "t4") else (8,)
        for seed in seeds:
            seen.clear()
            run_suite(name, 201, seed=seed)
            assert len(seen) == 201
            for trial, inputs in enumerate(seen):
                key = np.array([seed % 2**64, trial], dtype=np.uint64)
                built = np.random.Generator(np.random.Philox(key=key))
                expected = json.dumps(suite.serialize(inputs))
                for rng in (derive_rng(seed, trial), built):
                    generated = json.dumps(suite.serialize(suite.gen(rng, trial)))
                    assert generated == expected, (seed, trial)

    def test_info_fn_eq_draws_match_two_uniform_calls(self):
        # _gen_info_fn_eq draws x and y in one call because uniform(0, h) is
        # h * random() bit for bit; the two-call form must agree on every
        # substream, whatever stream the installed numpy produces
        def two_calls(rng, i):
            eq = i % 100 == 0
            if eq:
                x = y = float(rng.uniform(0.0, 0.49))
            else:
                x = float(rng.uniform(0.0, 1.0 - 1e-5))
                y = float(rng.uniform(0.0, 1.0 - 1e-5 - x))
            beta = harness.ORDERS_CYCLE[i % 7]
            return {"x": x, "y": y, "beta": beta, "equality_injected": eq}

        for trial in range(2000):
            expected = json.dumps(two_calls(derive_rng(12, trial), trial))
            drawn = harness._gen_info_fn_eq(derive_rng(12, trial), trial)
            assert all(type(drawn[key]) is float for key in ("x", "y")), trial
            assert json.dumps(drawn) == expected, trial

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_stacked_reports_match_batches_of_one(self, name):
        # verify checks stacked batches and reads the verdict arrays; bounds
        # and replay check a batch of one and take its report
        suite = SUITES[name]
        trials = 8 if name == "t6" else 200
        batch = [suite.gen(derive_rng(6, trial), trial) for trial in range(trials)]
        verdict = suite.check(batch)
        assert len(verdict) == len(batch)
        for i, inputs in enumerate(batch):
            alone = suite.check([inputs])[0]
            report = verdict[i]
            assert json.dumps(report.to_dict()) == json.dumps(alone.to_dict())
            assert _entry(verdict, i) == _fields(report), i

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_verdicts_survive_a_pickle_round_trip(self, name):
        # a verdict is plain data: arrays and a dict of arrays, no closure,
        # over a block of several shape groups for the kernel suites
        suite = SUITES[name]
        batch = [suite.gen(derive_rng(3, trial), trial) for trial in range(16)]
        verdict = suite.check(batch)
        again = pickle.loads(pickle.dumps(verdict))
        assert len(again) == len(batch)
        for i in range(len(batch)):
            assert json.dumps(again[i].to_dict()) == json.dumps(verdict[i].to_dict()), i

    def test_trials_are_order_independent_substreams(self):
        # trial k's inputs depend only on (seed, k), not on earlier trials
        suite = SUITES["lemma4"]
        full = [suite.gen(derive_rng(5, i), i) for i in range(10)]
        alone = suite.gen(derive_rng(5, 7), 7)
        assert json.dumps(suite.serialize(full[7])) == json.dumps(suite.serialize(alone))

    def test_failure_records_replay_exactly(self):
        rep = run_suite("t1", 60, seed=4, tolerance=-1.0)
        assert rep.failures  # negative tolerance forces every trial to fail
        for record in rep.failures[:10]:
            again = replay("t1", record.inputs)
            assert again.gap == record.report.gap
            assert again.violation == record.report.violation

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_failure_records_replay_via_json(self, name):
        rep = run_suite(name, 8 if name == "t6" else 40, seed=4, tolerance=-1.0)
        assert len(rep.failures) == rep.trials
        for record in rep.failures:
            again = replay(name, json.loads(json.dumps(record.inputs)))
            assert again.to_dict() == record.report.to_dict()

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_reports_are_json_serializable(self, name):
        # forced failures put every trial's inputs and report in the record
        text = json.dumps(run_suite(name, 200, 9, tolerance=-1.0).to_dict())
        assert json.loads(text)["suite"] == name

    @pytest.mark.parametrize(
        "faults,error",
        [
            ({"p", "q", "alpha", "sigma"}, InvalidDistribution),
            ({"q", "alpha", "sigma"}, InvalidDistribution),
            ({"alpha", "sigma"}, AlphaOutOfRange),
            ({"one", "sigma"}, AlphaOne),
            ({"sigma"}, SigmaSingular),
        ],
    )
    def test_diag_oracle_replay_raises_the_first_fault(self, faults, error):
        # the library's order: p and q, then the order, then sigma's support
        inputs = {
            "p": {"p": [0.5, 0.4] if "p" in faults else [0.5, 0.5]},
            "q": {"p": [0.6, 0.6] if "q" in faults else [1.0, 0.0]},
            "alpha": -1.0 if "alpha" in faults else 1.0 if "one" in faults else 2.0,
        }
        with pytest.raises(error):
            replay("diag_oracle", inputs)
        if not faults - {"sigma"}:
            inputs["q"] = {"p": [0.25, 0.75]}
            assert replay("diag_oracle", inputs).passed

    @pytest.mark.parametrize(
        "name,key,payload,field",
        [
            ("t3", "rho", {"dim": True, "matrix": [[[1, 0]]]}, "dim"),
            ("t6", "rho", {"dim": 1, "dims": [True, 1], "matrix": [[[1, 0]]]}, "dims"),
            ("t3", "rho", {"dim": 1, "matrix": [[[10**400, 0]]]}, "matrix"),
            ("t1", "p", {"p": [10**400, 0]}, "p"),
            ("t1", "p", {"p": [True, False]}, "p"),
        ],
        ids=["dim-true", "dims-true", "entry-huge", "p-huge", "p-true"],
    )
    def test_replay_parses_by_the_file_format_number_rule(self, name, key, payload, field):
        # no boolean, and finite as a float: what the CLI reads from a file
        suite = SUITES[name]
        inputs = suite.serialize(suite.gen(derive_rng(9, 1), 1))
        inputs[key] = payload
        with pytest.raises(FileFormatError) as info:
            replay(name, inputs)
        assert info.value.offending_field == field

    def test_replay_checks_every_row_before_allocating(self, monkeypatch):
        # a declared dim of 10**6 with 10**6 empty rows is 8 MB of references;
        # its 10**6 x 10**6 array would be 14.6 TiB, and none is requested
        _refuse_big_arrays(monkeypatch)
        # a cap that admits the declared dim, so the row check is what rejects it
        monkeypatch.setenv("RENYI_MAX_DIM", str(10**6))
        with pytest.raises(FileFormatError) as info:
            replay("lemma4", {"a": {"dim": 10**6, "matrix": [[]] * 10**6}})
        assert info.value.offending_field == "matrix"
        assert str(info.value) == "row 0 must have 1000000 entries"

    @pytest.mark.parametrize("cap,dim", [("3", 4), (None, 10**6)], ids=["cap-3", "default-cap"])
    def test_replay_caps_the_declared_dim_before_any_row(self, monkeypatch, cap, dim):
        # every row aliases one full-length row, so each row passes the row
        # check; at dim 10**6 the array would be 14.6 TiB, and none is requested
        _refuse_big_arrays(monkeypatch)
        if cap is None:
            monkeypatch.delenv("RENYI_MAX_DIM", raising=False)
        else:
            monkeypatch.setenv("RENYI_MAX_DIM", cap)
        row = [[0.0, 0.0]] * dim
        with pytest.raises(FileFormatError) as info:
            replay("lemma4", {"a": {"dim": dim, "matrix": [row] * dim}})
        assert info.value.offending_field == "dim"
        assert str(info.value) == f"dim {dim} exceeds RENYI_MAX_DIM={cap or 64}"

    def test_negative_trials_rejected(self):
        with pytest.raises(BadTrials):
            run_suite("t4", -1, seed=1)
        assert run_suite("t4", 0, seed=1).trials == 0


_SPECIAL = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-7, -1e-7, 1.0]
)
_FLOAT = st.one_of(_SPECIAL, st.floats(allow_nan=True, allow_infinity=True))


def _rows(draw, columns: int, trials: int) -> list[np.ndarray]:
    return [
        np.array(draw(st.lists(_FLOAT, min_size=trials, max_size=trials)))
        for _ in range(columns)
    ]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestStackedRules:
    """Each row of ``report.chain`` and ``report.identities`` is the
    written-out formulas, as JSON, its report and its verdict-array entries
    alike, including ±0, ±inf, NaN and subnormal slacks, with Python's
    ``min``/``max`` rules."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), parts=st.integers(1, 3), trials=st.integers(1, 5))
    def test_chain_rows_are_the_written_out_rules(self, data, parts, trials):
        rows = _rows(data.draw, 2 * parts, trials)
        labelled = [(f"p{k}", rows[2 * k], rows[2 * k + 1]) for k in range(parts)]
        verdict = chain("chain", labelled, {"x": rows[0]})
        for i in range(trials):
            one = [(label, float(lo[i]), float(hi[i])) for label, lo, hi in labelled]
            slacks = [(hi - lo) / (1.0 + abs(hi)) for _, lo, hi in one]
            gap, equality = min(slacks), min(abs(x) for x in slacks) <= EQ_TOL
            extras = {"x": float(rows[0][i])}
            extras.update({f"slack_{label}": x for (label, _, _), x in zip(one, slacks)})
            expected = {
                "name": "chain",
                "lhs": one[0][1],
                "rhs": one[-1][2],
                "gap": gap,
                "passed": gap >= -CHAIN_TOL,
                "equality": equality,
                "tolerance": CHAIN_TOL,
                "extras": extras,
            }
            assert json.dumps(verdict[i].to_dict()) == json.dumps(expected)
            assert _entry(verdict, i) == json.dumps((gap, equality, CHAIN_TOL, max(0.0, -gap)))
            assert _entry(verdict, i) == _fields(verdict[i])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), trials=st.integers(1, 5), tolerance=_SPECIAL)
    def test_identity_rows_are_the_written_out_rule(self, data, trials, tolerance):
        value, expected_value = _rows(data.draw, 2, trials)
        verdict = identities("id", value, expected_value, tolerance)
        for i in range(trials):
            v, e = float(value[i]), float(expected_value[i])
            gap = -abs(v - e) / (1.0 + abs(e))
            expected = {
                "name": "id",
                "lhs": v,
                "rhs": e,
                "gap": gap,
                "passed": gap >= -tolerance,
                "equality": gap >= -tolerance,
                "tolerance": tolerance,
                "extras": {},
            }
            assert json.dumps(verdict[i].to_dict()) == json.dumps(expected)
            assert _entry(verdict, i) == json.dumps(
                (gap, gap >= -tolerance, tolerance, max(0.0, -gap))
            )
            assert _entry(verdict, i) == _fields(verdict[i])


def _state(dim: int) -> np.ndarray:
    return harness._density_from_rng(derive_rng(5, dim), dim, dim)


_SINGULAR = np.diag([0.5, 0.5, 0.0, 0.0])


class TestStateTags:
    """What ``SUITES["t3"|"t6"].check`` makes of a state's dims tag, and the
    order of its errors: the state, then its tag, then the order, then the
    bound's own demands (a tag and a positive definite state for t6)."""

    @pytest.mark.parametrize("name", ["t3", "t6"])
    def test_list_tag_is_its_tuple(self, name):
        check = SUITES[name].check
        listed = check([{"rho": (_state(4), [2, 2]), "alpha": 2.0}])[0]
        tupled = check([{"rho": (_state(4), (2, 2)), "alpha": 2.0}])[0]
        assert json.dumps(listed.to_dict()) == json.dumps(tupled.to_dict())

    def test_untagged_state(self):
        batch = [{"rho": (_state(4), None), "alpha": 2.0}]
        assert SUITES["t3"].check(batch)[0].passed
        with pytest.raises(NotBipartite):
            SUITES["t6"].check(batch)

    @pytest.mark.parametrize("name", ["t3", "t6"])
    def test_tag_wrong_for_the_shape(self, name):
        with pytest.raises(DimensionMismatch):
            SUITES[name].check([{"rho": (_state(4), (2, 3)), "alpha": 2.0}])

    @pytest.mark.parametrize("name", ["t3", "t6"])
    def test_state_is_checked_before_its_tag(self, name):
        rho = _state(4)
        rho[0, 1] += 0.1
        with pytest.raises(NonHermitianInput):
            SUITES[name].check([{"rho": (rho, (2, 3)), "alpha": 2.0}])

    def test_singular_state(self):
        batch = [{"rho": (_SINGULAR, (2, 2)), "alpha": 2.0}]
        assert SUITES["t3"].check(batch)[0].equality
        with pytest.raises(NotPd):
            SUITES["t6"].check(batch)

    @pytest.mark.parametrize(
        "alpha,t3_error", [(1.0, AlphaOne), (0.5, None), (-1.0, AlphaOutOfRange)]
    )
    def test_order_comes_before_tag_and_support(self, alpha, t3_error):
        # t6 admits alpha > 1 only, and rejects any other order before it
        # finds the untagged, singular state
        batch = [{"rho": (_SINGULAR, None), "alpha": alpha}]
        with pytest.raises(AlphaOutOfRange):
            SUITES["t6"].check(batch)
        if t3_error is None:
            assert SUITES["t3"].check(batch)[0].passed
        else:
            with pytest.raises(t3_error):
                SUITES["t3"].check(batch)

    @pytest.mark.parametrize("name", ["t3", "t6"])
    def test_batch_with_both_tags_of_one_shape(self, name):
        # a 6x6 state split 2x3 and 3x2 in one batch: each trial gives the
        # report of its own check, and for t6 that of its public bound
        rho = _state(6)
        batch = [
            {"rho": (rho, (2, 3)), "alpha": 2.0},
            {"rho": (rho, (3, 2)), "alpha": 3.0},
            {"rho": (rho, [2, 3]), "alpha": 1.5},
        ]
        verdict = SUITES[name].check(batch)
        for i, inputs in enumerate(batch):
            alone = SUITES[name].check([inputs])[0].to_dict()
            assert json.dumps(verdict[i].to_dict()) == json.dumps(alone), i
            if name == "t6":
                state = DensityMatrix(rho, dims=tuple(inputs["rho"][1]))
                public = t6_lower_bound(state, inputs["alpha"]).to_dict()
                assert json.dumps(alone) == json.dumps(public), i
        if name == "t6":
            # the mutual information depends on the split
            assert verdict[0].extras["mutual_information"] != verdict[1].extras[
                "mutual_information"
            ]


class TestArgumentChecks:
    @pytest.mark.parametrize("dim", [0, -2])
    def test_dimension_below_one(self, dim):
        with pytest.raises(BadDim):
            random_density(dim, 1)
        with pytest.raises(BadDim):
            random_pd(dim, 1)
        with pytest.raises(BadDim):
            random_simplex(dim, 1)

    @pytest.mark.parametrize("cap", [0.5, -1.0, math.nan, math.inf])
    def test_bad_condition_cap(self, cap):
        with pytest.raises(BadCap):
            random_pd(3, 1, cap)


def _count_calls(monkeypatch, module, names):
    """Wrap functions of ``module`` in every ``renyi.*`` namespace that imported them."""
    counts = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        original = getattr(module, name)
        wrapper = counted(name, original)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "renyi" and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, wrapper)
    return counts


_SPECTRAL = ("spectral_decompose", "spectral_values", "as_hermitian")


def _count_svd(monkeypatch, counts: dict) -> dict:
    """Count ``np.linalg.svd`` calls under ``counts["svd"]``."""
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    counts["svd"] = 0
    monkeypatch.setattr(np.linalg, "svd", counted)
    return counts


class TestWorkPerTrial:
    """Each operand is validated once and decomposed once per trial: in full
    by ``spectral_decompose`` where eigenvectors are read, else to its
    spectrum alone by ``spectral_values``.  The Sibson minimum takes one
    ``np.linalg.svd`` per stack: per t6 shape group, and per optimized
    quantity."""

    @pytest.mark.parametrize(
        "name,decompositions,values,validations",
        [
            ("t4", 2, 0, 2),
            ("triangle", 2, 0, 2),
            ("t3", 0, 1, 1),
            ("t3_2", 0, 1, 1),
            ("lemma2", 0, 2, 2),
            ("lemma3", 0, 2, 2),
            ("lemma4", 0, 1, 1),
            ("t6", 2, 0, 2),
            ("diag_oracle", 2, 0, 2),
        ],
    )
    def test_counts(self, monkeypatch, name, decompositions, values, validations):
        from renyi import linalg

        counts = _count_svd(monkeypatch, _count_calls(monkeypatch, linalg, _SPECTRAL))
        suite = SUITES[name]
        for trial in range(1, 25):  # no multiple of 100: no equality case
            counts.update(dict.fromkeys(counts, 0))
            suite.check([suite.gen(derive_rng(3, trial), trial)])
            assert counts == {
                "spectral_decompose": decompositions,
                "spectral_values": values,
                "as_hermitian": validations,
                "svd": int(name == "t6"),
            }, trial

    @pytest.mark.parametrize("trials", [1, 6, 7, 60, 256])
    @pytest.mark.parametrize(
        "name,decompositions,values",
        [
            ("lemma2", 0, 2),
            ("lemma3", 0, 2),
            ("lemma4", 0, 1),
            ("t3", 0, 1),
            ("t3_2", 0, 1),
            ("t4", 2, 0),
            ("triangle", 2, 0),
            ("t6", 2, 0),
            ("diag_oracle", 2, 0),
        ],
    )
    def test_each_shape_group_is_decomposed_once(
        self, monkeypatch, name, decompositions, values, trials
    ):
        # each matrix operand (diag(p) and diag(q) for diag_oracle; rho_AB
        # and its marginals rho_A for t6) is validated and decomposed as one
        # stack per group, however many trials the group holds; a group is
        # one shape, and for a state also one dims tag (t6's 6x6 states come
        # as 2x3 and 3x2)
        from renyi import linalg

        counts = _count_svd(monkeypatch, _count_calls(monkeypatch, linalg, _SPECTRAL))
        suite = SUITES[name]
        batch = [suite.gen(derive_rng(3, trial), trial) for trial in range(1, 1 + trials)]
        kinds = suite.inputs.items()
        groups = len({
            tuple(
                np.shape(inputs[key][0] if kind == harness.MATRIX else inputs[key])
                for key, kind in kinds
                if kind != harness.NUMBER
            ) + (inputs.get("rho", (None, None))[1],)
            for inputs in batch
        })
        if name == "t6":
            assert groups == min(trials, 4)
        suite.check(batch)
        assert counts == {
            "spectral_decompose": decompositions * groups,
            "spectral_values": values * groups,
            "as_hermitian": (decompositions + values) * groups,
            "svd": groups if name == "t6" else 0,
        }

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3)])
    def test_optimized_quantities_take_one_svd_per_call(self, monkeypatch, dims):
        # sigma_B* is decomposed as a state, and the mutual information's
        # marginal rho_A before it; the minimum is one SVD on a stack of one
        from renyi import linalg
        from renyi.divergence import conditional_entropy, mutual_information

        rho = DensityMatrix(harness.random_density_array(dims[0] * dims[1], 5), dims=dims)
        counts = _count_svd(monkeypatch, _count_calls(monkeypatch, linalg, _SPECTRAL))
        for optimized, decompositions in ((mutual_information, 2), (conditional_entropy, 1)):
            for alpha in (1.5, 2.0, 3.0):
                counts.update(dict.fromkeys(counts, 0))
                optimized(rho, alpha)
                assert counts == {
                    "spectral_decompose": decompositions,
                    "spectral_values": 0,
                    "as_hermitian": decompositions,
                    "svd": 1,
                }, (optimized.__name__, alpha)

    def test_diag_oracle_decomposes_one_shape_once_at_every_order(self, monkeypatch):
        # the orders of a group are one array: diag(p) and diag(q) are one
        # stack each, and each row is what the trial gives alone
        from renyi import linalg

        suite = SUITES["diag_oracle"]
        batch = [
            dict(suite.gen(derive_rng(3, trial), trial), alpha=alpha)
            for trial, alpha in ((1, 2.0), (8, 3.0), (15, 0.5))
        ]
        assert len({len(inputs["p"]) for inputs in batch}) == 1
        counts = _count_calls(monkeypatch, linalg, _SPECTRAL)
        verdict = suite.check(batch)
        assert counts == {"spectral_decompose": 2, "spectral_values": 0, "as_hermitian": 2}
        for i, inputs in enumerate(batch):
            alone = suite.check([inputs])[0]
            assert json.dumps(verdict[i].to_dict()) == json.dumps(alone.to_dict()), i

    def test_eigenvalue_checks_form_no_eigenvectors(self, monkeypatch):
        # the lemma kernels, log_det and classify_definiteness read each
        # operand's spectrum alone, one spectral_values call per operand
        from renyi import linalg

        counts = _count_calls(monkeypatch, linalg, _SPECTRAL)
        pd = np.array([[2.0, 0.5], [0.5, 1.0]])
        stack = np.array([pd, 3.0 * pd, np.eye(2)])
        calls = [
            (lambda: linalg._lemma2(stack, stack), 2),
            (lambda: linalg._lemma3(stack, stack), 2),
            (lambda: linalg._lemma4(stack), 1),
            (lambda: linalg.lemma2_check(pd, pd), 2),
            (lambda: linalg.lemma3_check(pd, pd), 2),
            (lambda: linalg.lemma4_check(pd), 1),
            (lambda: linalg.log_det(pd), 1),
            (lambda: linalg.classify_definiteness(pd), 1),
        ]
        for i, (call, operands) in enumerate(calls):
            counts.update(dict.fromkeys(_SPECTRAL, 0))
            call()
            assert counts == {
                "spectral_decompose": 0,
                "spectral_values": operands,
                "as_hermitian": operands,
            }, i

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_generators_neither_decompose_nor_serialize(self, monkeypatch, name):
        from renyi import fileformat, linalg

        from renyi import classical

        counts = _count_calls(monkeypatch, linalg, _SPECTRAL)
        counts.update(_count_calls(monkeypatch, fileformat, ("matrix_payload",)))
        counts.update(_count_calls(monkeypatch, classical, ("probability_vector",)))
        trials = (0, 100) + tuple(range(1, 17))  # equality cases included
        for trial in trials:
            SUITES[name].gen(derive_rng(3, trial), trial)
        assert counts == {
            "spectral_decompose": 0,
            "spectral_values": 0,
            "as_hermitian": 0,
            "matrix_payload": 0,
            "probability_vector": 0,
        }

    @pytest.mark.parametrize("name", ["t1", "t2_2", "info_fn_eq", "eq4_roundtrip"])
    def test_passing_classical_trials_build_no_report(self, monkeypatch, name):
        from renyi.report import BoundReport

        builds = []
        build = BoundReport.__init__

        def counted(self, *args, **kwargs):
            builds.append(args[0])
            build(self, *args, **kwargs)

        monkeypatch.setattr(BoundReport, "__init__", counted)
        assert run_suite(name, 300, 9).failures == []
        assert builds == []
        assert len(run_suite(name, 300, 9, tolerance=-1.0).failures) == 300
        assert builds == [name] * 300

    @pytest.mark.parametrize(
        "name,per_trial",
        [("t1", 1), ("t2_2", 1), ("eq4_roundtrip", 1), ("diag_oracle", 2)],
    )
    def test_distributions_validated_once(self, monkeypatch, name, per_trial):
        from renyi import classical

        counts = _count_calls(monkeypatch, classical, ("probability_vector",))
        suite = SUITES[name]
        batch = [suite.gen(derive_rng(3, trial), trial) for trial in range(1, 57)]
        for inputs in batch:
            counts["probability_vector"] = 0
            suite.check([inputs])
            assert counts == {"probability_vector": per_trial}
        counts["probability_vector"] = 0
        suite.check(batch)
        if name == "diag_oracle":  # p and q once per shape group
            groups = len({len(inputs["p"]) for inputs in batch})
            assert counts == {"probability_vector": 2 * groups}
        else:  # one zero-padded stack per block, whatever the lengths
            assert counts == {"probability_vector": 1}


class TestSpectrumSources:
    """t3 and t3_2 read a state's spectrum alone, from ``eigvalsh``; the
    public bounds read it from ``DensityMatrix``'s decomposition.  The two
    agree on every size and order of the suites' cycles: every float within
    the golden records' tolerance, every count and flag exactly."""

    @pytest.mark.parametrize(
        "name,bound", [("t3", quantum.t3_bound), ("t3_2", quantum.log_dim_cap)]
    )
    def test_suite_rows_match_the_public_bound(self, name, bound):
        suite = SUITES[name]
        # 56 trials take every (size, order) pair of the two cycles; 0 and
        # 100 are equality cases
        pairs = set()
        for trial in list(range(56)) + [100]:
            inputs = suite.serialize(suite.gen(derive_rng(9, trial), trial))
            row = replay(name, inputs).to_dict()
            rho = DensityMatrix(suite.parse(inputs)["rho"][0])
            alone = bound(rho, inputs["alpha"]).to_dict()
            _, largest, errors = golden.moves(alone, row)
            assert errors == [] and largest <= golden.REL_TOL, (trial, largest, errors)
            assert (row["passed"], row["equality"]) == (alone["passed"], alone["equality"])
            assert row["extras"].get("d0") == alone["extras"].get("d0"), trial
            pairs.add((rho.dim, inputs["alpha"]))
        assert pairs == {(d, a) for d in harness.DIMS_CYCLE for a in harness.ORDERS_CYCLE}
