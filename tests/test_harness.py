import dataclasses
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renyi import harness
from renyi.exceptions import BadCap, BadDim, BadRank, BadTrials, BadZeros, UnknownSuite
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
from renyi.report import EQ_TOL, chain_report, identity_report


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
        # derive_rng(seed, trial) and a Philox built from the key give
        suite = SUITES[name]
        seen = []

        def record(batch):
            seen.extend(batch)
            zeros = np.zeros(len(batch))
            return harness.Verdict(zeros, zeros > 0.0, zeros, None)

        monkeypatch.setitem(SUITES, name, dataclasses.replace(suite, check=record))
        monkeypatch.setattr(harness, "BLOCK", 64)
        run_suite(name, 201, seed=8)
        assert len(seen) == 201
        for trial, inputs in enumerate(seen):
            key = np.array([8, trial], dtype=np.uint64)
            built = np.random.Generator(np.random.Philox(key=key))
            expected = json.dumps(suite.serialize(inputs))
            for rng in (derive_rng(8, trial), built):
                assert json.dumps(suite.serialize(suite.gen(rng, trial))) == expected, trial

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
    """The stacked chain and identity rules give what the one-trial reports
    give, as JSON, including ±0, ±inf, NaN and subnormal slacks, and both
    follow Python's ``min``/``max`` on the written-out formulas."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), parts=st.integers(1, 3), trials=st.integers(1, 5))
    def test_chain_verdict_matches_chain_report(self, data, parts, trials):
        rows = _rows(data.draw, 2 * parts, trials)
        labelled = [(f"p{k}", rows[2 * k], rows[2 * k + 1]) for k in range(parts)]
        verdict = harness._chain_verdict("chain", labelled, {"x": rows[0]})
        for i in range(trials):
            one = [(label, float(lo[i]), float(hi[i])) for label, lo, hi in labelled]
            expected = chain_report("chain", one, extras={"x": float(rows[0][i])})
            slacks = [(hi - lo) / (1.0 + abs(hi)) for _, lo, hi in one]
            reference = (min(slacks), min(abs(x) for x in slacks) <= EQ_TOL)
            assert json.dumps((expected.gap, expected.equality)) == json.dumps(reference)
            assert _entry(verdict, i) == _fields(expected)
            assert json.dumps(verdict[i].to_dict()) == json.dumps(expected.to_dict())

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), trials=st.integers(1, 5), tolerance=_SPECIAL)
    def test_identity_verdict_matches_identity_report(self, data, trials, tolerance):
        value, expected_value = _rows(data.draw, 2, trials)
        verdict = harness._identity_verdict("id", value, expected_value, tolerance)
        for i in range(trials):
            v, e = float(value[i]), float(expected_value[i])
            expected = identity_report("id", v, e, tolerance)
            gap = -abs(v - e) / (1.0 + abs(e))
            assert json.dumps(expected.gap) == json.dumps(gap)
            assert expected.violation == max(0.0, -gap)
            assert _entry(verdict, i) == _fields(expected)
            assert json.dumps(verdict[i].to_dict()) == json.dumps(expected.to_dict())


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


class TestWorkPerTrial:
    """Each operand is validated once and decomposed once per trial."""

    @pytest.mark.parametrize(
        "name,decompositions,validations",
        [
            ("t4", 2, 2),
            ("triangle", 2, 2),
            ("t3", 1, 1),
            ("t3_2", 1, 1),
            ("lemma2", 2, 2),
            ("lemma4", 1, 1),
            ("t6", 4, 4),
        ],
    )
    def test_counts(self, monkeypatch, name, decompositions, validations):
        from renyi import linalg

        counts = _count_calls(monkeypatch, linalg, ("spectral_decompose", "as_hermitian"))
        suite = SUITES[name]
        for trial in range(1, 25):  # no multiple of 100: no equality case
            counts.update(spectral_decompose=0, as_hermitian=0)
            suite.check([suite.gen(derive_rng(3, trial), trial)])
            assert counts == {
                "spectral_decompose": decompositions,
                "as_hermitian": validations,
            }, trial

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_generators_neither_decompose_nor_serialize(self, monkeypatch, name):
        from renyi import fileformat, linalg

        from renyi import classical

        counts = _count_calls(monkeypatch, linalg, ("spectral_decompose", "as_hermitian"))
        counts.update(_count_calls(monkeypatch, fileformat, ("matrix_payload",)))
        counts.update(_count_calls(monkeypatch, classical, ("probability_vector",)))
        trials = (0, 100) + tuple(range(1, 17))  # equality cases included
        for trial in trials:
            SUITES[name].gen(derive_rng(3, trial), trial)
        assert counts == {
            "spectral_decompose": 0,
            "as_hermitian": 0,
            "matrix_payload": 0,
            "probability_vector": 0,
        }

    @pytest.mark.parametrize("name", ["t1", "t2_2", "info_fn_eq", "eq4_roundtrip"])
    def test_passing_classical_trials_build_no_report(self, monkeypatch, name):
        from renyi import report

        counts = _count_calls(monkeypatch, report, ("chain_report", "identity_report"))
        assert run_suite(name, 300, 9).failures == []
        assert sum(counts.values()) == 0
        assert len(run_suite(name, 300, 9, tolerance=-1.0).failures) == 300
        assert sum(counts.values()) == 300

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
        if name == "diag_oracle":
            assert counts == {"probability_vector": 2 * len(batch)}
        else:  # one stack per distribution length
            assert counts == {"probability_vector": len({len(x["p"]) for x in batch})}
