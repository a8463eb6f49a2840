import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renyi.classical import (
    entropy_type_beta,
    entropy_type_beta_chain,
    info_function_beta,
    order_from_type,
    probability_vector,
    renyi_entropy,
    shannon_entropy,
    t1_bound,
    type_beta_product_bound,
)
from renyi.exceptions import (
    BetaOne,
    BetaOutOfRange,
    DomainError,
    InvalidDistribution,
)

# frozen via 30-digit arithmetic
RENYI_075_025_B2 = 0.6780719051126377
T1_075_025_B2 = 1.4150374992788438
HTYPE_09_01_B05 = 0.6395518836940884
PRODBOUND_09_01_B05 = 0.2304248911202039


def random_dist(rng, n, zeros=0):
    p = np.zeros(n)
    m = n - zeros
    draws = rng.standard_exponential(m)
    p[:m] = draws / draws.sum()
    rng.shuffle(p)
    return p


class TestProbabilityVector:
    def test_clips_negative_dust(self):
        p = probability_vector([1.0 + 5e-13, -5e-13])
        assert p[1] == 0.0

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidDistribution):
            probability_vector([0.5, 0.4])

    def test_rejects_real_negatives(self):
        with pytest.raises(InvalidDistribution):
            probability_vector([1.1, -0.1])

    def test_rejects_a_sum_past_the_float_range_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDistribution, match="sum to inf"):
                probability_vector([1e308, 1e308])


class TestInfoFunction:
    def test_half_is_one_exactly(self):
        for beta in (0.3, 0.5, 2.0, 5.0):
            assert info_function_beta(0.5, beta) == 1.0

    def test_endpoints_zero(self):
        assert info_function_beta(0.0, 0.5) == 0.0
        assert info_function_beta(1.0, 2.0) == 0.0

    def test_quarter_beta_two(self):
        # (2^-1 - 1)^-1 (0.0625 + 0.5625 - 1) = 0.75
        assert info_function_beta(0.25, 2.0) == pytest.approx(0.75, abs=1e-14)

    def test_domain_and_beta_errors(self):
        with pytest.raises(DomainError):
            info_function_beta(1.5, 2.0)
        with pytest.raises(BetaOne):
            info_function_beta(0.3, 1.0 + 1e-12)
        with pytest.raises(BetaOutOfRange):
            info_function_beta(0.3, -1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(0.0, 0.999),
        frac=st.floats(0.0, 1.0),
        beta=st.sampled_from([0.3, 0.5, 2.0, 3.0]),
    )
    def test_functional_equation(self, x, frac, beta):
        y = frac * (1.0 - 1e-6 - x)
        if y < 0.0:
            y = 0.0
        lhs = info_function_beta(x, beta) + (1 - x) ** beta * info_function_beta(
            y / (1 - x), beta
        )
        rhs = info_function_beta(y, beta) + (1 - y) ** beta * info_function_beta(
            x / (1 - y), beta
        )
        assert abs(lhs - rhs) <= 1e-9


class TestEntropyTypeBeta:
    def test_uniform_two(self):
        assert entropy_type_beta([0.5, 0.5], 2.0) == pytest.approx(1.0, abs=1e-14)

    def test_point_mass(self):
        assert entropy_type_beta([1.0, 0.0], 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_uniform_four(self):
        assert entropy_type_beta([0.25] * 4, 2.0) == pytest.approx(1.5, abs=1e-14)

    def test_chain_form_agrees(self):
        rng = np.random.default_rng(30)
        for _ in range(300):
            n = int(rng.integers(1, 17))
            p = random_dist(rng, n, zeros=int(rng.integers(0, n)))
            for beta in (0.3, 0.5, 2.0, 5.0):
                closed = entropy_type_beta(p, beta)
                chain = entropy_type_beta_chain(p, beta)
                assert abs(closed - chain) <= 1e-10 * (1.0 + abs(closed))

    def test_chain_form_against_inline_sum(self):
        # literal transcription of the defining sum, kept independent of src
        p = np.array([0.1, 0.0, 0.4, 0.2, 0.3])
        for beta in (0.4, 2.5):
            s = 0.0
            acc = p[0]
            total = 0.0
            denom = 2.0 ** (1.0 - beta) - 1.0
            for i in range(1, len(p)):
                acc_prev, acc = acc, acc + p[i]
                if acc == 0.0:
                    continue
                x = p[i] / acc
                f = 1.0 if x == 0.5 else (x**beta + (1 - x) ** beta - 1.0) / denom
                total += acc**beta * f
            assert entropy_type_beta_chain(p, beta) == pytest.approx(
                total, abs=1e-12
            )
            assert entropy_type_beta(p, beta) == pytest.approx(total, abs=1e-10)


class TestRenyiEntropy:
    def test_uniform_is_log_n(self):
        for beta in (0.3, 0.5, 2.0, 5.0, 1.0):
            assert renyi_entropy([1 / 8] * 8, beta) == pytest.approx(3.0, abs=1e-12)

    def test_point_mass_zero(self):
        for beta in (0.5, 1.0, 2.0):
            assert renyi_entropy([1.0, 0.0, 0.0], beta) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_frozen_example(self):
        assert renyi_entropy([0.75, 0.25], 2.0) == pytest.approx(
            RENYI_075_025_B2, abs=1e-12
        )

    def test_shannon_limit(self):
        p = [0.7, 0.2, 0.1]
        direct = -sum(x * math.log2(x) for x in p)
        assert renyi_entropy(p, 1.0) == pytest.approx(direct, rel=1e-12)
        assert shannon_entropy(p) == pytest.approx(direct, rel=1e-12)
        # the near-one band also routes to the limit
        assert renyi_entropy(p, 1.0 + 1e-10) == pytest.approx(direct, rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        weights=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8),
        beta=st.sampled_from([0.3, 0.5, 0.9, 1.0, 1.5, 2.0, 5.0]),
        seed=st.integers(0, 2**16),
    )
    def test_permutation_invariance(self, weights, beta, seed):
        p = np.array(weights) / np.sum(weights)
        q = np.random.default_rng(seed).permutation(p)
        assert renyi_entropy(p, beta) == pytest.approx(
            renyi_entropy(q, beta), abs=1e-10
        )


class TestT1Bound:
    def test_uniform_equality(self):
        for n in (2, 5, 8):
            p = [1.0 / n] * n
            assert t1_bound(p, 0.5) == pytest.approx(math.log2(n), abs=1e-12)
            assert t1_bound(p, 0.5) == pytest.approx(
                renyi_entropy(p, 0.5), abs=1e-12
            )

    def test_with_zero_entry(self):
        p = [0.5, 0.5, 0.0]
        assert t1_bound(p, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert renyi_entropy(p, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_upper_direction_above_one(self):
        bound = t1_bound([0.75, 0.25], 2.0)
        assert bound == pytest.approx(T1_075_025_B2, abs=1e-12)
        assert bound >= renyi_entropy([0.75, 0.25], 2.0)

    def test_directions_random(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            p = random_dist(rng, n, zeros=int(rng.integers(0, n)))
            h = {b: renyi_entropy(p, b) for b in (0.3, 0.9, 1.5, 5.0)}
            for beta in (0.3, 0.9):
                assert h[beta] - t1_bound(p, beta) >= -1e-9
            for beta in (1.5, 5.0):
                assert t1_bound(p, beta) - h[beta] >= -1e-9

    def test_rejects_beta_one(self):
        with pytest.raises(BetaOne):
            t1_bound([0.5, 0.5], 1.0)


class TestTypeBetaProductBound:
    def test_uniform_two_equality(self):
        assert type_beta_product_bound([0.5, 0.5], 0.5) == pytest.approx(
            1.0, abs=1e-12
        )
        assert entropy_type_beta([0.5, 0.5], 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass(self):
        assert type_beta_product_bound([1.0, 0.0], 0.5) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_frozen_example(self):
        assert type_beta_product_bound([0.9, 0.1], 0.5) == pytest.approx(
            PRODBOUND_09_01_B05, abs=1e-12
        )
        assert entropy_type_beta([0.9, 0.1], 0.5) == pytest.approx(
            HTYPE_09_01_B05, abs=1e-12
        )

    def test_bound_direction_random(self):
        # the product expression sits below the type-beta entropy on (0, 1)
        rng = np.random.default_rng(32)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            p = random_dist(rng, n, zeros=int(rng.integers(0, n)))
            for beta in (0.3, 0.5, 0.9):
                h = entropy_type_beta(p, beta)
                assert h >= -1e-12
                assert h - type_beta_product_bound(p, beta) >= -1e-9

    def test_rejects_out_of_range(self):
        with pytest.raises(BetaOutOfRange):
            type_beta_product_bound([0.5, 0.5], 2.0)


class TestOrderFromType:
    def test_zero_fixed_point(self):
        for beta in (0.3, 2.0, 5.0):
            assert order_from_type(0.0, beta) == pytest.approx(0.0, abs=1e-14)

    def test_uniform_two_pair(self):
        assert order_from_type(1.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_frozen(self):
        h = entropy_type_beta([0.75, 0.25], 2.0)
        assert order_from_type(h, 2.0) == pytest.approx(
            RENYI_075_025_B2, abs=1e-12
        )

    @settings(max_examples=150, deadline=None)
    @given(
        weights=st.lists(st.floats(0.001, 1.0), min_size=1, max_size=10),
        beta=st.sampled_from([0.3, 0.5, 0.9, 1.5, 2.0, 3.0, 5.0]),
    )
    def test_round_trip_random(self, weights, beta):
        p = np.array(weights) / np.sum(weights)
        rt = order_from_type(entropy_type_beta(p, beta), beta)
        assert abs(rt - renyi_entropy(p, beta)) <= 1e-10

    def test_domain_error(self):
        with pytest.raises(DomainError):
            order_from_type(-10.0, 0.5)


class TestStacks:
    """Each closed form takes a stack of distributions along the last axis."""

    @pytest.fixture
    def stack(self):
        rng = np.random.default_rng(33)
        p = np.array([random_dist(rng, 6, zeros=int(rng.integers(0, 6))) for _ in range(40)])
        beta = rng.choice([0.3, 0.5, 0.9, 1.5, 2.0, 3.0, 5.0], size=40)
        return p, beta

    @pytest.mark.parametrize(
        "fn", [renyi_entropy, t1_bound, entropy_type_beta, shannon_entropy]
    )
    def test_rows_match_one_dimensional_calls(self, stack, fn):
        p, beta = stack
        args = (p,) if fn is shannon_entropy else (p, beta)
        stacked = fn(*args)
        assert stacked.shape == (40,)
        for i in range(40):
            alone = fn(p[i]) if fn is shannon_entropy else fn(p[i], float(beta[i]))
            assert type(alone) is float
            assert stacked[i] == alone

    def test_product_bound_and_transform_rows(self, stack):
        p, beta = stack
        low = np.where(beta < 1.0, beta, beta / 10.0)
        bound = type_beta_product_bound(p, low)
        h = entropy_type_beta(p, beta)
        back = order_from_type(h, beta)
        for i in range(40):
            assert bound[i] == type_beta_product_bound(p[i], float(low[i]))
            assert back[i] == order_from_type(float(h[i]), float(beta[i]))

    def test_info_function_broadcasts(self):
        x = np.array([0.0, 0.25, 0.5, 0.9, 1.0])
        got = info_function_beta(x, 2.0)
        assert [info_function_beta(float(v), 2.0) for v in x] == got.tolist()
        assert got[2] == 1.0

    def test_order_near_one_takes_the_shannon_row(self):
        p = np.array([[0.7, 0.2, 0.1], [0.5, 0.25, 0.25]])
        got = renyi_entropy(p, [1.0, 2.0])
        assert got[0] == shannon_entropy(p[0])
        assert got[1] == renyi_entropy(p[1], 2.0)

    _ROW_FUNCTIONS = [
        (renyi_entropy, (0.3, 0.9, 1.0, 1.5, 5.0, 1e308)),
        (entropy_type_beta, (0.3, 0.9, 1.5, 5.0)),
        (shannon_entropy, (None,)),
        (t1_bound, (0.3, 0.9, 1.5, 5.0, 1e308)),
        (type_beta_product_bound, (0.3, 0.5, 0.9)),
    ]

    @staticmethod
    def _call(fn, p, beta):
        return fn(p) if beta is None else fn(p, beta)

    @pytest.mark.parametrize("fn,orders", _ROW_FUNCTIONS)
    def test_trailing_zeros_change_no_bit(self, fn, orders):
        # every row sum runs left to right, so padding adds exact zeros
        rng = np.random.default_rng(71)
        for _ in range(60):
            n = int(rng.integers(1, 10))
            p = random_dist(rng, n, zeros=int(rng.integers(0, n)))
            for beta in orders:
                alone = self._call(fn, p, beta)
                for pad in range(1, 8):
                    padded = self._call(fn, np.concatenate([p, np.zeros(pad)]), beta)
                    assert padded.hex() == alone.hex(), (p.tolist(), beta, pad)

    @pytest.mark.parametrize("fn,orders", _ROW_FUNCTIONS)
    def test_padded_stack_of_mixed_lengths_matches_rows(self, fn, orders):
        # the suites check a block as one (trials, 8) stack, each
        # distribution zero-padded on the right
        rng = np.random.default_rng(72)
        rows = [
            random_dist(rng, n, zeros=int(rng.integers(0, n)))
            for n in rng.integers(1, 9, size=80)
        ]
        stack = np.zeros((len(rows), 8))
        for row, p in zip(stack, rows):
            row[: p.size] = p
        beta = rng.choice(orders, size=len(rows))
        stacked = self._call(fn, stack, None if orders == (None,) else beta)
        for i, p in enumerate(rows):
            alone = self._call(fn, p, beta[i])
            assert float(stacked[i]).hex() == alone.hex(), (p.tolist(), beta[i])

    def test_one_bad_row_is_named(self):
        with pytest.raises(InvalidDistribution, match="sum to 0.9"):
            probability_vector([[0.5, 0.5], [0.5, 0.4]])
        with pytest.raises(BetaOutOfRange, match="got -1.0"):
            renyi_entropy([[0.5, 0.5], [1.0, 0.0]], [2.0, -1.0])


class TestExtremeOrders:
    """Large orders give the finite min-entropy limits, not overflow."""

    def test_renyi_entropy_tends_to_min_entropy(self):
        p = [0.125] * 8
        assert renyi_entropy(p, 1e308) == pytest.approx(3.0, abs=1e-12)

    def test_t1_bound_tends_to_minus_mean_log(self):
        p = [0.1, 0.2, 0.3, 0.4]
        limit = -float(np.mean(np.log2(p)))
        assert t1_bound(p, 1e308) == pytest.approx(limit, abs=1e-12)
        assert t1_bound(p, 1e308) >= renyi_entropy(p, 1e308)
