"""Every public function that takes an order admits exactly its interval.

One table gives each function's interval, as the README's "Admitted orders"
table states it; the expected outcome of an order follows from it: outside
the interval an ``*OutOfRange`` error, inside the band around 1 (where the
function does not take the limit) an ``*One`` error, both with the one
message template of ``linalg.check_order``, and otherwise a value.
"""

import math

import numpy as np
import pytest

from renyi.classical import (
    entropy_type_beta,
    entropy_type_beta_chain,
    info_function_beta,
    order_from_type,
    renyi_entropy,
    t1_bound,
    type_beta_product_bound,
)
from renyi.divergence import (
    conditional_entropy,
    mutual_information,
    renyi_relative_entropy,
    t4_lower_bound,
    t5_closed_form,
    t6_lower_bound,
    triangle_bound_check,
)
from renyi.exceptions import AlphaOne, AlphaOutOfRange, BetaOne, BetaOutOfRange
from renyi.harness import replay, run_suite
from renyi.linalg import check_order
from renyi.quantum import DensityMatrix, log_dim_cap, quantum_renyi_entropy, t3_bound

ORDERS = (-1.0, -math.inf, math.nan, math.inf, 0.0, 1.0, 1.0 - 1e-10, 1.0 + 1e-10, 1.5)

# (low, high, closed, one): the order must be finite and in (low, high), or
# [low, high) when closed, and in the band around 1 only when one
POSITIVE = (0.0, math.inf, False, False)
POSITIVE_OR_ONE = (0.0, math.inf, False, True)
NONNEGATIVE = (0.0, math.inf, True, False)
ABOVE_ONE = (1.0, math.inf, False, False)
BELOW_ONE = (0.0, 1.0, False, True)
BELOW_ONE_OFF_ONE = (0.0, 1.0, False, False)

_P = [0.5, 0.5]
_RHO = DensityMatrix(np.diag([0.7, 0.3]))
_RHO_AB = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]), dims=(2, 2))

# name -> (the order's name, the function of the order, its intervals in the
# order they are checked)
FUNCTIONS = {
    "info_function_beta": ("beta", lambda b: info_function_beta(0.3, b), [POSITIVE]),
    "entropy_type_beta": ("beta", lambda b: entropy_type_beta(_P, b), [POSITIVE]),
    "entropy_type_beta_chain": ("beta", lambda b: entropy_type_beta_chain(_P, b), [POSITIVE]),
    "renyi_entropy": ("beta", lambda b: renyi_entropy(_P, b), [POSITIVE_OR_ONE]),
    "t1_bound": ("beta", lambda b: t1_bound(_P, b), [POSITIVE]),
    "type_beta_product_bound": ("beta", lambda b: type_beta_product_bound(_P, b), [BELOW_ONE]),
    "order_from_type": ("beta", lambda b: order_from_type(0.5, b), [POSITIVE]),
    "quantum_renyi_entropy": (
        "alpha", lambda a: quantum_renyi_entropy(_RHO, a), [POSITIVE_OR_ONE]
    ),
    "log_dim_cap": ("alpha", lambda a: log_dim_cap(_RHO, a), [POSITIVE_OR_ONE]),
    "t3_bound": ("alpha", lambda a: t3_bound(_RHO, a), [POSITIVE]),
    "renyi_relative_entropy": (
        "alpha", lambda a: renyi_relative_entropy(_RHO, np.eye(2), a), [NONNEGATIVE]
    ),
    "t4_lower_bound": ("alpha", lambda a: t4_lower_bound(_RHO, np.eye(2), a), [ABOVE_ONE]),
    "conditional_entropy": ("alpha", lambda a: conditional_entropy(_RHO_AB, a), [ABOVE_ONE]),
    "mutual_information": ("alpha", lambda a: mutual_information(_RHO_AB, a), [ABOVE_ONE]),
    "t5_closed_form": ("alpha", lambda a: t5_closed_form(_RHO_AB, a, "mutual"), [ABOVE_ONE]),
    "t6_lower_bound": ("alpha", lambda a: t6_lower_bound(_RHO_AB, a), [ABOVE_ONE]),
    "triangle_bound_check": (
        "alpha", lambda a: triangle_bound_check(_RHO, np.eye(2), a), [ABOVE_ONE]
    ),
}


def _replay(suite: str, name: str):
    """``replay`` of trial 0's serialized inputs with the order replaced."""
    inputs = run_suite(suite, 1, 9, tolerance=-1.0).failures[0].inputs
    return lambda order: replay(suite, {**inputs, name: order})


# t2_2 checks its orders once, on the product bound's interval with the
# band around 1 excluded, as its entropy of type beta needs
FUNCTIONS.update(
    (f"replay-{suite}", (name, _replay(suite, name), intervals))
    for suite, name, intervals in (
        ("t1", "beta", [POSITIVE]),
        ("t2_2", "beta", [BELOW_ONE_OFF_ONE]),
        ("info_fn_eq", "beta", [POSITIVE]),
        ("eq4_roundtrip", "beta", [POSITIVE]),
        ("t3", "alpha", [POSITIVE]),
        ("t3_2", "alpha", [POSITIVE_OR_ONE]),
        ("t4", "alpha", [ABOVE_ONE]),
        ("t6", "alpha", [ABOVE_ONE]),
        ("triangle", "alpha", [ABOVE_ONE]),
        ("diag_oracle", "alpha", [POSITIVE]),
    )
)

_ERRORS = {"alpha": (AlphaOutOfRange, AlphaOne), "beta": (BetaOutOfRange, BetaOne)}


def _expected(name: str, order: float, intervals: list):
    """The error class and message ``order`` must raise, or None if admitted."""
    out_of_range, at_one = _ERRORS[name]
    for low, high, closed, one in intervals:
        above_low = order >= low if closed else order > low
        if not (math.isfinite(order) and above_low and order < high):
            bracket = "[" if closed else "("
            return out_of_range, f"{name} must lie in {bracket}{low:g}, {high:g}), got {order!r}"
        if not one and abs(order - 1.0) < 1e-9:
            return at_one, f"{name} = 1 is not admitted here"
    return None


@pytest.mark.parametrize("order", ORDERS, ids=repr)
@pytest.mark.parametrize("function", sorted(FUNCTIONS))
def test_each_order_is_admitted_or_raises_the_template(function, order):
    name, call, intervals = FUNCTIONS[function]
    expected = _expected(name, order, intervals)
    if expected is None:
        call(order)
        return
    error, message = expected
    with pytest.raises(error) as info:
        call(order)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "function,order",
    [
        ("renyi_relative_entropy", 0.0),
        ("renyi_entropy", 1.0),
        ("quantum_renyi_entropy", 1.0),
        ("type_beta_product_bound", 1.0 - 1e-10),
    ],
)
def test_edge_orders_are_admitted(function, order):
    name, call, intervals = FUNCTIONS[function]
    assert _expected(name, order, intervals) is None
    value = call(order)
    assert math.isfinite(getattr(value, "value", value))


def test_check_order_names_the_first_bad_order_of_an_array():
    with pytest.raises(BetaOutOfRange, match=r"^beta must lie in \(0, inf\), got -2.0$"):
        check_order([0.5, -2.0, math.nan], "beta")
    with pytest.raises(AlphaOne):
        check_order(np.array([[2.0], [1.0]]), "alpha")
    assert check_order([0.5, 1.0], "beta", one=True).tolist() == [0.5, 1.0]


def test_t2_2_rejects_an_order_just_above_one_as_out_of_range():
    # one check on (0, 1): an order past 1 is out of range before the band
    # around 1 is looked at
    with pytest.raises(BetaOutOfRange, match=r"^beta must lie in \(0, 1\), got 1.0000000001$"):
        FUNCTIONS["replay-t2_2"][1](1.0 + 1e-10)
