"""Shared record type for inequality and identity checks.

A :class:`BoundReport` describes one check.  For an inequality ``lhs <= rhs``
the slack is normalized by ``1 + |rhs|`` so tolerances are scale free; a check
that chains several inequalities stores the per-part slacks in ``extras`` and
keeps the smallest one as ``gap``.  Identities ``value == expected`` are
reported with ``gap = -|diff|/(1 + |expected|)`` so that ``violation`` means
the same thing everywhere: ``max(0, -gap)``.

This module owns the chain tolerances and the rules built on them: a chain
passes when its gap is at least ``-CHAIN_TOL``, and is tight when some part's
slack is within ``EQ_TOL`` of zero, unless the check supplies a structural
equality test of its own.  The rules take floats or equal-shape arrays, so a
stacked check applies them to a whole block and gets, trial by trial, the
values :func:`chain_report` and :func:`identity_report` give.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CHAIN_TOL = 1e-8
EQ_TOL = 1e-7


def normalized_slack(lhs, rhs):
    """Slack of ``lhs <= rhs`` relative to ``1 + |rhs|``."""
    return (rhs - lhs) / (1.0 + abs(rhs))


def identity_gap(value, expected):
    """Gap of the identity ``value == expected``: ``-|diff|/(1 + |expected|)``."""
    return -abs(value - expected) / (1.0 + abs(expected))


def chain_gap(slacks: list):
    """A chain's gap: the smallest of its parts' slacks, entry by entry.

    Python's ``min`` rule: a later slack replaces the running minimum only
    when strictly smaller, so a NaN counts only when it comes first and a tie
    keeps the earlier signed zero.
    """
    gap = slacks[0]
    for s in slacks[1:]:
        gap = np.where(s < gap, s, gap)
    return gap


def chain_tight(slacks: list):
    """Whether the smallest |slack|, taken as :func:`chain_gap` takes it, is
    within ``EQ_TOL`` of zero."""
    return chain_gap([abs(s) for s in slacks]) <= EQ_TOL


@dataclass(frozen=True)
class BoundReport:
    name: str
    lhs: float
    rhs: float
    gap: float
    equality: bool
    tolerance: float
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.gap >= -self.tolerance)

    @property
    def violation(self) -> float:
        return max(0.0, -self.gap)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "passed": self.passed,
            "equality": self.equality,
            "tolerance": self.tolerance,
            "extras": dict(self.extras),
        }


def chain_report(
    name: str,
    parts: list[tuple[str, float, float]],
    extras: dict | None = None,
    equality: bool | None = None,
) -> BoundReport:
    """Combine inequalities ``lhs <= rhs`` into one report at ``CHAIN_TOL``.

    ``parts`` is a list of ``(label, lhs, rhs)``; the headline ``lhs``/``rhs``
    span the chain (first part's lhs to last part's rhs).  ``equality`` is the
    check's own structural test; without one the chain is tight when some
    part's slack is within ``EQ_TOL`` of zero.
    """
    if not parts:
        raise ValueError("chain_report needs at least one inequality")
    slacks = {label: normalized_slack(lo, hi) for label, lo, hi in parts}
    values = list(slacks.values())
    if equality is None:
        equality = chain_tight(values)
    out = dict(extras or {})
    for label, slack in slacks.items():
        out[f"slack_{label}"] = slack
    return BoundReport(
        name=name,
        lhs=parts[0][1],
        rhs=parts[-1][2],
        gap=float(chain_gap(values)),
        equality=bool(equality),
        tolerance=CHAIN_TOL,
        extras=out,
    )


def identity_report(
    name: str, value: float, expected: float, tolerance: float
) -> BoundReport:
    """Report for a two-sided identity ``value == expected``."""
    gap = identity_gap(value, expected)
    return BoundReport(
        name=name,
        lhs=value,
        rhs=expected,
        gap=gap,
        equality=bool(gap >= -tolerance),
        tolerance=tolerance,
    )
