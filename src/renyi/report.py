"""Shared record types for inequality and identity checks.

A :class:`BoundReport` describes one check.  For an inequality ``lhs <= rhs``
the slack is normalized by ``1 + |rhs|`` so tolerances are scale free; a check
that chains several inequalities stores the per-part slacks in ``extras`` and
keeps the smallest one as ``gap``.  Identities ``value == expected`` are
reported with ``gap = -|diff|/(1 + |expected|)`` so that ``violation`` means
the same thing everywhere: ``max(0, -gap)``.

This module owns the chain tolerances and the rules built on them: a chain
passes when its gap is at least ``-CHAIN_TOL``, and is tight when some part's
slack is within ``EQ_TOL`` of zero, unless the check supplies a structural
equality test of its own.  Every check is stacked, one row per checked
instance: :func:`chain` and :func:`identities` apply the rules to arrays and
return a :class:`Verdict`, plain data that holds one array per report field
and per extra.  A suite reads its arrays for a whole block; indexing it is
the one place a row's report is built, and only for the rows asked for.
A bound's kernel returns that verdict, and a public bound is its kernel on
a stack of one, reported as row 0.
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


@dataclass(frozen=True)
class Verdict:
    """Stacked checks, one row per instance: the ``lhs``, ``rhs``, ``gap``,
    ``equality`` and ``tolerance`` arrays, and ``extras``, a dict of arrays.
    Indexing builds row ``i``'s :class:`BoundReport`, so ``verdict[0]`` is
    the report of a check on a stack of one."""

    name: str
    lhs: np.ndarray
    rhs: np.ndarray
    gap: np.ndarray
    equality: np.ndarray
    tolerance: np.ndarray
    extras: dict = field(default_factory=dict)

    @property
    def violation(self) -> np.ndarray:
        """``max(0, -gap)`` per row with Python's ``max`` rule, as in
        BoundReport.violation: a NaN gap or a zero of either sign gives +0."""
        return np.where(-self.gap > 0.0, -self.gap, 0.0)

    def __len__(self) -> int:
        return len(self.gap)

    def __getitem__(self, i: int) -> BoundReport:
        """Row ``i``'s report, every entry as its Python scalar (an integer
        extra stays an int)."""
        return BoundReport(
            self.name, self.lhs[i].item(), self.rhs[i].item(), self.gap[i].item(),
            bool(self.equality[i]), self.tolerance[i].item(),
            {key: value[i].item() for key, value in self.extras.items()},
        )


def chain(name: str, parts: list, extras: dict, equality=None) -> Verdict:
    """Stacked chains of inequalities ``lhs <= rhs`` at ``CHAIN_TOL``.

    ``parts`` are ``(label, lhs, rhs)`` and ``extras`` map names to values,
    each an array with one entry per row; ``equality`` is the check's own
    structural test per row, or None for the slack rule.  The verdict spans
    the chain (first part's lhs to last part's rhs) and carries the extras
    and then each part's slack as ``slack_<label>``.
    """
    slacks = [normalized_slack(lo, hi) for _, lo, hi in parts]
    gap = chain_gap(slacks)
    if equality is None:
        equality = chain_tight(slacks)
    extras = {**extras, **{f"slack_{label}": s for (label, _, _), s in zip(parts, slacks)}}
    tolerance = np.full(len(gap), CHAIN_TOL)
    return Verdict(name, parts[0][1], parts[-1][2], gap, equality, tolerance, extras)


def identities(
    name: str, value: np.ndarray, expected: np.ndarray, tolerance: float
) -> Verdict:
    """Stacked identities ``value == expected``, each equal when its gap is
    at least ``-tolerance``."""
    gap = identity_gap(value, expected)
    return Verdict(name, value, expected, gap, gap >= -tolerance, np.full(len(gap), tolerance))
