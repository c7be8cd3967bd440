"""Closed-form expected per-round match payoffs between strategy pairs.

Every entry is the expectation of a player's average per-round payoff over a
match of expected length r, including observation costs.  The formulas split
each match into a pre-trust phase of theta rounds and a post-trust phase of
r - theta rounds; they therefore require theta < r whenever a trust strategy
is involved.  The only random element, a trusting TUC's per-round observation
lottery, is integrated out analytically.

The cost accounting here matches the default convention of
:mod:`trustevo.match_sim`: a trusting TUC's observation in the round it
catches a defection is free, every other observation costs ``check_cost``.
:func:`trustevo.match_sim.exact_expected_payoffs` recomputes all entries by
enumerating the behaviour machines round by round and serves as the
independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterDomainError
from .game_model import GameSpec
from .strategies import TRUST_KINDS, StrategyKind, StrategySpec

def _rounds_until_detection(check_prob: float, phase_length: float) -> float:
    """Expected rounds of the post-trust phase up to and including detection.

    With per-round detection probability p over a phase of n rounds this is
    sum_{i=0}^{n-1} (1-p)^i = (1 - (1-p)^n) / p, which tends to n as p -> 0.
    The expected number of rounds lived after detection is n minus this.
    """
    if check_prob == 0.0:
        return phase_length
    if check_prob >= 1.0:
        return 1.0
    rate = math.log1p(-check_prob)
    decay = phase_length * rate
    # 1 - exp(decay) cancels as decay nears 0 and expm1 does not; beyond
    # 0.01 the plain form is accurate to 1e-14 and keeps its exact bits.
    # Near 0, decay / p is taken as phase * (rate / p), which a subnormal p
    # leaves exact, and expm1(decay) / decay tends to 1 as decay underflows.
    if decay > -0.01:
        shrink = math.expm1(decay) / decay if decay else 1.0
        return phase_length * shrink * (-rate / check_prob)
    return (1.0 - math.exp(decay)) / check_prob


def _trust_threshold(row: StrategySpec, col: StrategySpec, rounds: float) -> int:
    thresholds = {
        s.trust_threshold for s in (row, col) if s.kind in TRUST_KINDS
    }
    if len(thresholds) > 1:
        raise ParameterDomainError(
            "closed forms require both trust strategies to share one threshold, "
            f"got {sorted(thresholds)}"
        )
    theta = thresholds.pop()
    if not theta < rounds:
        raise ParameterDomainError(
            f"trust threshold {theta} must be below the expected rounds {rounds}"
        )
    return theta


def analytic_entry(row: StrategySpec, col: StrategySpec, game: GameSpec) -> float:
    """Expected per-round payoff of the row strategy against the column one."""
    t, r, p, s = game.scaled_payoffs()
    n = game.expected_rounds
    eps = game.check_cost
    kr, kc = row.kind, col.kind

    if kr is StrategyKind.ALLC:
        if kc is StrategyKind.ALLD:
            return s
        if kc is StrategyKind.TUD:
            theta = _trust_threshold(row, col, n)
            return (theta * r + (n - theta) * s) / n
        return r

    if kr is StrategyKind.ALLD:
        if kc is StrategyKind.ALLC:
            return t
        if kc is StrategyKind.ALLD:
            return p
        # One exploited cooperation, then mutual defection against any
        # reciprocator (TFT, or a trust strategy that never gets to trust).
        return (t + (n - 1) * p) / n

    if kr is StrategyKind.TFT:
        if kc is StrategyKind.ALLD:
            return (s + (n - 1) * p) / n - eps
        if kc is StrategyKind.TUD:
            theta = _trust_threshold(row, col, n)
            return (theta * r + s + (n - theta - 1) * p) / n - eps
        return r - eps

    if kr is StrategyKind.TUC:
        theta = _trust_threshold(row, col, n)
        if kc is StrategyKind.ALLD:
            return (s + (n - 1) * p) / n - eps
        if kc is StrategyKind.TUD:
            phase = n - theta
            lived = _rounds_until_detection(row.check_prob, phase)
            return (
                theta * (r - eps) + s * lived + (p - eps) * (phase - lived)
            ) / n
        # Against any opponent that keeps cooperating, TUC pays theta full
        # observations plus an expected p per post-trust round.
        return r - (theta + row.check_prob * (n - theta)) * eps / n

    # Row is TUD.
    theta = _trust_threshold(row, col, n)
    if kc is StrategyKind.ALLC:
        return (theta * r + (n - theta) * t - theta * eps) / n
    if kc is StrategyKind.ALLD:
        return (s + (n - 1) * p) / n - eps
    if kc is StrategyKind.TFT:
        return (theta * r + t + (n - theta - 1) * p - theta * eps) / n
    if kc is StrategyKind.TUC:
        phase = n - theta
        lived = _rounds_until_detection(col.check_prob, phase)
        return (theta * (r - eps) + t * lived + p * (phase - lived)) / n
    # Two TUDs trust each other after theta rounds and defect ever after.
    return (theta * r + (n - theta) * p - theta * eps) / n


@dataclass
class PayoffMatrix:
    """Square table of expected per-round payoffs for an ordered strategy set."""

    strategies: tuple[StrategySpec, ...]
    values: np.ndarray
    labels: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.labels = tuple(s.label for s in self.strategies)

    def entry(self, row_label: str, col_label: str) -> float:
        i = self.labels.index(row_label)
        j = self.labels.index(col_label)
        return float(self.values[i, j])


def payoff_matrix(strategies: tuple[StrategySpec, ...], game: GameSpec) -> PayoffMatrix:
    """Closed-form payoff table over an ordered set of distinct strategy kinds."""
    if not strategies:
        raise ParameterDomainError("strategy set must not be empty")
    kinds = [s.kind for s in strategies]
    if len(set(kinds)) != len(kinds):
        raise ParameterDomainError("strategy kinds must be pairwise distinct")
    size = len(strategies)
    values = np.empty((size, size), dtype=float)
    for i, row in enumerate(strategies):
        for j, col in enumerate(strategies):
            values[i, j] = analytic_entry(row, col, game)
    return PayoffMatrix(tuple(strategies), values)
