"""Closed-form expected per-round match payoffs between strategy pairs.

Every entry is the expectation of a player's average per-round payoff over a
match of expected length r, including observation costs.  The formulas split
each match into a pre-trust phase of theta rounds and a post-trust phase of
r - theta rounds; they therefore require theta < r whenever a trust strategy
is involved.  The only random element, a trusting TUC's per-round observation
lottery, is integrated out analytically.  One formula body serves one game
in floats and a stack of games in per-point arrays (for sweeps).

The cost accounting here matches the default convention of
:mod:`trustevo.match_sim`: a trusting TUC's observation in the round it
catches a defection is free, every other observation costs ``check_cost``.
:func:`trustevo.match_sim.exact_expected_payoffs` recomputes all entries by
enumerating the behaviour machines round by round and serves as the
independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError, ParameterDomainError, first_failure
from .game_model import GameSpec
from .strategies import StrategyKind, StrategySpec


def _rounds_until_detection(check_prob, phase_length):
    """Expected rounds of the post-trust phase up to and including detection.

    With per-round detection probability p over a phase of n rounds this is
    sum_{i=0}^{n-1} (1-p)^i = (1 - (1-p)^n) / p, which tends to n as p -> 0.
    The expected number of rounds lived after detection is n minus this.
    Per-point columns are evaluated element by element, in floats.
    """
    if isinstance(phase_length, np.ndarray):
        pairs = check_prob.tolist(), phase_length.tolist()
        return np.array([*map(_rounds_until_detection, *pairs)])
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


def _trust_threshold(specs: Sequence[StrategySpec], rounds: float) -> int | None:
    """The threshold all trust strategies share, or None when none trusts."""
    theta = None
    for spec in specs:
        if spec.trust_threshold is not None:
            if theta is not None and spec.trust_threshold != theta:
                raise ParameterDomainError(
                    "closed forms require both trust strategies to share one threshold, "
                    f"got {sorted((theta, spec.trust_threshold))}"
                )
            theta = spec.trust_threshold
    if theta is not None and not theta < rounds:
        raise ParameterDomainError(
            f"trust threshold {theta} must be below the expected rounds {rounds}"
        )
    return theta


def _closed_form(kr, kc, t, r, p, s, n, eps, theta, check):
    """Per-round payoff of row kind ``kr`` against ``kc`` from the scaled table,
    expected rounds, check cost, shared trust threshold and TUC check
    probability: floats for one game, or per-point arrays of one shape."""
    if kr is StrategyKind.ALLC:
        if kc is StrategyKind.ALLD:
            return s
        if kc is StrategyKind.TUD:
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
            return (theta * r + s + (n - theta - 1) * p) / n - eps
        return r - eps

    if kr is StrategyKind.TUC:
        if kc is StrategyKind.ALLD:
            return (s + (n - 1) * p) / n - eps
        if kc is StrategyKind.TUD:
            phase = n - theta
            lived = _rounds_until_detection(check, phase)
            return (
                theta * (r - eps) + s * lived + (p - eps) * (phase - lived)
            ) / n
        # Against any opponent that keeps cooperating, TUC pays theta full
        # observations plus an expected p per post-trust round.
        return r - (theta + check * (n - theta)) * eps / n

    # Row is TUD.
    if kc is StrategyKind.ALLC:
        return (theta * r + (n - theta) * t - theta * eps) / n
    if kc is StrategyKind.ALLD:
        return (s + (n - 1) * p) / n - eps
    if kc is StrategyKind.TFT:
        return (theta * r + t + (n - theta - 1) * p - theta * eps) / n
    if kc is StrategyKind.TUC:
        phase = n - theta
        lived = _rounds_until_detection(check, phase)
        return (theta * (r - eps) + t * lived + p * (phase - lived)) / n
    # Two TUDs trust each other after theta rounds and defect ever after.
    return (theta * r + (n - theta) * p - theta * eps) / n


@dataclass
class PayoffMatrix:
    """Square table of expected per-round payoffs for an ordered strategy set."""

    strategies: tuple[StrategySpec, ...]
    values: np.ndarray

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.strategies)


def payoff_matrix(strategies: tuple[StrategySpec, ...], game: GameSpec) -> PayoffMatrix:
    """Closed-form payoff table over an ordered set of distinct strategy kinds."""
    if not strategies:
        raise ParameterDomainError("strategy set must not be empty")
    kinds = [s.kind for s in strategies]
    if len(set(kinds)) != len(kinds):
        raise ParameterDomainError("strategy kinds must be pairwise distinct")
    theta = _trust_threshold(strategies, game.expected_rounds)
    check = next((s.check_prob for s in strategies if s.check_prob is not None), None)
    values = payoff_tables(
        kinds, *game.scaled_payoffs(), game.expected_rounds, game.check_cost, theta, check
    )
    return PayoffMatrix(tuple(strategies), values)


def payoff_tables(kinds: Sequence[StrategyKind], t, r, p, s, n, eps, theta, check) -> np.ndarray:
    """Tables of the pool ``kinds`` from ``_closed_form``'s arguments, theta
    below n: ``(k, k)`` from floats, ``(points, k, k)`` from per-point columns.
    A non-finite entry raises ``NumericalError`` naming the first such point."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, as floats are
        rows = [
            [_closed_form(kr, kc, t, r, p, s, n, eps, theta, check) for kc in kinds] for kr in kinds
        ]
    values = np.array(rows)
    values = np.moveaxis(values, (0, 1), (-2, -1)) if values.ndim > 2 else values
    finite = np.isfinite(values)
    if not finite.all():
        at, where = first_failure(~finite.all(axis=(-2, -1)))
        i, j = np.argwhere(~finite[at])[0]
        raise NumericalError(
            f"payoff entry ({kinds[i].value}, {kinds[j].value}) overflowed to "
            f"{values[at][i, j]}{where}"
        )
    return values
