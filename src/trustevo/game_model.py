"""Parameterisation of the repeated prisoner's dilemma with costly observation.

A :class:`GameSpec` bundles the one-shot payoff table (temptation, reward,
punishment, sucker), a positive scale factor applied to all four table
payoffs, a per-observation cost that is deliberately *not* scaled, and the
expected number of rounds per match.  Validation enforces the strict
prisoner's dilemma ordering T > R > P > S together with 2R > T + S so that
mutual cooperation beats alternating unilateral defection.  The field
defaults are the package's default game: T=2, R=1, P=0, S=-1, unit stake,
check cost 0.25 and 50 expected rounds.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    AlternationDominanceError,
    DilemmaViolationError,
    ParameterDomainError,
    require_real,
)


@dataclass(frozen=True)
class GameSpec:
    """One-shot payoff table plus repetition and observation parameters.

    Parameters
    ----------
    temptation, reward, punishment, sucker
        Unscaled one-shot payoffs T, R, P, S for (defect vs cooperator),
        (mutual cooperation), (mutual defection), (cooperate vs defector).
    payoff_scale
        Positive multiplier applied to all four table payoffs.  It controls
        the stake of the game relative to the observation cost and to the
        selection strength of the imitation dynamics.
    check_cost
        Cost a player pays in any round it observes the opponent's action.
        Charged in raw units, never multiplied by ``payoff_scale``.
    expected_rounds
        Expected match length r >= 1.  Closed-form payoffs accept any real
        value; round-by-round simulation plays it rounded to an integer.
    """

    temptation: float = 2.0
    reward: float = 1.0
    punishment: float = 0.0
    sucker: float = -1.0
    payoff_scale: float = 1.0
    check_cost: float = 0.25
    expected_rounds: float = 50.0

    def __post_init__(self) -> None:
        check_game(*(require_real(name, value) for name, value in vars(self).items()))

    def scaled_payoffs(self) -> tuple[float, float, float, float]:
        """Return the scaled table (T, R, P, S), each multiplied by the scale."""
        g = self.payoff_scale
        return (
            g * self.temptation,
            g * self.reward,
            g * self.punishment,
            g * self.sucker,
        )

    def simulation_rounds(self) -> int:
        """Expected round count rounded to the nearest integer, for simulation."""
        return max(1, int(round(self.expected_rounds)))


_FIELDS = tuple(field.name for field in fields(GameSpec))
# GameSpec's rules in the order they are checked: the error each raises and its
# message, formatted from the game's fields and from 2R and T + S.
_RULES = (
    *((ParameterDomainError, f"{name} must be finite, got {{{name}}}") for name in _FIELDS),
    (ParameterDomainError, "payoff_scale must be positive, got {payoff_scale}"),
    (ParameterDomainError, "check_cost must be non-negative, got {check_cost}"),
    (ParameterDomainError, "expected_rounds must be at least 1, got {expected_rounds}"),
    (DilemmaViolationError, "need temptation > reward, got {temptation} <= {reward}"),
    (DilemmaViolationError, "need reward > punishment, got {reward} <= {punishment}"),
    (DilemmaViolationError, "need punishment > sucker, got {punishment} <= {sucker}"),
    (AlternationDominanceError, "need 2*reward > temptation + sucker, got {twice} <= {sum}"),
)


def _rules_held(t, r, p, s, scale, cost, rounds):
    """Whether each rule holds, in ``_RULES`` order: floats, or elementwise arrays.
    The rest are formed only once the seven numbers pass as finite, so T + S never
    converts an int beyond the float range."""
    yield from (abs(v) <= sys.float_info.max for v in (t, r, p, s, scale, cost, rounds))
    yield from (scale > 0, cost >= 0, rounds >= 1, t > r, r > p, p > s, 2 * r > t + s)


def check_game(
    temptation, reward, punishment, sucker, payoff_scale, check_cost, expected_rounds
) -> None:
    """Raise the error of the first rule of :class:`GameSpec` a game breaks: one
    game's numbers, or per-point arrays of one shape checked elementwise, whose
    first point that breaks a rule is then checked alone."""
    values = (temptation, reward, punishment, sucker, payoff_scale, check_cost, expected_rounds)
    if isinstance(temptation, np.ndarray):
        with np.errstate(over="ignore"):  # an overflowed 2R or T + S breaks its rule
            broken = ~np.logical_and.reduce(tuple(_rules_held(*values)))
        if broken.any():
            check_game(*(v[broken.argmax()] for v in values))
        return
    for held, (error, message) in zip(_rules_held(*values), _RULES):
        if not held:
            fields = dict(zip(_FIELDS, values))
            if error is AlternationDominanceError:  # every number is finite by now
                fields.update(twice=2 * reward, sum=temptation + sucker)
            raise error(message.format(**fields))


# Another name for the class: ``make_prisoners_dilemma()`` is ``GameSpec()``.
make_prisoners_dilemma = GameSpec
