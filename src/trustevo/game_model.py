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

import math
from dataclasses import InitVar, dataclass, fields

from .errors import (
    AlternationDominanceError,
    DilemmaViolationError,
    ParameterDomainError,
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
        value; round-by-round simulation requires an integer round count.
    enforce_dilemma
        Set to False to skip the ordering checks for exploratory non-dilemma
        tables.  Finiteness, scale, cost and round-count domains are always enforced.
    """

    temptation: float = 2.0
    reward: float = 1.0
    punishment: float = 0.0
    sucker: float = -1.0
    payoff_scale: float = 1.0
    check_cost: float = 0.25
    expected_rounds: float = 50.0
    enforce_dilemma: InitVar[bool] = True

    def __post_init__(self, enforce_dilemma: bool) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ParameterDomainError(f"{field.name} must be finite, got {value}")
        if not self.payoff_scale > 0:
            raise ParameterDomainError(
                f"payoff_scale must be positive, got {self.payoff_scale}"
            )
        if self.check_cost < 0:
            raise ParameterDomainError(
                f"check_cost must be non-negative, got {self.check_cost}"
            )
        if not self.expected_rounds >= 1:
            raise ParameterDomainError(
                f"expected_rounds must be at least 1, got {self.expected_rounds}"
            )
        if enforce_dilemma:
            self._check_dilemma()

    def _check_dilemma(self) -> None:
        t, r, p, s = self.temptation, self.reward, self.punishment, self.sucker
        if not t > r:
            raise DilemmaViolationError(f"need temptation > reward, got {t} <= {r}")
        if not r > p:
            raise DilemmaViolationError(f"need reward > punishment, got {r} <= {p}")
        if not p > s:
            raise DilemmaViolationError(f"need punishment > sucker, got {p} <= {s}")
        if not 2 * r > t + s:
            raise AlternationDominanceError(
                f"need 2*reward > temptation + sucker, got {2 * r} <= {t + s}"
            )

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


# Another name for the class: ``make_prisoners_dilemma()`` is ``GameSpec()``.
make_prisoners_dilemma = GameSpec
