"""Parameterisation of the repeated prisoner's dilemma with costly observation.

A :class:`GameSpec` bundles the one-shot payoff table (temptation, reward,
punishment, sucker), a positive scale factor applied to all four table
payoffs, a per-observation cost that is deliberately *not* scaled, and the
expected number of rounds per match.  Validation enforces the strict
prisoner's dilemma ordering T > R > P > S together with 2R > T + S so that
mutual cooperation beats alternating unilateral defection.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

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

    temptation: float
    reward: float
    punishment: float
    sucker: float
    payoff_scale: float = 1.0
    check_cost: float = 0.0
    expected_rounds: float = 50.0
    enforce_dilemma: InitVar[bool] = True

    def __post_init__(self, enforce_dilemma: bool) -> None:
        for name in ("temptation", "reward", "punishment", "sucker",
                     "payoff_scale", "check_cost", "expected_rounds"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterDomainError(f"{name} must be finite, got {value}")
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


def make_prisoners_dilemma(
    temptation: float = 2.0,
    reward: float = 1.0,
    punishment: float = 0.0,
    sucker: float = -1.0,
    payoff_scale: float = 1.0,
    check_cost: float = 0.25,
    expected_rounds: float = 50.0,
) -> GameSpec:
    """Build a validated game with the package-wide default table."""
    return GameSpec(
        temptation=temptation,
        reward=reward,
        punishment=punishment,
        sucker=sucker,
        payoff_scale=payoff_scale,
        check_cost=check_cost,
        expected_rounds=expected_rounds,
    )


def make_donation_game(
    benefit: float,
    cost: float,
    payoff_scale: float = 1.0,
    check_cost: float = 0.25,
    expected_rounds: float = 50.0,
) -> GameSpec:
    """Build the donation game T=b, R=b-c, P=0, S=-c.

    Any benefit b > cost c > 0 satisfies both dilemma inequalities, so the
    resulting spec always validates.
    """
    if not cost > 0:
        raise ParameterDomainError(f"donation cost must be positive, got {cost}")
    if not benefit > cost:
        raise ParameterDomainError(
            f"donation benefit must exceed the cost, got b={benefit} <= c={cost}"
        )
    return GameSpec(
        temptation=benefit,
        reward=benefit - cost,
        punishment=0.0,
        sucker=-cost,
        payoff_scale=payoff_scale,
        check_cost=check_cost,
        expected_rounds=expected_rounds,
    )


def expected_rounds_from_continuation(continuation: float) -> float:
    """Expected match length 1/(1-w) for a per-round continuation probability w."""
    if not 0 <= continuation < 1:
        raise ParameterDomainError(
            f"continuation probability must lie in [0, 1), got {continuation}"
        )
    return 1.0 / (1.0 - continuation)
