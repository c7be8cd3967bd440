"""Population-level cooperation metrics.

In the small-mutation limit the population sits in one homogeneous state at
a time, so its long-run cooperation frequency is the stationary-weighted
average of each strategy's self-play cooperation index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError
from .evolution import (
    EvolutionParams,
    StationaryDistribution,
    chain_from_fixation,
    fixation_matrix,
    stationary_distribution,
)
from .game_model import GameSpec
from .payoffs import payoff_matrix
from .strategies import ALLC, ALLD, TFT, StrategyKind, StrategySpec, tuc, tud


def selfplay_cooperation_index(spec: StrategySpec, rounds: float) -> float:
    """Fraction of rounds a player cooperates in a homogeneous population.

    Unconditional and reciprocal cooperators cooperate throughout, as does
    TUC (mutual trust is never betrayed).  Two TUDs cooperate for exactly
    the trust-building phase and defect ever after.
    """
    if not rounds >= 1:
        raise ParameterDomainError(f"rounds must be at least 1, got {rounds}")
    kind = spec.kind
    if kind in (StrategyKind.TUC, StrategyKind.TUD):
        if not spec.trust_threshold < rounds:
            raise ParameterDomainError(
                f"trust threshold {spec.trust_threshold} must be below rounds {rounds}"
            )
    if kind is StrategyKind.ALLD:
        return 0.0
    if kind is StrategyKind.TUD:
        return spec.trust_threshold / rounds
    return 1.0


def population_cooperation(stationary: np.ndarray, indices: np.ndarray) -> float:
    """Stationary-weighted average of self-play cooperation indices."""
    stationary = np.asarray(stationary, dtype=float)
    indices = np.asarray(indices, dtype=float)
    if stationary.shape != indices.shape:
        raise ParameterDomainError(
            f"shape mismatch: {stationary.shape} vs {indices.shape}"
        )
    return float(stationary @ indices)


@dataclass
class CooperationReport:
    """Cooperation with and without the trust strategies in the pool."""

    with_trust: float
    without_trust: float
    delta: float
    stationary_with: StationaryDistribution
    stationary_without: StationaryDistribution
    selfplay_indices: dict[str, float]


def cooperation_report(
    game: GameSpec,
    params: EvolutionParams,
    trust_threshold: int = 3,
    check_prob: float = 0.25,
) -> CooperationReport:
    """Compare the classic three-strategy pool against the five-strategy one.

    Fixation depends only on the payoffs within a pair, so the classic
    pool's chain is built from the ALLC/ALLD/TFT block of the five-strategy
    fixation matrix.
    """
    full = (ALLC, ALLD, TFT, tuc(trust_threshold, check_prob), tud(trust_threshold))
    matrix = payoff_matrix(full, game)
    fixation = fixation_matrix(matrix.values, params)
    stat_with = stationary_distribution(chain_from_fixation(fixation), matrix.labels)
    stat_without = stationary_distribution(
        chain_from_fixation(fixation[:3, :3]), matrix.labels[:3]
    )
    indices = np.array(
        [selfplay_cooperation_index(s, game.expected_rounds) for s in full]
    )
    coop_with = population_cooperation(stat_with.probabilities, indices)
    coop_without = population_cooperation(stat_without.probabilities, indices[:3])
    return CooperationReport(
        with_trust=coop_with,
        without_trust=coop_without,
        delta=coop_with - coop_without,
        stationary_with=stat_with,
        stationary_without=stat_without,
        selfplay_indices={
            s.label: float(x) for s, x in zip(full, indices)
        },
    )
