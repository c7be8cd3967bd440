"""Population-level cooperation metrics.

In the small-mutation limit the population sits in one homogeneous state at
a time, so its long-run cooperation frequency is the stationary-weighted
average of each strategy's self-play cooperation index.  ``pool_cooperation``
takes one payoff table, or a stack, through fixation, chain and stationary
solve to those averages; ``cooperation_report`` and the sweep both call it.
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
from .payoffs import payoff_tables
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
                f"trust threshold {spec.trust_threshold} must be below the expected rounds {rounds}"
            )
    if kind is StrategyKind.ALLD:
        return 0.0
    if kind is StrategyKind.TUD:
        return spec.trust_threshold / rounds
    return 1.0


def population_cooperation(stationary: np.ndarray, indices: np.ndarray):
    """Stationary-weighted average of self-play cooperation indices: a float for
    one row; for a stack, one batched product, each row's own dot product bit for bit."""
    stationary = np.asarray(stationary, dtype=float)
    indices = np.asarray(indices, dtype=float)
    if stationary.shape != indices.shape:
        raise ParameterDomainError(
            f"shape mismatch: {stationary.shape} vs {indices.shape}"
        )
    average = (stationary[..., None, :] @ indices[..., None])[..., 0, 0]
    return float(average) if stationary.ndim == 1 else average


@dataclass
class CooperationReport:
    """Cooperation with and without the trust strategies in the pool."""

    with_trust: float
    without_trust: float
    delta: float
    stationary_with: StationaryDistribution
    stationary_without: StationaryDistribution
    selfplay_indices: dict[str, float]


def strategy_pool(trust_threshold: int, check_prob: float) -> tuple[StrategySpec, ...]:
    """The five-strategy pool; its first three are the classic pool."""
    return (ALLC, ALLD, TFT, tuc(trust_threshold, check_prob), tud(trust_threshold))


def pool_cooperation(values: np.ndarray, indices, params: EvolutionParams) -> tuple:
    """Stationary vectors of the five- and three-strategy pools, then their
    cooperation, from one 5 x 5 payoff table and its five self-play indices, or
    a ``(..., 5, 5)`` stack and ``(..., 5)`` indices.  Fixation depends only on
    the payoffs within a pair, so the classic pool's chain is built from the
    ALLC/ALLD/TFT block of the five-strategy fixation matrix.
    """
    fixation = fixation_matrix(values, params)
    indices = np.asarray(indices, dtype=float)
    pi_with, pi_without = (
        stationary_distribution(chain_from_fixation(fixation[..., :k, :k])).probabilities
        for k in (5, 3)
    )
    return (
        pi_with, pi_without,
        population_cooperation(pi_with, indices),
        population_cooperation(pi_without, indices[..., :3]),
    )


def cooperation_report(
    game: GameSpec,
    params: EvolutionParams,
    trust_threshold: int = 3,
    check_prob: float = 0.25,
) -> CooperationReport:
    """Compare the classic three-strategy pool against the five-strategy one, from
    a table built in floats; a sweep's refused point raises this call's error."""
    full = strategy_pool(trust_threshold, check_prob)
    labels = tuple(s.label for s in full)
    indices = [selfplay_cooperation_index(s, game.expected_rounds) for s in full]
    values = payoff_tables(
        [s.kind for s in full], *game.scaled_payoffs(), game.expected_rounds,
        game.check_cost, trust_threshold, check_prob,
    )
    pi_with, pi_without, coop_with, coop_without = pool_cooperation(values, indices, params)
    return CooperationReport(
        with_trust=coop_with,
        without_trust=coop_without,
        delta=coop_with - coop_without,
        stationary_with=StationaryDistribution(labels, pi_with),
        stationary_without=StationaryDistribution(labels[:3], pi_without),
        selfplay_indices=dict(zip(labels, indices)),
    )
