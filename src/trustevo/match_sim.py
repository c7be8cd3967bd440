"""Round-by-round match execution, exact enumeration and Monte Carlo.

This module never touches the closed forms in :mod:`trustevo.payoffs`.  It
drives the behaviour machines of :mod:`trustevo.strategies` one round at a
time, which makes it the independent oracle for every analytic entry.  All
three entry points read one round step, which knows no game: for a joint
state it gives both actions and, per player, the check probability and the
(outcome code, next state) pairs without and with an observation.  The 12
codes cross the result (T, R, P or S, from the player's side) with the
observation: none, a paid check, or the check that catches a defection.
:func:`outcome_payoffs` prices them for one game and cost convention.

* :func:`play_match` rolls out one seeded match and returns the full trace.
* :func:`expected_outcomes` weights each step outcome by its lottery
  probability into each code's expected count, as prefix sums over rounds:
  one walk serves every game, convention and shorter match.
  :func:`exact_expected_payoffs` prices its last row.
* :func:`monte_carlo_payoffs` rolls out fixed blocks of ``_BLOCK`` samples
  in lockstep, the samples that share a joint state taking one step
  together, and reports means with standard errors.

Cost conventions
----------------
The convention only prices the catch, the check in which a trusting TUC
sees the opponent defect and its ``reverted`` flag flips.  The closed forms
treat the catch as free, and ``CostConvention.DETECTION_FREE`` (the default
everywhere) reproduces that accounting.  ``CostConvention.EVERY_CHECK``
charges it like any other check; the two differ only in matches with a
catch, by the detection probability times the cost spread over the match.
The discrepancy is documented rather than reconciled, and either convention
can be requested explicitly.

Determinism
-----------
Each call draws from one ``np.random.Generator(np.random.PCG64(seed))``.
A match consumes one ``(rounds, 2)`` block of uniforms, column 0 for the
first player, column 1 for the second; a player observes when its uniform is
below its check probability.  Monte Carlo sample ``i`` takes the ``i``-th
such block of the stream, so sample 0 is :func:`play_match` with the same
seed, keeps its own payoff total round by round and enters the means in
sample order.  Identical seeds therefore give bitwise-identical results,
whatever the block size.  Before this single stream, sample ``i`` drew from
``SeedSequence((seed, i))``: match traces are unchanged, while estimates
over more than one sample differ from those of earlier versions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import StateSpaceError, require_int
from .game_model import GameSpec
from .strategies import (
    Action,
    StrategySpec,
    StrategyState,
    check_probability,
    initial_state,
    next_action,
    observe,
)

# Joint-state budget for both frontier walks.  Behaviourally distinct
# states stay in the single digits for the five supported kinds; hitting
# this limit means a bug, not a big computation.
_STATE_LIMIT = 256

# Monte Carlo samples per lockstep rollout; bounds the draws held at once.
_BLOCK = 1024


class CostConvention(Enum):
    """How observation costs are charged; see the module docstring."""

    DETECTION_FREE = "detection_free"
    EVERY_CHECK = "every_check"


@dataclass(frozen=True)
class MatchOutcome:
    """Trace of one simulated match, with realized per-round payoffs."""

    actions_a: tuple[Action, ...]
    actions_b: tuple[Action, ...]
    checks_a: tuple[bool, ...]
    checks_b: tuple[bool, ...]
    payoffs_a: tuple[float, ...]
    payoffs_b: tuple[float, ...]
    convention: CostConvention

    @property
    def rounds(self) -> int:
        return len(self.actions_a)

    @property
    def payoff_a(self) -> float:
        return sum(self.payoffs_a) / self.rounds

    @property
    def payoff_b(self) -> float:
        return sum(self.payoffs_b) / self.rounds


@dataclass(frozen=True)
class MonteCarloPayoffs:
    """Sample means and standard errors of per-round match payoffs."""

    mean_a: float
    mean_b: float
    stderr_a: float
    stderr_b: float
    samples: int


def _resolve_rounds(game: GameSpec, rounds: Optional[int]) -> int:
    if rounds is None:
        rounds = game.simulation_rounds()
    return require_int("rounds", rounds, 1)


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(require_int("seed", seed, 0)))


def outcome_payoffs(
    game: GameSpec, convention: CostConvention = CostConvention.DETECTION_FREE
) -> tuple[float, ...]:
    """Per-round payoff of each outcome code ``4 * observation + result``:
    the scaled T, R, P or S entry, less the check cost when observed, except
    for a catch under ``DETECTION_FREE``."""
    table = game.scaled_payoffs()
    paid = tuple(pay - game.check_cost for pay in table)
    return table + paid + (table if convention is CostConvention.DETECTION_FREE else paid)


# Each player's result, an index into (T, R, P, S), per pair of actions.
C, D = Action.COOPERATE, Action.DEFECT
_RESULTS = {(C, C): (1, 1), (C, D): (3, 0), (D, C): (0, 3), (D, D): (2, 2)}


def _side(spec, state, result, opponent_action):
    """``(prob, unseen, seen)``: the check probability and the (outcome code,
    next state) pairs without and with an observation (None when prob is 0)."""
    prob = check_probability(spec, state)
    if not prob > 0.0:
        return prob, (result, state), None
    after = observe(spec, state, True, opponent_action)
    catch = after.reverted and not state.reverted
    return prob, (result, state), (result + (8 if catch else 4), after)


def _round_step(spec_a, spec_b, state_a, state_b):
    """Both actions and, per player, the ``(prob, unseen, seen)`` of ``_side``."""
    act_a = next_action(spec_a, state_a)
    act_b = next_action(spec_b, state_b)
    result_a, result_b = _RESULTS[act_a, act_b]
    side_a = _side(spec_a, state_a, result_a, act_b)
    return act_a, act_b, side_a, _side(spec_b, state_b, result_b, act_a)


def _behaviour_key(spec: StrategySpec, state: StrategyState):
    """Collapse states that cannot differ in any future behaviour.

    Once ``trusting`` has latched, the trust ledger no longer influences
    actions or observation probabilities (reversion is triggered by a caught
    defection, not by the level), so the level is masked out of the key.
    Pre-trust levels stay in play because they decide when trust is reached.
    """
    level = 0 if state.trusting else state.trust_level
    return level, state.trusting, state.reverted, state.last_observed


def _walk(spec_a, spec_b, rounds, mass, advance, merge):
    """Walk the joint states for ``rounds`` rounds: ``advance(i, mass, state_a,
    state_b)`` yields one state's successors, and those with equal behaviour
    keys keep the first states and combine their masses with ``merge``."""
    frontier = [(mass, initial_state(spec_a), initial_state(spec_b))]
    for i in range(rounds):
        successors = {}
        for entry in frontier:
            for mass, sa, sb in advance(i, *entry):
                key = (_behaviour_key(spec_a, sa), _behaviour_key(spec_b, sb))
                hit = successors.get(key)
                successors[key] = (
                    (mass, sa, sb) if hit is None else (merge(hit[0], mass),) + hit[1:]
                )
        if len(successors) > _STATE_LIMIT:
            raise StateSpaceError(
                f"joint state count {len(successors)} exceeded the budget; "
                "the behaviour key has stopped collapsing states"
            )
        frontier = successors.values()


def _split(prob, unseen, seen, group, column):
    """(sample mask, (outcome code, next state)) per non-empty lottery part."""
    hit = group & (column < prob)
    parts = ((hit, seen), (group & ~hit, unseen))
    return [part for part in parts if part[0].any()]


def _rollout(spec_a, spec_b, game, convention, draws, trace=None):
    """The (2, samples) payoff totals for ``draws`` of shape (samples, rounds,
    2); ``trace`` collects each round's actions, checks and payoffs."""
    payoffs = outcome_payoffs(game, convention)
    samples, rounds, _ = draws.shape
    totals = np.zeros((2, samples))

    def advance(i, group, sa, sb):
        act_a, act_b, side_a, side_b = _round_step(spec_a, spec_b, sa, sb)
        for part, (code_a, sa2) in _split(*side_a, group, draws[:, i, 0]):
            for cell, (code_b, sb2) in _split(*side_b, part, draws[:, i, 1]):
                pay_a, pay_b = payoffs[code_a], payoffs[code_b]
                totals[0, cell] += pay_a
                totals[1, cell] += pay_b
                if trace is not None:
                    trace.append((act_a, act_b, code_a >= 4, code_b >= 4, pay_a, pay_b))
                yield cell, sa2, sb2

    _walk(spec_a, spec_b, rounds, np.ones(samples, bool), advance, operator.or_)
    return totals


def play_match(
    spec_a: StrategySpec,
    spec_b: StrategySpec,
    game: GameSpec,
    rounds: Optional[int] = None,
    convention: CostConvention = CostConvention.DETECTION_FREE,
    seed: int = 0,
) -> MatchOutcome:
    """Roll out one seeded match and return its full trace."""
    rounds = _resolve_rounds(game, rounds)
    draws = _generator(seed).random((1, rounds, 2))
    trace = []
    _rollout(spec_a, spec_b, game, convention, draws, trace)
    return MatchOutcome(*zip(*trace), convention)


def monte_carlo_payoffs(
    spec_a: StrategySpec,
    spec_b: StrategySpec,
    game: GameSpec,
    rounds: Optional[int] = None,
    convention: CostConvention = CostConvention.DETECTION_FREE,
    samples: int = 1000,
    seed: int = 0,
) -> MonteCarloPayoffs:
    """Average seeded rollouts; sample i is the i-th match of one stream."""
    rounds = _resolve_rounds(game, rounds)
    require_int("samples", samples, 1)
    rng = _generator(seed)
    totals = np.empty((2, samples))
    draws = np.empty((min(samples, _BLOCK), rounds, 2))
    for start in range(0, samples, _BLOCK):
        block = rng.random(out=draws[: samples - start])
        totals[:, start : start + len(block)] = _rollout(
            spec_a, spec_b, game, convention, block
        )
    totals /= rounds
    means_a, means_b = totals
    def stderr(x):
        if samples == 1:
            return 0.0
        return float(np.std(x, ddof=1) / math.sqrt(samples))
    return MonteCarloPayoffs(
        mean_a=float(np.mean(means_a)),
        mean_b=float(np.mean(means_b)),
        stderr_a=stderr(means_a),
        stderr_b=stderr(means_b),
        samples=samples,
    )


def _lottery(prob, unseen, seen, weight):
    """(weight, outcome code, next state) per outcome of one observation lottery."""
    if not prob > 0.0:
        return ((weight, *unseen),)
    if prob >= 1.0:
        return ((weight, *seen),)
    return ((weight * prob, *seen), (weight * (1.0 - prob), *unseen))


def expected_outcomes(spec_a: StrategySpec, spec_b: StrategySpec, rounds: int) -> np.ndarray:
    """Expected outcome counts as a (rounds, 2, 12) array: ``[i, player, code]``
    counts the first ``i + 1`` rounds in which ``player`` (0 for ``spec_a``)
    met ``code``, exact over :func:`play_match`'s draws up to float rounding."""
    require_int("rounds", rounds, 1)
    counts = [[0.0] * 24 for _ in range(rounds)]

    def advance(i, weight, sa, sb):
        _, _, side_a, side_b = _round_step(spec_a, spec_b, sa, sb)
        row = counts[i]
        for wa, code_a, sa2 in _lottery(*side_a, weight):
            for w, code_b, sb2 in _lottery(*side_b, wa):
                row[code_a] += w
                row[12 + code_b] += w
                yield w, sa2, sb2

    _walk(spec_a, spec_b, rounds, 1.0, advance, operator.add)
    return np.cumsum(np.reshape(counts, (rounds, 2, 12)), axis=0)


def exact_expected_payoffs(
    spec_a: StrategySpec,
    spec_b: StrategySpec,
    game: GameSpec,
    rounds: Optional[int] = None,
    convention: CostConvention = CostConvention.DETECTION_FREE,
) -> tuple[float, float]:
    """Exact expected per-round payoffs of both players: the outcome counts
    of :func:`expected_outcomes` priced by :func:`outcome_payoffs`."""
    rounds = _resolve_rounds(game, rounds)
    totals = expected_outcomes(spec_a, spec_b, rounds)[-1] @ outcome_payoffs(game, convention)
    return float(totals[0] / rounds), float(totals[1] / rounds)
