"""Round-by-round match execution, exact enumeration and Monte Carlo.

This module never touches the closed forms in :mod:`trustevo.payoffs`.  It
drives the behaviour machines of :mod:`trustevo.strategies` one round at a
time, which makes it the independent oracle for every analytic entry.  All
three entry points run one walk over joint states, which knows no game: each
round, for each joint state, it plays both actions and takes each player's
observation lottery branch by branch, a branch giving an outcome code and a
next state.  The caller only says what mass a branch carries: a probability
weight in the enumerator, a boolean mask of the samples whose draw picks it
in a rollout.  States that cannot behave differently merge, their masses
added.  Each player's action and observation lottery come from a behaviour
table row per (strategy, state), filled on first use, so each distinct
behaviour is stepped once per table: once per walk, or once per
verification, which shares one table among all its walks.  The
enumerator's walk ends at the first round that leaves the frontier as it
found it, but that a player's pre-trust levels may all fall by one amount,
as against ALLD: later rounds repeat its counts.  A rollout walks every round.
The 12 codes cross the result (T, R, P or S, from the player's side) with
the observation: none, a paid check, or the check that catches a defection.
:func:`outcome_payoffs` prices them for one game and cost convention.

* :func:`play_match` rolls out one seeded match and returns the full trace.
* :func:`expected_outcomes` weights each outcome by its lottery
  probability into each code's expected count, as prefix sums over rounds:
  one walk serves every game, convention and shorter match.
  :func:`exact_expected_payoffs` prices its last row.
* :func:`monte_carlo_payoffs` rolls out blocks of samples in lockstep, each
  block as many samples as the draw budget holds, the samples that share a
  joint state taking one step together, and reports means with standard
  errors.

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
A match lasts ``game.simulation_rounds()`` rounds and consumes one
``(rounds, 2)`` block of uniforms, column 0 for the first player, column 1
for the second; a player observes when its uniform is below its check
probability.  Monte Carlo sample ``i`` takes the ``i``-th such block of the
stream, so sample 0 is :func:`play_match` with the same seed.  Each sample
keeps its own payoff total round by round and enters the means in sample
order: identical seeds give bitwise-identical results, whatever the block
size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericalError, StateSpaceError, require_int
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

# Longest simulated match and most Monte Carlo samples: a traced round holds
# some 230 bytes and a round of exact counts 192; a sample's totals take 16.
_MAX_ROUNDS, _MAX_SAMPLES = 1_000_000, 10_000_000

# The Monte Carlo draw budget, in samples of 512 rounds: a lockstep block takes
# ``_BLOCK * 512 // rounds`` samples, 8 MiB of draws (and at one round 8 MiB of
# totals), up to 524,288 rounds; past that one sample a block, 16 bytes a round.
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


# A player's result, an index into (T, R, P, S), per (own, opponent) actions.
C, D = Action.COOPERATE, Action.DEFECT
_RESULT = {(C, C): 1, (C, D): 3, (D, C): 0, (D, D): 2}


def _side(spec, state, action, opponent_action):
    """``(prob, branches)``: the check probability and the (observed, outcome
    code, next behaviour key) branches that can occur, the observed one first."""
    result = _RESULT[action, opponent_action]
    prob = check_probability(spec, state)
    unseen = (False, result, state)
    if not prob > 0.0:
        return prob, (unseen,)
    after = observe(spec, state, opponent_action)
    code = result + (8 if after.reverted and not state.reverted else 4)
    seen = (True, code, _behaviour_key(spec, after))
    return prob, (seen,) if prob >= 1.0 else (seen, unseen)


def _behaviour_key(spec: StrategySpec, state: StrategyState) -> StrategyState:
    """The state cleared of all that cannot decide any future behaviour.

    The level only decides when a trust kind reaches trust; reversion follows
    a caught defection, not the level.  Tit-for-tat play only reads whether
    the last observed action was a defection: None and C both cooperate.
    """
    level = state.trust_level if spec.trust_threshold is not None and not state.trusting else 0
    last = D if state.last_observed is D else None
    return StrategyState(level, state.trusting, state.reverted, last)


def _walk(spec_a, spec_b, rounds, mass, split, record, settle=False, table=None):
    """Walk the joint states for ``rounds`` rounds from ``mass``.

    ``split(i, player, mass, prob, observed)`` gives the mass of one branch of
    a player's observation lottery in round ``i``, or None for an empty one,
    and ``record(i, mass, act_a, act_b, code_a, code_b)`` takes each joint
    outcome.  States are kept as behaviour keys; successors with equal keys
    add their masses with ``+``: weights sum and boolean sample masks unite.
    Each player's behaviour comes from ``table``, filled on first use: per
    spec, a row per behaviour key holding the action and, per opponent action,
    the :func:`_side`.  A caller that walks many pairs passes one table to all
    of them, so each distinct behaviour is stepped once.  Returns the rounds
    walked.  With ``settle`` (float masses, and a ``split`` that weighs every
    round alike) the walk ends after a round that each later round repeats, by
    :func:`_repeats`: one that leaves the frontier as it found it, but for
    pre-trust levels that all fall by one amount.
    """
    table = {} if table is None else table
    rows_a, rows_b = table.setdefault(spec_a, {}), table.setdefault(spec_b, {})
    frontier = {(initial_state(spec_a), initial_state(spec_b)): mass}
    for i in range(rounds):
        successors = {}
        for (sa, sb), mass in frontier.items():
            act_a, obs_a = rows_a.get(sa) or rows_a.setdefault(sa, (next_action(spec_a, sa), {}))
            act_b, obs_b = rows_b.get(sb) or rows_b.setdefault(sb, (next_action(spec_b, sb), {}))
            side_a = obs_a.get(act_b) or obs_a.setdefault(act_b, _side(spec_a, sa, act_a, act_b))
            side_b = obs_b.get(act_a) or obs_b.setdefault(act_a, _side(spec_b, sb, act_b, act_a))
            (prob_a, branches_a), (prob_b, branches_b) = side_a, side_b
            for seen_a, code_a, sa2 in branches_a:
                part = split(i, 0, mass, prob_a, seen_a)
                if part is None:
                    continue
                for seen_b, code_b, sb2 in branches_b:
                    cell = split(i, 1, part, prob_b, seen_b)
                    if cell is None:
                        continue
                    record(i, cell, act_a, act_b, code_a, code_b)
                    hit = successors.get((sa2, sb2))
                    successors[sa2, sb2] = cell if hit is None else hit + cell
        if len(successors) > _STATE_LIMIT:
            raise StateSpaceError(
                f"joint state count {len(successors)} exceeded the budget; "
                "the behaviour key has stopped collapsing states"
            )
        if settle and _repeats(frontier, successors, (spec_a, spec_b)):
            return i + 1
        frontier = successors
    return rounds


def _repeats(frontier, successors, specs):
    """Whether every later round repeats the one that took ``frontier`` to
    ``successors``: they hold the same keys in the same order, each mass ``==``,
    except that a player's pre-trust levels may all have dropped by one amount
    d > 0 from levels too low to reach trust in a round.  Records never read a
    level, and a level d lower still cannot reach trust, so each key steps, and
    its successors merge, as the key d higher did."""
    if list(successors.values()) != list(frontier.values()):
        return False
    for spec, old, new in zip(specs, zip(*frontier), zip(*successors)):
        if old == new:
            continue
        drops = {o.trust_level - n.trust_level for o, n in zip(old, new) if not o.trusting}
        if len(drops) != 1 or drops.pop() <= 0:
            return False
        top = max(o.trust_level for o in old if not o.trusting)
        if top + 1 >= spec.trust_threshold or [o[1:] for o in old] != [n[1:] for n in new]:
            return False
    return True


def _rollout(spec_a, spec_b, game, convention, draws, trace=None):
    """The (2, samples) payoff totals for ``draws`` of shape (samples, rounds,
    2); ``trace`` collects each round's actions, checks and payoffs."""
    payoffs = outcome_payoffs(game, convention)
    samples, rounds, _ = draws.shape
    totals = np.zeros((2, samples))

    def split(i, player, group, prob, observed):
        if not 0.0 < prob < 1.0:  # a sure lottery: every draw takes its one branch
            return group
        hit = draws[:, i, player] < prob
        part = group & (hit if observed else ~hit)
        return part if part.any() else None

    def record(i, cell, act_a, act_b, code_a, code_b):
        pay_a, pay_b = payoffs[code_a], payoffs[code_b]
        np.add(totals[0], pay_a, out=totals[0], where=cell)
        np.add(totals[1], pay_b, out=totals[1], where=cell)
        if trace is not None:
            trace.append((act_a, act_b, code_a >= 4, code_b >= 4, pay_a, pay_b))

    # A total past the float range becomes inf; monte_carlo_payoffs refuses it.
    with np.errstate(over="ignore"):
        _walk(spec_a, spec_b, rounds, np.ones(samples, bool), split, record)
    return totals


def play_match(
    spec_a: StrategySpec,
    spec_b: StrategySpec,
    game: GameSpec,
    *,
    convention: CostConvention = CostConvention.DETECTION_FREE,
    seed: int = 0,
) -> MatchOutcome:
    """Roll out one seeded match and return its full trace."""
    rounds = require_int("rounds", game.simulation_rounds(), 1, _MAX_ROUNDS)
    draws = _generator(seed).random((1, rounds, 2))
    trace = []
    _rollout(spec_a, spec_b, game, convention, draws, trace)
    return MatchOutcome(*zip(*trace), convention)


def monte_carlo_payoffs(
    spec_a: StrategySpec,
    spec_b: StrategySpec,
    game: GameSpec,
    *,
    convention: CostConvention = CostConvention.DETECTION_FREE,
    samples: int = 1000,
    seed: int = 0,
) -> MonteCarloPayoffs:
    """Average seeded rollouts; sample i is the i-th match of one stream.

    The samples run in lockstep blocks of ``_BLOCK * 512 // rounds``, at least
    one, so a block's draws stay within 8 MiB up to 524,288 rounds."""
    rounds = require_int("rounds", game.simulation_rounds(), 1, _MAX_ROUNDS)
    samples = require_int("samples", samples, 1, _MAX_SAMPLES)
    rng = _generator(seed)
    totals = np.empty((2, samples))
    size = min(samples, max(1, _BLOCK * 512 // rounds))
    draws = np.empty((size, rounds, 2))
    for start in range(0, samples, size):
        block = rng.random(out=draws[: samples - start])
        totals[:, start : start + len(block)] = _rollout(
            spec_a, spec_b, game, convention, block
        )
    if not np.isfinite(totals).all():
        raise NumericalError("Monte Carlo payoff totals are not finite")
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


def expected_outcomes(spec_a: StrategySpec, spec_b: StrategySpec, rounds: int) -> np.ndarray:
    """Expected outcome counts as a (rounds, 2, 12) array: ``[i, player, code]``
    counts the first ``i + 1`` rounds in which ``player`` (0 for ``spec_a``)
    met ``code``, exact over :func:`play_match`'s draws up to float rounding."""
    return _outcome_counts(spec_a, spec_b, rounds, {})


def _outcome_counts(spec_a, spec_b, rounds, table):
    """:func:`expected_outcomes` walked with the behaviour ``table`` of
    :func:`_walk`, which a caller walking many pairs shares among them."""
    rounds = require_int("rounds", rounds, 1, _MAX_ROUNDS)
    rows = []  # each walked round's counts; every round records

    def split(i, player, weight, prob, observed):
        return weight * (prob if observed else 1.0 - prob)

    def record(i, weight, act_a, act_b, code_a, code_b):
        if i == len(rows):
            rows.append([0.0] * 24)
        rows[i][code_a] += weight
        rows[i][12 + code_b] += weight

    walked = _walk(spec_a, spec_b, rounds, 1.0, split, record, True, table)
    counts = np.empty((rounds, 24))
    counts[:walked], counts[walked:] = rows, rows[-1]
    counts = counts.reshape(rounds, 2, 12)
    return np.cumsum(counts, axis=0, out=counts)  # in place: one array of counts at the peak


def exact_expected_payoffs(
    spec_a: StrategySpec,
    spec_b: StrategySpec,
    game: GameSpec,
    *,
    convention: CostConvention = CostConvention.DETECTION_FREE,
) -> tuple[float, float]:
    """Exact expected per-round payoffs of both players: the outcome counts
    of :func:`expected_outcomes` priced by :func:`outcome_payoffs`."""
    rounds = game.simulation_rounds()
    totals = expected_outcomes(spec_a, spec_b, rounds)[-1] @ outcome_payoffs(game, convention)
    return float(totals[0] / rounds), float(totals[1] / rounds)
