"""Behaviour machines for the five repeated-game strategies.

Besides the three classics (unconditional cooperation, unconditional
defection, tit-for-tat with paid observation every round) the package models
two trust-based strategies parameterised by a trust threshold theta and, for
the conditional one, a post-trust observation probability p:

* TUC, trust-until-caught: plays tit-for-tat and observes every round until
  the opponent's net cooperation record reaches theta, then cooperates on
  trust and only observes with probability p per round.  Catching a
  defection while trusting destroys the trust permanently; from then on the
  strategy behaves like tit-for-tat with observation every round.
* TUD, trust-then-defect: identical bookkeeping until trust is reached, then
  exploits it by defecting for the rest of the match without ever paying
  for observation again.

All strategies keep the same observation ledger: ``trust_level`` is the
number of observed cooperations minus observed defections, counted only over
rounds in which the player actually observed.  State transitions are pure
functions; callers thread :class:`StrategyState` values through a match.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from .errors import ParameterDomainError, require_int, require_real


class Action(Enum):
    COOPERATE = "C"
    DEFECT = "D"
    __hash__ = object.__hash__  # exact for singletons, and C code, unlike Enum's


class StrategyKind(Enum):
    ALLC = "ALLC"
    ALLD = "ALLD"
    TFT = "TFT"
    TUC = "TUC"
    TUD = "TUD"
    __hash__ = object.__hash__


TRUST_KINDS = frozenset({StrategyKind.TUC, StrategyKind.TUD})


@dataclass(frozen=True)
class StrategySpec:
    """A strategy kind plus its trust parameters where applicable.

    ``trust_threshold`` (theta, a positive integer) and ``check_prob``
    (p in [0, 1]) are required for TUC; TUD takes only the threshold; the
    three classic strategies take neither.
    """

    kind: StrategyKind
    trust_threshold: Optional[int] = None
    check_prob: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind in TRUST_KINDS:
            require_int(f"{self.kind.value} trust_threshold", self.trust_threshold, 1)
        else:
            if self.trust_threshold is not None:
                raise ParameterDomainError(
                    f"{self.kind.value} takes no trust_threshold"
                )
        if self.kind is StrategyKind.TUC:
            p = self.check_prob
            if p is None or not 0.0 <= require_real("TUC check_prob", p) <= 1.0:
                raise ParameterDomainError(
                    f"TUC needs check_prob in [0, 1], got {p!r}"
                )
        else:
            if self.check_prob is not None:
                raise ParameterDomainError(f"{self.kind.value} takes no check_prob")

    @property
    def label(self) -> str:
        return self.kind.value


ALLC = StrategySpec(StrategyKind.ALLC)
ALLD = StrategySpec(StrategyKind.ALLD)
TFT = StrategySpec(StrategyKind.TFT)


def tuc(trust_threshold: int, check_prob: float) -> StrategySpec:
    return StrategySpec(StrategyKind.TUC, trust_threshold, check_prob)


def tud(trust_threshold: int) -> StrategySpec:
    return StrategySpec(StrategyKind.TUD, trust_threshold)


class StrategyState(NamedTuple):
    """Per-match bookkeeping carried between rounds.

    ``trusting`` latches on once the level reaches the threshold and never
    clears; a caught defection sets ``reverted`` instead of clearing it.
    ``last_observed`` is None until the first observed round.
    """

    trust_level: int
    trusting: bool
    reverted: bool
    last_observed: Optional[Action]


def initial_state(spec: StrategySpec) -> StrategyState:
    return StrategyState(0, False, False, None)


# Per kind, the (action, check probability) before trust, while trusting and
# after a caught defection, which TUD never meets.  Tit-for-tat repeats the
# last observed action, cooperating until the first; p is the check_prob.
_TIT_FOR_TAT, _P = "tit-for-tat", "p"
_BEHAVIOUR = {
    StrategyKind.ALLC: ((Action.COOPERATE, 0.0),) * 3,
    StrategyKind.ALLD: ((Action.DEFECT, 0.0),) * 3,
    StrategyKind.TFT: ((_TIT_FOR_TAT, 1.0),) * 3,
    StrategyKind.TUC: ((_TIT_FOR_TAT, 1.0), (Action.COOPERATE, _P), (_TIT_FOR_TAT, 1.0)),
    StrategyKind.TUD: ((_TIT_FOR_TAT, 1.0), (Action.DEFECT, 0.0), (Action.DEFECT, 0.0)),
}


def _behaviour(spec: StrategySpec, state: StrategyState):
    return _BEHAVIOUR[spec.kind][2 if state.reverted else int(state.trusting)]


def next_action(spec: StrategySpec, state: StrategyState) -> Action:
    """Action the strategy plays this round given its current state."""
    action = _behaviour(spec, state)[0]
    if action == _TIT_FOR_TAT:
        return state.last_observed or Action.COOPERATE
    return action


def check_probability(spec: StrategySpec, state: StrategyState) -> float:
    """Probability that the strategy observes the opponent this round.

    Unconditional strategies never observe.  Tit-for-tat observes every
    round, as do TUC and TUD before trust is reached and TUC after a caught
    defection.  A trusting TUC observes with probability p; a trusting TUD
    never observes again.
    """
    prob = _behaviour(spec, state)[1]
    return spec.check_prob if prob == _P else prob


def observe(spec: StrategySpec, state: StrategyState, opponent_action: Action) -> StrategyState:
    """Update state after an observed round.

    Call it only for rounds the player actually observed; the trust ledger
    counts observed actions exclusively.
    """
    cooperated = opponent_action is Action.COOPERATE
    level = state.trust_level + (1 if cooperated else -1)
    trusting = state.trusting
    if (
        not trusting
        and spec.kind in TRUST_KINDS
        and level >= spec.trust_threshold
    ):
        trusting = True
    reverted = state.reverted or (
        spec.kind is StrategyKind.TUC and state.trusting and not cooperated
    )
    return StrategyState(level, trusting, reverted, opponent_action)


def strategy_from_label(label: str, trust_threshold: int, check_prob: float) -> StrategySpec:
    """Build a spec from its CLI label, attaching trust parameters as needed."""
    try:
        kind = StrategyKind(label.upper())
    except ValueError:
        valid = ", ".join(k.value for k in StrategyKind)
        raise ParameterDomainError(
            f"unknown strategy {label!r}, expected one of {valid}"
        ) from None
    if kind is StrategyKind.TUC:
        return tuc(trust_threshold, check_prob)
    if kind is StrategyKind.TUD:
        return tud(trust_threshold)
    return StrategySpec(kind)
