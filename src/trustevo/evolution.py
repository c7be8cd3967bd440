"""Imitation dynamics in the small-mutation limit.

A well-mixed population of N players updates by pairwise comparison: a focal
player copies a random role model with the Fermi probability
``1 / (1 + exp(-beta * (f_model - f_focal)))``.  With rare mutations the
population is homogeneous almost always, so evolution reduces to a Markov
chain over the homogeneous states whose transitions are single-mutant
fixation probabilities.  This module computes those fixation probabilities
in closed form, assembles the chain, and solves for its stationary
distribution.

Fixation probabilities use the standard birth-death identity: the backward
to forward rate ratio at k mutants reduces to ``exp(-beta * delta(k))`` with
``delta`` the payoff advantage of the mutant, so the fixation probability is
``1 / (1 + sum_i exp(-beta * cumsum(delta)_i))``, evaluated for all pairs of
a payoff table at once, or once for each distinct pair of a stack of tables,
directly when safe (which keeps neutral cases exact) and in log space when
the exponents are large.  ``fixation_matrix`` serves a table and a stack alike;
the single-pair routes take one table, whose checks also gather the pair's sub-table.

``simulate_fixation`` is the stochastic check of those probabilities.  Each
call draws binomials from one PCG64 stream seeded by its ``seed``.  Binomial
sampling evaluates libm functions, so a seed reproduces its frequency bit for
bit on one platform and numpy version, not across platforms.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError, ParameterDomainError, first_failure, require_int, require_real

# Largest exponent fed to exp() before the fixation sum switches to its
# log-space evaluation; exp overflows near 709.
_EXP_GUARD = 700.0
# A stack slice's budget of fixation terms, two series of N - 1 a distinct pair (82
# pairs at N=100, 8 at N=1000): it bounds a slice's working set to some 340 kB, which
# glibc reuses in place; at 32,768 terms it trimmed the heap top and refaulted it.
_CHUNK_ELEMENTS = 16_384
_eye = functools.cache(np.eye)  # read only: a solve subtracts it
# Largest population size: a report's fixation sums take some 330 bytes a member.
_MAX_POPULATION = 1_000_000
# Most fixation simulation runs: each count of runs is an int64.
_MAX_RUNS = 2**63 - 1
# Live runs at which a fixation simulation leaves its array draw over all N - 1
# counts (some 8 us a call, mostly argument checks) for one scalar draw per
# occupied count (under 1 us each); 16 and 32 timed best at N = 20, 100 and 1000.
_TAIL_RUNS = 32


@dataclass(frozen=True)
class EvolutionParams:
    """Population size 2 <= N <= 10^6 and imitation selection strength beta >= 0."""

    population_size: int
    selection_strength: float

    def __post_init__(self) -> None:
        n = require_int("population_size", self.population_size, 2, _MAX_POPULATION)
        beta = require_real("selection_strength", self.selection_strength)
        if not 0 <= beta <= sys.float_info.max:  # an int of 10**400 is refused too
            raise ParameterDomainError(f"selection_strength must be finite and >= 0, got {beta}")
        object.__setattr__(self, "population_size", n)
        object.__setattr__(self, "selection_strength", beta)


@dataclass
class StationaryDistribution:
    """Stationary probabilities over homogeneous states, with labels."""

    labels: tuple[str, ...]
    probabilities: np.ndarray

    def as_dict(self) -> dict[str, float]:
        return {l: float(p) for l, p in zip(self.labels, self.probabilities)}


def group_payoffs(
    values: np.ndarray, a: int, b: int, k: int, n: int
) -> tuple[float, float]:
    """Average payoffs of an A and a B player with k A-players among n, from a table
    the fixation routes take at n.  Self-interaction is excluded, so each player
    averages the match payoff over the other n - 1 members of the population."""
    n = require_int("n", n, 2, _MAX_POPULATION)
    k = require_int("k", k, 1, n - 1)
    bb, ba, ab, aa = _check_table(values, n, a=a, b=b)
    pi_a = ((k - 1) * aa + (n - k) * ab) / (n - 1)
    pi_b = (k * ba + (n - k - 1) * bb) / (n - 1)
    return float(pi_a), float(pi_b)


def fermi_probability(payoff_diff: float, beta: float) -> float:
    """Probability of imitating a role model whose payoff is higher by diff."""
    payoff_diff, beta = require_real("payoff_diff", payoff_diff), require_real("beta", beta)
    if not (abs(payoff_diff) <= sys.float_info.max and 0 <= beta <= sys.float_info.max):
        raise ParameterDomainError(f"need a finite diff and beta >= 0, got {payoff_diff}, {beta}")
    x = beta * payoff_diff
    e = np.exp(-abs(x))  # never overflows
    return float((1.0 if x >= 0 else e) / (1.0 + e))


def _fixation_sums(args: np.ndarray) -> np.ndarray:
    """``1 / (1 + sum(exp(args)))`` along the last axis; overwrites ``args``.  Rows peaking at
    ``_EXP_GUARD`` or above, looked for only when the whole stack does, are shifted by their
    peak and finished in log space; a +inf peak is not (inf - inf is NaN): its entry is 0."""
    if args.max() < _EXP_GUARD:  # a NaN fails this and takes the per-row branch
        return 1.0 / (1.0 + np.exp(args, out=args).sum(axis=-1))
    peak = args.max(axis=-1)
    logged = peak >= _EXP_GUARD
    if logged.any():  # elsewhere the shift is 0.0, which changes nothing
        args -= np.where(logged & (peak < np.inf), peak, 0.0)[..., None]
    sums = np.exp(args, out=args).sum(axis=-1)
    rho = 1.0 / (1.0 + sums)
    rho[logged] = np.exp(-np.logaddexp(0.0, peak[logged] + np.log(sums[logged])))
    return rho


def _check_table(values: np.ndarray, n: int, **pair: int) -> np.ndarray:
    """``values`` as a float array; refuse what fixation sums at population ``n`` cannot take:
    a bad table or index.  Given a (mutant, resident) pair by name, one table only, and
    return that pair's sub-table (pi_rr, pi_rm, pi_mr, pi_mm) instead."""
    values = np.asarray(values)
    shape = values.shape if pair else values.shape[-2:]
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 2 or not values.size:
        raise ParameterDomainError(
            f"need a square payoff table with at least two strategies, got {values.shape}"
        )
    if values.dtype.kind == "c":  # not cut to its real part
        raise ParameterDomainError(f"need a real payoff table, got dtype {values.dtype}")
    values = values.astype(float, copy=False)
    for name, index in pair.items():
        if require_int(name, index, 0) >= shape[0]:
            raise ParameterDomainError(f"{name} must be below {shape[0]}, got {index}")
    bound = np.finfo(float).max / (2 * n)  # |cumsum(advantage)| <= 2 (N - 1) max |entry|
    if not np.abs(values).max() <= bound:  # NaN compares false
        peak = np.abs(values).max(axis=(-2, -1))
        at, where = first_failure(~(peak <= bound))
        if not math.isfinite(peak[at]):
            raise NumericalError("payoff table holds a non-finite entry" + where)
        raise NumericalError(
            f"payoff entries beyond {bound:.3g} overflow fixation sums at N={n}{where}"
        )
    if not pair:
        return values
    m, r = pair.values()
    return values[(r, r, m, m), (r, m, r, m)]


@functools.cache
def _pair_index(size: int) -> np.ndarray:
    """Flat indices, ``(pairs, 4)``, of the sub-table (pi_rr, pi_rm, pi_mr,
    pi_mm) of each pair r < m of a ``size``-strategy table, in row-major order."""
    r, m = np.triu_indices(size, 1)
    return np.stack([r, r, m, m], axis=-1) * size + np.stack([r, m, r, m], axis=-1)


def _advantage(pairs: np.ndarray, n: int) -> np.ndarray:
    """``(..., N - 1)``: m-mutants' payoff advantage over r-residents at k = 1 .. N - 1 mutants
    for each sub-table (pi_rr, pi_rm, pi_mr, pi_mm): ``group_payoffs``' pi_a - pi_b, bit for bit."""
    k = np.arange(1, n, dtype=float)
    own_r, v_rm, v_mr, own_m = (pairs[..., i, None] for i in range(4))
    advantage = np.multiply(v_mr, n - k)  # contiguous, so each pass runs at full speed
    advantage += (k - 1) * own_m
    advantage /= n - 1
    resident = np.multiply(v_rm, k)
    resident += (n - k - 1) * own_r
    resident /= n - 1
    advantage -= resident
    return advantage


def pair_fixation(pairs: np.ndarray, params: EvolutionParams) -> np.ndarray:
    """``(..., 2)``: probability that one m-mutant takes over r-residents, then one
    r-mutant over m-residents, for each sub-table of ``pairs``.  r-mutants at N - k
    multiply the operands of m-mutants at k (N - k and k - 1 are exact), so one
    advantage series, negated and reversed, serves both directions bit for bit."""
    advantage = _advantage(pairs, params.population_size)
    # Axis -2 holds m invading r, then r invading m; axis -1 the count k of m-mutants.
    args = np.empty((*advantage.shape[:-1], 2, advantage.shape[-1]))
    args[..., 0, :] = advantage
    np.negative(advantage[..., ::-1], out=args[..., 1, :])
    np.add.accumulate(args, axis=-1, out=args)
    # Beyond the float range beta * sum is +-inf, whose limits are exact.
    with np.errstate(over="ignore"):
        args *= -params.selection_strength
        return _fixation_sums(args)


def fixation_matrix(values: np.ndarray, params: EvolutionParams) -> np.ndarray:
    """Entry (..., i, j): probability that one j-mutant takes over i-residents,
    for one payoff table or a ``(..., s, s)`` stack, each pair r < m through
    ``pair_fixation``; the diagonal is the neutral 1/N.  At one N and beta a
    pair's fixation depends on its sub-table alone, so a stack sums each distinct
    sub-table (matched by its bytes: +0 and -0 stay apart) once, ``_CHUNK_ELEMENTS``
    terms at most at a time; one table's few pairs cost less than matching them."""
    n = params.population_size
    values = _check_table(values, n)
    size, index = values.shape[-1], _pair_index(values.shape[-1])
    pairs = np.take(values.reshape(*values.shape[:-2], -1), index, axis=-1)
    if values.ndim == 2:
        rho = pair_fixation(pairs, params)
    else:
        keys, inverse = np.unique(pairs.view(np.dtype((np.void, 32))).ravel(), return_inverse=True)
        distinct, step = keys.view(float).reshape(-1, 4), max(1, _CHUNK_ELEMENTS // (2 * (n - 1)))
        slices = (distinct[i : i + step] for i in range(0, len(distinct), step))
        rho = np.concatenate([pair_fixation(part, params) for part in slices])[inverse]
    fixation = np.full((*values.shape[:-2], size * size), 1.0 / n)
    fixation[..., index[:, 1:3]] = rho.reshape(*pairs.shape[:-1], 2)  # entries (r, m), (m, r)
    return fixation.reshape(values.shape)


def fixation_probability(
    values: np.ndarray, mutant: int, resident: int, params: EvolutionParams
) -> float:
    """Probability that a single mutant takes over a resident population."""
    pair = _check_table(values, params.population_size, mutant=mutant, resident=resident)
    return float(pair_fixation(pair, params)[0])


def chain_from_fixation(fixation: np.ndarray) -> np.ndarray:
    """Small-mutation chain over homogeneous states from a fixation matrix.

    Row i is the resident strategy; entry (i, j) is the fixation probability
    of a j-mutant in an i-resident population divided by the number of
    possible mutants, so each row sums to one with the remainder on the
    diagonal.  A ``(..., s, s)`` stack gives a stack of chains.
    """
    size = fixation.shape[-1]
    matrix = fixation / (size - 1)
    diagonal = np.einsum("...ii->...i", matrix)  # a writable view
    diagonal[...] = 0.0
    diagonal[...] = 1.0 - matrix.sum(axis=-1)
    return matrix


def markov_transition_matrix(values: np.ndarray, params: EvolutionParams) -> np.ndarray:
    """Small-mutation chain over the homogeneous states of a payoff table."""
    return chain_from_fixation(fixation_matrix(values, params))


def stationary_distribution(
    transition: np.ndarray, labels: Optional[Sequence[str]] = None
) -> StationaryDistribution:
    """Left fixed vector of a row-stochastic matrix via a dense linear solve.

    One balance equation is replaced by normalisation.  Entries more negative
    than -1e-12 or a solve residual above 1e-9 raise ``NumericalError`` with
    the condition number attached; roundoff-scale negatives are clamped to
    zero and the vector renormalised.  A ``(..., s, s)`` stack of chains gives
    ``(..., s)`` probabilities, and an error names the first failing chain.
    """
    transition = np.asarray(transition)
    shape = transition.shape[-2:]
    if len(shape) != 2 or shape[0] != shape[1] or not transition.size:
        raise ParameterDomainError(f"transition table must be square, got {transition.shape}")
    if transition.dtype.kind == "c":
        raise ParameterDomainError(f"transition table must be real, got dtype {transition.dtype}")
    transition = transition.astype(float, copy=False)
    size = shape[0]
    stochastic = np.abs(transition.sum(axis=-1) - 1.0) <= 1e-12
    if not stochastic.all():
        at, where = first_failure(~stochastic.all(axis=-1))
        message = "transition rows must each sum to 1 within 1e-12"
        # Any non-finite entry fails the row sum; name the first one.
        for i, j in np.argwhere(~np.isfinite(transition[at]))[:1]:
            message += f" (row {i} has non-finite entry {transition[at][i, j]} at column {j})"
        raise ParameterDomainError(message + where)
    if labels is None:
        labels = tuple(str(i) for i in range(size))
    else:
        labels = tuple(labels)
        if len(labels) != size:
            raise ParameterDomainError(
                f"got {len(labels)} labels for a {size}-state chain"
            )

    system = transition.swapaxes(-1, -2) - _eye(size)
    system[..., -1, :] = 1.0
    rhs = np.zeros(system.shape[:-1] + (1,))  # (..., s, 1): numpy 1 and 2 read one column a chain
    rhs[..., -1, :] = 1.0
    try:
        pi = np.linalg.solve(system, rhs)[..., 0]
    except np.linalg.LinAlgError as exc:
        # LAPACK's solve fails on an exactly zero pivot, which is a zero sign.
        at, where = first_failure(np.linalg.slogdet(system)[0] == 0.0)
        cond = np.linalg.cond(system[at])
        raise NumericalError(
            f"stationary solve failed ({exc}); condition estimate {cond:.3e}; "
            f"the chain may be reducible{where}"
        ) from exc
    residual = np.abs(np.matmul(transition.swapaxes(-1, -2), pi[..., None])[..., 0] - pi)
    if not (residual.max() <= 1e-9 and pi.min() >= -1e-12):  # a NaN fails too
        residual, lowest = residual.max(axis=-1), pi.min(axis=-1)
        at, where = first_failure(~((residual <= 1e-9) & (lowest >= -1e-12)))
        cond = np.linalg.cond(system[at])
        raise NumericalError(
            f"stationary solve untrustworthy (residual {residual[at]:.3e}, "
            f"min entry {lowest[at]:.3e}, condition {cond:.3e}); "
            f"the chain may be reducible{where}"
        )
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum(axis=-1, keepdims=True)
    return StationaryDistribution(labels, pi)


def simulate_fixation(
    values: np.ndarray,
    mutant: int,
    resident: int,
    params: EvolutionParams,
    runs: int = 10_000,
    seed: int = 0,
) -> float:
    """Observed fixation frequency of a single mutant over seeded runs.

    Plays the embedded jump chain of the imitation process: waiting rounds
    in which the mutant count does not change have no effect on which
    absorbing state is reached, so each step moves up with probability
    ``gain / (gain + loss)``, which is the Fermi probability itself.  The
    runs are independent copies of one chain, so the state is the number of
    runs at each mutant count 0..N.  While more than ``_TAIL_RUNS`` runs are
    live, one binomial draw per count moves the runs at counts 1..N-1 up,
    the rest down; then one scalar draw per occupied count, in count order,
    reads the same stream, as a count of 0 takes no draw in either.  The
    returned frequency has the distribution of ``runs`` separate chains.
    All draws come from one PCG64 stream seeded by ``seed``.
    """
    runs = require_int("runs", runs, 1, _MAX_RUNS)
    seed = require_int("seed", seed, 0)
    n = params.population_size
    pair = _check_table(values, n, mutant=mutant, resident=resident)
    with np.errstate(over="ignore"):  # beyond the float range the Fermi limits are exact
        x = params.selection_strength * _advantage(pair, n)
    e = np.exp(-np.abs(x))  # ``fermi_probability``, element for element
    up = np.where(x >= 0, 1.0, e) / (1.0 + e)
    binomial = np.random.Generator(np.random.PCG64(seed)).binomial
    runs_at = np.zeros(n + 1, dtype=np.int64)
    runs_at[1] = runs
    moving, above, below = runs_at[1:n], runs_at[2:], runs_at[:-2]
    # Absorption from one mutant takes O(N) jumps in expectation; the cap
    # only exists to turn a logic error into a loud failure.  Both phases
    # draw on it.
    steps = iter(range(1000 * n * n + 100_000))
    for _ in steps:
        if runs - runs_at[0] - runs_at[n] <= _TAIL_RUNS:
            break
        rising = binomial(moving, up)
        falling = moving - rising
        moving.fill(0)
        above += rising
        below += falling
    # Every run moves one count a step, so the live counts share a parity and
    # each step's dict fills in increasing count order: the array draw's order.
    live = {k: c for k, c in enumerate(moving.tolist(), 1) if c}
    fixed, up = int(runs_at[n]), up.tolist()
    for _ in steps:
        if not live:
            runs_at[n] = fixed  # Python's int / int rounds differently above 2**53 runs
            return float(runs_at[n] / runs)
        after = {}
        for k, count in live.items():
            rising = binomial(count, up[k - 1])
            if rising < count:
                after[k - 1] = after.get(k - 1, 0) + count - rising
            if rising:
                after[k + 1] = rising
        fixed += after.pop(n, 0)
        after.pop(0, None)
        live = after
    raise NumericalError("fixation simulation failed to absorb all runs")
