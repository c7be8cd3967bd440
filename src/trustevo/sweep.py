"""Deterministic parameter sweeps over the evolutionary pipeline.

A sweep takes a base parameter set, a list of named axes, and evaluates the
full pipeline (payoff table, fixation chain, stationary distribution,
cooperation report) at every grid point, as ``cooperation_report`` does,
bit for bit.  The grid is built as one float64 column per parameter, in
row-major order in the listed axis order with the last axis varying fastest,
inside the ``(points, 19)`` array of a :class:`SweepTable`, whose last eight
columns the evaluation fills in.  Runs of points that share N and beta are
evaluated as stacks of up to ``_STACK_POINTS`` through ``pool_cooperation``,
the path of a single point; each stack's games are checked elementwise by
``GameSpec``'s rules and each distinct strategy pool is built once.  A
refused point, the first in grid order, is found by halving the refused
stack (at most 3n points summed for a stack of n) and raises the error of
``cooperation_report`` at its own base and axis values, naming the latter.
Nothing is random, so a sweep is byte-identical run to run.

The eleven base parameters are listed once, by INI section, in ``SECTIONS``:
the :class:`GameSpec` fields under ``[game]`` (defaults from ``GameSpec()``),
then ``[evolution]`` and ``[trust]``.  The INI parser,
:meth:`SweepConfig.base_parameters`, the sweep's columns and the command
line options take their names from it.  A section's INI key is
the parameter name without the section prefix (``[trust] threshold`` is
``trust_threshold``); each key under ``[sweep]`` is a full name and adds one
axis, whose values are an explicit comma list, ``lin:start:stop:count`` or
``log:start:stop:count``.  A bool, a non-number or an int beyond the float
range raises ``ConfigError``, as a base value and on an axis, and so does a
fraction, NaN or infinity for ``population`` and ``trust_threshold``, which
take whole numbers; the rest are kept as ``require_real``'s Python numbers.
:func:`write_csv` writes a sweep table and :func:`write_rows` every other
command line table; both refuse a NaN or infinite number first.
"""

from __future__ import annotations

import configparser
import contextlib
import dataclasses
import io
import math
import numbers
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, NumericalError, require_real
from .evolution import EvolutionParams
from .game_model import GameSpec, check_game
from .metrics import cooperation_report, pool_cooperation, selfplay_cooperation_index, strategy_pool
from .payoffs import payoff_tables

SECTIONS = {
    "game": tuple(field.name for field in dataclasses.fields(GameSpec)),
    "evolution": ("population", "selection_strength"),
    "trust": ("trust_threshold", "check_prob"),
}
_GAME_PARAMS = SECTIONS["game"]
PARAM_NAMES = tuple(name for names in SECTIONS.values() for name in names)
_INTEGER_PARAMS = ("population", "trust_threshold")
_POOL_PARAMS = ("trust_threshold", "check_prob", "expected_rounds")

STRATEGY_ORDER = tuple(spec.label for spec in strategy_pool(1, 0.0))
# The parameters in the order of the table's first columns, sorted by name.
_COLUMN_PARAMS = tuple(sorted(PARAM_NAMES))
_COLUMNS = (
    *(f"param:{name}" for name in _COLUMN_PARAMS),
    *(f"freq_{label}" for label in STRATEGY_ORDER), "coop_with", "coop_without", "coop_delta",
)

# Most points a sweep grid or one axis may hold: a one-run grid this size
# takes about 2.5-3 s in ``run_sweep`` and 1 s in ``write_csv``, at some 60 MB
# peak RSS (N=100, two x86_64 CPUs).  A larger count is likelier a typo than a
# study, and is refused before the axis values or the grid are built.
_MAX_POINTS = 100_000
# Most points one stack holds, which bounds its tables, solves and byte match
# (some 3 kB a point at N=100); the presets' longest run is 252 points.
_STACK_POINTS = 4096
# Rows a sweep's CSV formats per write, so that its text is never whole in
# memory: about 0.5 MB of text; 4,096 rows were no faster and peaked 4 times higher.
_CSV_BLOCK = 1024


@dataclass(frozen=True)
class SweepConfig:
    """Base parameters plus ordered sweep axes."""

    game: GameSpec = GameSpec()
    population: int = 100
    selection_strength: float = 0.1
    trust_threshold: int = 3
    check_prob: float = 0.25
    axes: tuple[tuple[str, tuple[float, ...]], ...] = ()

    def __post_init__(self) -> None:
        axes = {}
        for entry in self.axes if isinstance(self.axes, (tuple, list)) else (self.axes,):
            if not isinstance(entry, (tuple, list)) or len(entry) != 2:
                raise ConfigError(f"a sweep axis is a (name, values) pair, got {entry!r}")
            name, values = entry
            if name not in PARAM_NAMES:
                raise ConfigError(
                    f"unknown sweep axis {name!r}; valid names: {', '.join(PARAM_NAMES)}"
                )
            if name in axes:
                raise ConfigError(f"sweep axis {name!r} listed twice")
            axes[name] = _axis_values(name, values)
            if not axes[name]:
                raise ConfigError(f"sweep axis {name!r} has no values")
        object.__setattr__(self, "axes", tuple(axes.items()))
        size = math.prod(len(values) for _, values in self.axes)
        if size > _MAX_POINTS:
            raise ConfigError(f"sweep grid has {size} points, more than {_MAX_POINTS}")
        # A value beyond the float range (an int of 10**400) cannot fill a float column,
        # and a fraction would be truncated at evaluation while the CSV kept its label.
        for name, value in self.base_parameters().items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} holds {value!r}, which is not a number")
            value = require_real(name, value)
            for v in (value, *axes.get(name, ())):
                if not isinstance(v, float) and abs(v) > sys.float_info.max:
                    raise ConfigError(f"{name} must be within the float range, got {v}")
                if name in _INTEGER_PARAMS and not float(v).is_integer():
                    raise ConfigError(f"{name} takes integers, got {v}")
            if name not in _GAME_PARAMS:
                object.__setattr__(self, name, int(value) if name in _INTEGER_PARAMS else value)

    def base_parameters(self) -> dict[str, float]:
        return {
            name: getattr(self.game if name in _GAME_PARAMS else self, name)
            for name in PARAM_NAMES
        }


def _axis_values(name: str, values) -> tuple:
    """The values of the sweep axis ``name`` in a tuple, each the Python number
    ``require_real`` makes of it."""
    try:
        if isinstance(values, (str, bytes)):  # these would iterate as characters
            raise TypeError
        kept = tuple(values)
    except TypeError:
        raise ConfigError(
            f"sweep axis {name!r} takes a sequence of numbers, got {values!r}"
        ) from None
    for value in kept:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            shown = value.item() if isinstance(value, np.generic) else value  # np.True_ as True
            raise ConfigError(f"sweep axis {name!r} holds {shown!r}, which is not a number")
    return tuple(require_real(name, value) for value in kept)


_CHECK_COSTS = tuple(i / 20 for i in range(21))
_CHECK_PROBS = tuple(1.0 / v for v in (1, 2, 3, 4, 5, 8, 10, 15, 20, 25, 33, 50))
_SCALES = tuple(float(x) for x in np.logspace(-1.0, 3.0, 25))

# The named grids of the package's reference figures: SweepConfig keyword
# arguments besides the game, which is always the default ``GameSpec()``.
PRESETS = {
    "fig3": {"axes": (("check_cost", _CHECK_COSTS),)},
    "fig4": {"axes": (("expected_rounds", (20.0, 50.0)), ("payoff_scale", _SCALES))},
    "fig5": {"axes": (("check_prob", _CHECK_PROBS), ("check_cost", _CHECK_COSTS))},
    "appendix_theta5": {"trust_threshold": 5, "axes": (("check_cost", _CHECK_COSTS),)},
    "appendix_theta10": {"trust_threshold": 10, "axes": (("check_cost", _CHECK_COSTS),)},
}


def preset_config(name: str) -> SweepConfig:
    """The sweep grid of a name in ``PRESETS``."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; valid presets: {', '.join(PRESETS)}")
    return SweepConfig(**PRESETS[name])


def _parse_values(text: str, key: str) -> tuple[float, ...]:
    text = text.strip()
    for prefix in ("lin:", "log:"):
        if text.startswith(prefix):
            parts = text[len(prefix):].split(":")
            if len(parts) != 3:
                raise ConfigError(
                    f"axis {key!r}: expected {prefix}start:stop:count, got {text!r}"
                )
            try:
                start, stop = float(parts[0]), float(parts[1])
                count = int(parts[2])
            except ValueError as exc:
                raise ConfigError(f"axis {key!r}: {exc}") from None
            if count < 1:
                raise ConfigError(f"axis {key!r}: count must be positive")
            if count > _MAX_POINTS:
                raise ConfigError(f"axis {key!r}: count {count} is above {_MAX_POINTS}")
            if prefix == "log:":
                if start <= 0 or stop <= 0:
                    raise ConfigError(f"axis {key!r}: log spacing needs positive bounds")
                return tuple(
                    float(x) for x in np.logspace(np.log10(start), np.log10(stop), count)
                )
            return tuple(float(x) for x in np.linspace(start, stop, count))
    try:
        values = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"axis {key!r}: {exc}") from None
    return values


def parse_config(path: str) -> SweepConfig:
    """Load a sweep configuration from an INI file.

    The file is read as UTF-8 (a byte-order mark is skipped) and its values
    literally (no ``%`` interpolation).  A file that is not UTF-8 text, one
    configparser refuses, or one with a ``[DEFAULT]`` section raises
    ``ConfigError``.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        found = parser.read(path, encoding="utf-8-sig")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file: {' '.join(str(exc).split())}") from None
    if not found:
        raise ConfigError(f"cannot read config file {path!r}")
    stray = set(parser.sections()) - set(SECTIONS) - {"sweep"}
    if parser.defaults():  # its keys would leak into every other section
        stray.add("DEFAULT")
    if stray:
        raise ConfigError(f"unknown config sections: {', '.join(sorted(stray))}")

    settings = SweepConfig().base_parameters()
    for section, names in SECTIONS.items():
        entries = parser[section] if parser.has_section(section) else {}
        keys = {name.removeprefix(f"{section}_"): name for name in names}
        bad = set(entries) - set(keys)
        if bad:
            raise ConfigError(f"unknown keys in [{section}]: {', '.join(sorted(bad))}")
        for key, text in entries.items():
            try:
                settings[keys[key]] = float(text)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None

    sweep = parser["sweep"] if parser.has_section("sweep") else {}
    axes = tuple((key, _parse_values(text, key)) for key, text in sweep.items())
    game = GameSpec(**{name: settings.pop(name) for name in _GAME_PARAMS})
    return SweepConfig(game=game, axes=axes, **settings)


@dataclass(frozen=True, eq=False)
class SweepTable(Sequence):
    """A sweep's result: ``columns`` in CSV order and one ``(points, 19)`` float64
    ``values`` array, read as a sequence of ``{column: value}`` rows built on
    access (a slice gives a table)."""

    columns: tuple[str, ...]
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SweepTable(self.columns, self.values[index])
        return dict(zip(self.columns, self.values[index].tolist()))


def _fill(rows: np.ndarray) -> None:
    """Fill ``rows``, points sharing N and beta, from their float parameter
    columns as one stack through ``pool_cooperation``, building each distinct
    strategy pool once; its checks run in a single point's order (game, N and beta first)."""
    column = dict(zip(_COLUMN_PARAMS, rows.T))
    check_game(*(column[name] for name in _GAME_PARAMS))
    params = EvolutionParams(int(column["population"][0]), column["selection_strength"][0])
    keys, inverse = {}, []  # the distinct (theta, p, rounds) in order, and each point's
    for key in zip(*(column[name].tolist() for name in _POOL_PARAMS)):
        inverse.append(keys.setdefault(key, len(keys)))
    pools = [strategy_pool(int(theta), prob) for theta, prob, _ in keys]
    selfplay = np.array([  # also checks theta against the rounds
        [selfplay_cooperation_index(s, rounds) for s in pool]
        for pool, (_, _, rounds) in zip(pools, keys)
    ])
    with np.errstate(over="ignore"):  # payoff_tables names an entry that overflows
        stakes = [column["payoff_scale"] * column[name] for name in _GAME_PARAMS[:4]]
    values = payoff_tables(
        [spec.kind for spec in pools[0]], *stakes,  # T, R, P, S
        *map(column.get, ("expected_rounds", "check_cost", "trust_threshold", "check_prob")),
    )
    freqs, _, coop_with, coop_without = pool_cooperation(values, selfplay[inverse], params)
    out = rows[:, len(_COLUMN_PARAMS):]
    out[:, :5], out[:, 5], out[:, 6], out[:, 7] = (
        freqs, coop_with, coop_without, coop_with - coop_without
    )


def _evaluate(values: np.ndarray, start: int, stop: int, config: SweepConfig) -> None:
    """Fill the table rows ``start`` to ``stop``, points sharing N and beta.

    A stack is refused exactly when one of its points is refused alone, so a
    refused stack is halved, first half first, down to its first refused point:
    at most 3n points in 2 ceil(log2 n) + 1 stacks.  Its error is
    ``cooperation_report``'s at its own base and axis values, so that an int
    prints as one and N or beta is named first, as by ``trustevo coop-report``,
    followed by its axis values.
    """
    rows = values[start:stop]
    try:
        _fill(rows)
    except (InputError, NumericalError) as exc:
        if stop - start > 1:
            half = (start + stop + 1) // 2
            _evaluate(values, start, half, config)
            _evaluate(values, half, stop, config)
            return
        at = np.unravel_index(start, [len(axis) for _, axis in config.axes])
        point = config.base_parameters()
        point.update((name, axis[i]) for (name, axis), i in zip(config.axes, at))
        try:
            game = GameSpec(**{name: point[name] for name in _GAME_PARAMS})
            params = EvolutionParams(int(point["population"]), point["selection_strength"])
            cooperation_report(game, params, int(point["trust_threshold"]), point["check_prob"])
        except (InputError, NumericalError) as own:
            exc = own
        at = ", ".join(f"{name}={point[name]!r}" for name, _ in config.axes)
        raise type(exc)(f"{exc} (sweep point {at or 'without axes'})") from None


def run_sweep(config: SweepConfig) -> SweepTable:
    """Evaluate every grid point, in deterministic grid order."""
    sizes = [len(axis) for _, axis in config.axes]
    values = np.empty((math.prod(sizes), len(_COLUMNS)))
    grid = values.reshape(*sizes, len(_COLUMNS))
    base = config.base_parameters()
    grid[..., :len(_COLUMN_PARAMS)] = [base[name] for name in _COLUMN_PARAMS]
    for k, (name, axis) in enumerate(config.axes):  # each along its own grid dimension
        shape = [-1] + [1] * (len(sizes) - k - 1)
        grid[..., _COLUMN_PARAMS.index(name)] = np.reshape(np.array(axis, float), shape)
    shared = values[:, [_COLUMN_PARAMS.index(n) for n in ("population", "selection_strength")]]
    starts = np.flatnonzero(np.any(shared[1:] != shared[:-1], axis=1)) + 1  # each new N or beta
    bounds = [0, *starts.tolist(), len(values)]
    for start, stop in zip(bounds, bounds[1:]):
        for first in range(start, stop, _STACK_POINTS):
            _evaluate(values, first, min(first + _STACK_POINTS, stop), config)
    return SweepTable(_COLUMNS, values)


@contextlib.contextmanager
def _opened(out: io.TextIOBase | str | None):
    """``out`` as a stream: a file path opened for writing, or stdout for None."""
    if isinstance(out, str):
        with open(out, "w", newline="") as handle:
            yield handle
    else:
        yield sys.stdout if out is None else out


def write_rows(rows: Sequence[Sequence], out: io.TextIOBase | str | None = None) -> None:
    """Write ``rows`` as CSV lines to a stream, a file path, or stdout (None).

    Strings are written as they are and any other value as ``repr(float(v))``.
    The whole text is built first, so a NaN or infinite number raises
    ``NumericalError`` before stdout is touched or a file is opened.
    """
    lines = []
    for line, row in enumerate(rows, 1):
        cells = []
        for value in row:
            if not isinstance(value, str):
                if not math.isfinite(value := float(value)):
                    raise NumericalError(f"output line {line} holds the non-finite value {value}")
                value = repr(value)
            cells.append(value)
        lines.append(",".join(cells) + "\n")
    with _opened(out) as handle:
        handle.write("".join(lines))


def write_csv(table: SweepTable, out: io.TextIOBase | str | None = None) -> None:
    """Write a sweep table as CSV, its header then one line per row, to a
    stream, a file path, or stdout (None), each number as its ``repr``.

    A NaN or infinite value raises ``NumericalError`` naming the first such
    line (the header is line 1) before anything is written; the lines are then
    written in blocks of ``_CSV_BLOCK`` rows.
    """
    finite = np.isfinite(table.values)
    if not finite.all():
        row, column = np.argwhere(~finite)[0]
        value = table.values[row, column]
        raise NumericalError(f"output line {row + 2} holds the non-finite value {value}")
    with _opened(out) as handle:
        handle.write(",".join(table.columns) + "\n")
        for start in range(0, len(table), _CSV_BLOCK):
            rows = table.values[start:start + _CSV_BLOCK].tolist()
            handle.write("".join([",".join(map(repr, row)) + "\n" for row in rows]))
