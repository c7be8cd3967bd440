"""Deterministic parameter sweeps over the evolutionary pipeline.

A sweep takes a base parameter set, a list of named axes, and evaluates the
full pipeline (payoff table, fixation chain, stationary distribution,
cooperation report) at every grid point, as ``cooperation_report`` does,
bit for bit.  Consecutive points that share N and beta run as stacks of up
to ``_STACK_POINTS`` through ``pool_cooperation``, the path of a single
point; a refused point raises naming its axis values, the first in grid
order, found by bisecting the stack's prefixes.  Grid order is row-major in
the listed axis order with the last axis varying fastest; nothing is random,
so a sweep is byte-identical run to run.

The eleven base parameters are listed once, by INI section, in ``SECTIONS``:
the :class:`GameSpec` fields under ``[game]`` (defaults from ``GameSpec()``),
then ``[evolution]`` and ``[trust]``.  The INI parser,
:meth:`SweepConfig.base_parameters`, the sweep's columns and the command
line options take their names from it.  A section's INI key is
the parameter name without the section prefix (``[trust] threshold`` is
``trust_threshold``); each key under ``[sweep]`` is a full name and adds one
axis, whose values are an explicit comma list, ``lin:start:stop:count`` or
``log:start:stop:count``.  ``population`` and ``trust_threshold`` take whole
numbers, as base values and on axes alike: a fraction, NaN or infinity
raises ``ConfigError``.  :func:`write_rows` writes the sweep's CSV and every
command line table, and refuses a NaN or infinite number.
"""

from __future__ import annotations

import bisect
import configparser
import dataclasses
import functools
import io
import itertools
import math
import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericalError
from .evolution import EvolutionParams
from .game_model import GameSpec
from .metrics import pool_cooperation, selfplay_cooperation_index, strategy_pool
from .payoffs import payoff_tables

SECTIONS = {
    "game": tuple(field.name for field in dataclasses.fields(GameSpec)),
    "evolution": ("population", "selection_strength"),
    "trust": ("trust_threshold", "check_prob"),
}
_GAME_PARAMS = SECTIONS["game"]
PARAM_NAMES = tuple(name for names in SECTIONS.values() for name in names)
_INTEGER_PARAMS = ("population", "trust_threshold")

STRATEGY_ORDER = ("ALLC", "ALLD", "TFT", "TUC", "TUD")
_OUTPUT_COLUMNS = (
    *(f"freq_{label}" for label in STRATEGY_ORDER), "coop_with", "coop_without", "coop_delta"
)

# Most points a sweep grid or one axis may hold: a one-run grid this size
# takes about 4 s in ``run_sweep`` and 1 s in ``write_csv``, at some 180 MB
# peak RSS (N=100, two x86_64 CPUs).  A larger count is likelier a typo than a
# study, and is refused before the axis values or the grid are built.
_MAX_POINTS = 100_000
# Most points one stack holds, which bounds its tables, solves and byte match
# (some 3 kB a point at N=100); the presets' longest run is 252 points.
_STACK_POINTS = 4096


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
        seen = set()
        for name, values in self.axes:
            if name not in PARAM_NAMES:
                raise ConfigError(
                    f"unknown sweep axis {name!r}; valid names: {', '.join(PARAM_NAMES)}"
                )
            if name in seen:
                raise ConfigError(f"sweep axis {name!r} listed twice")
            if not values:
                raise ConfigError(f"sweep axis {name!r} has no values")
            seen.add(name)
        size = math.prod(len(values) for _, values in self.axes)
        if size > _MAX_POINTS:
            raise ConfigError(f"sweep grid has {size} points, more than {_MAX_POINTS}")
        # A fraction would be truncated at evaluation while the CSV kept its
        # unrounded label, so integer parameters take whole values only.
        axes = dict(self.axes)
        for name in _INTEGER_PARAMS:
            value = getattr(self, name)
            for v in (value, *axes.get(name, ())):
                if not float(v).is_integer():
                    raise ConfigError(f"{name} takes integers, got {v}")
            object.__setattr__(self, name, int(value))

    def base_parameters(self) -> dict[str, float]:
        return {
            name: getattr(self.game if name in _GAME_PARAMS else self, name)
            for name in PARAM_NAMES
        }


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


def _grid_points(config: SweepConfig):
    """Each point's parameters in grid order, axis values over base values."""
    base, names = config.base_parameters(), [name for name, _ in config.axes]
    for values in itertools.product(*(values for _, values in config.axes)):
        yield {**base, **dict(zip(names, values))}


def _stationaries(points: list[dict], built) -> tuple[np.ndarray, ...]:
    """Both pools' stationary vectors and cooperation of points sharing N and beta, one stack
    each: every step that can refuse a point.  ``built`` holds the cached builders."""
    game_of, pool_of, indices_of = built
    indices = []
    for row in points:
        game = game_of(*map(row.__getitem__, _GAME_PARAMS))
        trust = int(row["trust_threshold"]), row["check_prob"]
        indices.append(indices_of(*trust, game.expected_rounds))
    column = {name: np.array([row[name] for row in points], dtype=float) for name in points[0]}
    scale = column["payoff_scale"]
    values = payoff_tables(
        [spec.kind for spec in pool_of(*trust)],
        *(scale * column[name] for name in ("temptation", "reward", "punishment", "sucker")),
        *map(column.get, ("expected_rounds", "check_cost", "trust_threshold", "check_prob")),
    )
    params = EvolutionParams(int(points[0]["population"]), points[0]["selection_strength"])
    return pool_cooperation(values, indices, params)


def _evaluate(points: list[dict], built) -> list[dict]:
    """Rows of points sharing N and beta, from ``_stationaries``."""
    freqs, _, coop_with, coop_without = _stationaries(points, built)
    outputs = np.column_stack([freqs, coop_with, coop_without, coop_with - coop_without])
    columns = (*(f"param:{name}" for name in points[0]), *_OUTPUT_COLUMNS)
    return [
        dict(zip(columns, (*row.values(), *out))) for row, out in zip(points, outputs.tolist())
    ]


def _refusal(points: list[dict], built) -> Exception | None:
    """The error that refuses ``points`` as one stack, or None."""
    try:
        _stationaries(points, built)
    except (ValueError, NumericalError) as exc:
        return exc
    return None


def run_sweep(config: SweepConfig) -> list[dict]:
    """Evaluate every grid point, in deterministic grid order."""
    pool_of = functools.cache(strategy_pool)

    @functools.cache
    def indices_of(theta, check_prob, rounds):  # also checks theta against the match length
        return [selfplay_cooperation_index(spec, rounds) for spec in pool_of(theta, check_prob)]

    rows, built = [], (functools.cache(GameSpec), pool_of, indices_of)
    for _, points in itertools.groupby(
        _grid_points(config), itemgetter("population", "selection_strength")
    ):
        while run := list(itertools.islice(points, _STACK_POINTS)):
            try:
                rows += _evaluate(run, built)
            except (ValueError, NumericalError):
                # A stack fails exactly when one of its points fails on its own,
                # so the shortest failing prefix ends at the first refused point.
                first = bisect.bisect(
                    range(1, len(run)), False, key=lambda end: bool(_refusal(run[:end], built))
                )
                if exc := _refusal([run[first]], built):
                    at = ", ".join(f"{name}={run[first][name]!r}" for name, _ in config.axes)
                    raise type(exc)(f"{exc} (sweep point {at or 'without axes'})") from None
                raise
    return rows


def sweep_table(rows: Sequence[dict]) -> list[list]:
    """The sweep's header row, then each row's values in column order."""
    columns = sorted(k for k in rows[0] if k.startswith("param:")) + list(_OUTPUT_COLUMNS)
    return [columns, *([row[c] for c in columns] for row in rows)]


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
    if isinstance(out, str):
        with open(out, "w", newline="") as handle:
            handle.write("".join(lines))
    else:
        (sys.stdout if out is None else out).write("".join(lines))


def write_csv(rows: Sequence[dict], stream: io.TextIOBase) -> None:
    write_rows(sweep_table(rows), stream)
