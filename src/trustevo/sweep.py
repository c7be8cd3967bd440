"""Deterministic parameter sweeps over the evolutionary pipeline.

A sweep takes a base parameter set, a list of named axes, and evaluates the
full pipeline (payoff table, fixation chain, stationary distribution,
cooperation report) at every grid point, as ``cooperation_report`` does,
bit for bit.  Consecutive points that share N and beta run as one stack, a
bounded chunk at a time; a refused point raises naming its axis values, the
first in grid order.  Grid order is row-major in the listed axis order with
the last axis varying fastest; nothing is random, so a sweep is
byte-identical run to run.

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

import configparser
import dataclasses
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
from .metrics import (
    pool_stationaries,
    population_cooperation,
    selfplay_cooperation_index,
    strategy_pool,
)
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

# Most points a sweep grid or one axis may hold: some 12 s of work and 0.3 GB
# of rows, at 0.12 ms and 3 kB a point (N=100, two x86_64 CPUs).  A larger
# count is likelier a typo than a study, and is refused before the axis
# values or the grid are built.
_MAX_POINTS = 100_000
# Most fixation-sum terms, 8 bytes each, one chunk of points stacks at once:
# 26 points at N=100, 2 at N=1000.
_CHUNK_ELEMENTS = 65_536


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


def _chunks(points):
    """Runs of consecutive points sharing N and beta, each of at most
    ``_CHUNK_ELEMENTS`` fixation terms, 5 x 5 x (N - 1) a point."""
    for (n, _), run in itertools.groupby(points, itemgetter("population", "selection_strength")):
        run, step = list(run), max(1, _CHUNK_ELEMENTS // (25 * max(int(n) - 1, 1)))
        yield from (run[i : i + step] for i in range(0, len(run), step))


def _evaluate(points: list[dict]) -> list[dict]:
    """Rows of a chunk of points; its tables, chains and solves are stacks."""
    games = [GameSpec(**{name: row[name] for name in _GAME_PARAMS}) for row in points]
    pools = [strategy_pool(int(row["trust_threshold"]), row["check_prob"]) for row in points]
    # Also checks each threshold against its match length, before the tables.
    indices = np.array([
        [selfplay_cooperation_index(spec, game.expected_rounds) for spec in pool]
        for pool, game in zip(pools, games)
    ])
    column = {name: np.array([row[name] for row in points], dtype=float) for name in points[0]}
    scale = column["payoff_scale"]
    values = payoff_tables(
        [spec.kind for spec in pools[0]],
        *(scale * column[name] for name in ("temptation", "reward", "punishment", "sucker")),
        *map(column.get, ("expected_rounds", "check_cost", "trust_threshold", "check_prob")),
    )
    params = EvolutionParams(int(points[0]["population"]), points[0]["selection_strength"])
    freqs, without = pool_stationaries(values, params)
    coop_with = population_cooperation(freqs, indices)
    coop_without = population_cooperation(without, indices[:, :3])
    outputs = np.column_stack([freqs, coop_with, coop_without, coop_with - coop_without])
    return [
        {**{f"param:{k}": v for k, v in row.items()}, **dict(zip(_OUTPUT_COLUMNS, out))}
        for row, out in zip(points, outputs.tolist())
    ]


def run_sweep(config: SweepConfig) -> list[dict]:
    """Evaluate every grid point, in deterministic grid order."""
    rows = []
    for points in _chunks(_grid_points(config)):
        try:
            rows += _evaluate(points)
        except (ValueError, NumericalError):
            for point in points:  # the chunk's first point refused on its own
                try:
                    _evaluate([point])
                except (ValueError, NumericalError) as exc:
                    at = ", ".join(f"{name}={point[name]!r}" for name, _ in config.axes)
                    raise type(exc)(f"{exc} (sweep point {at or 'without axes'})") from None
            raise
    return rows


def sweep_table(rows: Sequence[dict]) -> list[list]:
    """The sweep's header row, then each row's values in column order."""
    columns = sweep_columns(rows)
    return [columns, *([row[c] for c in columns] for row in rows)]


def sweep_columns(rows: Sequence[dict]) -> list[str]:
    params = sorted(k for k in rows[0] if k.startswith("param:"))
    return params + list(_OUTPUT_COLUMNS)


def format_value(value: float) -> str:
    """Shortest decimal string that round-trips the exact double."""
    return repr(float(value))


def write_rows(rows: Sequence[Sequence], out: io.TextIOBase | str | None = None) -> None:
    """Write ``rows`` as CSV lines to a stream, a file path, or stdout (None).

    Strings are written as they are and numbers through :func:`format_value`.
    The whole text is built first, so a NaN or infinite number raises
    ``NumericalError`` before stdout is touched or a file is opened.
    """
    lines = []
    for row in rows:
        cells = []
        for value in row:
            if not isinstance(value, str):
                value = format_value(value)
                if value in ("nan", "inf", "-inf"):
                    raise NumericalError(
                        f"output line {len(lines) + 1} holds the non-finite value {value}"
                    )
            cells.append(value)
        lines.append(",".join(cells) + "\n")
    if isinstance(out, str):
        with open(out, "w", newline="") as handle:
            handle.write("".join(lines))
    else:
        (sys.stdout if out is None else out).write("".join(lines))


def write_csv(rows: Sequence[dict], stream: io.TextIOBase) -> None:
    write_rows(sweep_table(rows), stream)
