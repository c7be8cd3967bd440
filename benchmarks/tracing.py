"""Per-layer spans and call counts for the traced benchmark run.

The tracer never edits the package.  It replaces, for the duration of one
traced pass, the names that trustevo's modules import from one another (and
the few module-level functions they call internally) with wrappers:

* span wrappers record (id, parent, name, start, end) for calls at a layer
  boundary, such as ``cooperation_report`` as seen from ``trustevo.sweep``;
* count wrappers only bump a counter, for the hot scalar calls
  (``group_payoffs``, ``next_action``, ``observe``) whose individual timing
  would cost more than the call itself.

Span stacks are kept per thread, so a report evaluated on a sweep worker
thread is charged to that thread's spans.  A span opened on a thread whose
stack is empty takes the innermost open span of the benchmark's own thread
as its parent, which makes the sweep's worker reports children of the
``run_sweep`` span.  A span's self time is its duration minus the union of
its children's intervals, so overlapping children on two threads are not
subtracted twice.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict

# (module, attribute, kind, layer name).  Attributes missing from the module
# are skipped, so a later refactor that removes a name reads as zero calls.
PATCHES = (
    ("trustevo.sweep", "cooperation_report", "span", "metrics.report"),
    ("trustevo.metrics", "payoff_matrix", "span", "payoffs.matrix"),
    ("trustevo.metrics", "markov_transition_matrix", "span", "evolution.chain"),
    ("trustevo.metrics", "stationary_distribution", "span", "evolution.stationary"),
    ("trustevo.evolution", "fixation_probability", "fixation", "evolution.fixation"),
    ("trustevo.evolution", "group_payoffs", "count", "evolution.group_payoffs"),
    ("trustevo.payoffs", "analytic_entry", "count", "payoffs.entry"),
    ("trustevo.verification", "analytic_entry", "count", "payoffs.entry"),
    ("trustevo.verification", "exact_expected_payoffs", "span", "match_sim.exact"),
    ("trustevo.match_sim", "next_action", "count", "strategies.next_action"),
    ("trustevo.match_sim", "observe", "count", "strategies.observe"),
)

COUNTED = sorted({layer for _, _, kind, layer in PATCHES if kind != "span"})


class NullTracer:
    """Untraced runs: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters = {name: itertools.count() for name in COUNTED}
        self.fixation_keys: dict[int, set] = defaultdict(set)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[tuple[int, str]] = []
        self._saved: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = {}

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            parent = self._main_stack[-1][0] if self._main_stack else 0
        span_id = next(self._ids)
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the interpreter lock.
            self.spans.append((span_id, parent, name, start, end))

    def _report_id(self) -> int:
        for span_id, name in reversed(self._stack()):
            if name == "metrics.report":
                return span_id
        return 0

    def _wrap(self, kind, layer, fn):
        if kind == "span":
            def span(*args, **kwargs):
                return self.call(layer, fn, *args, **kwargs)
            return span
        bump = self.counters[layer].__next__
        if kind == "count":
            def count(*args, **kwargs):
                bump()
                return fn(*args, **kwargs)
            return count

        def fixation(values, mutant, resident, params):
            # A fixation sum is fully determined by these six numbers, so
            # repeats of a key within one report are wasted work.
            bump()
            key = (
                values[mutant, mutant], values[mutant, resident],
                values[resident, mutant], values[resident, resident],
                params.population_size, params.selection_strength,
            )
            self.fixation_keys[self._report_id()].add(key)
            return fn(values, mutant, resident, params)
        return fixation

    def __enter__(self) -> "Tracer":
        self._local.stack = self._main_stack
        for module_name, attr, kind, layer in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(kind, layer, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        # next() on a fresh count returns how many times it was advanced.
        self.calls = {name: next(c) for name, c in self.counters.items()}

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds per span name."""
        children = defaultdict(list)
        for span_id, parent, _, start, end in self.spans:
            children[parent].append((start, end))
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span_id, _, name, start, end in self.spans:
            covered = _union_length(children.get(span_id, ()), start, end)
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - covered
        return out

    def fixation_useful(self) -> int:
        return sum(len(keys) for keys in self.fixation_keys.values())


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
