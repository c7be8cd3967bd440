import ast
import importlib
import importlib.util
import re
import sys
import types
from pathlib import Path

import trustevo

ROOT = Path(__file__).parents[1]
README = ROOT / "README.md"


def test_readme_quickstart_runs(capsys):
    """Every fenced python block of the README runs against the package."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_all_lists_every_public_name_once():
    exported = trustevo.__all__
    assert len(exported) == len(set(exported))
    bound = {
        name for name, value in vars(trustevo).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == bound


def test_benchmark_imports_exist():
    """Every name the benchmark imports from the package is still there."""
    tree = ast.parse((ROOT / "benchmarks" / "workloads.py").read_text())
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("trustevo")
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def _load(path: Path, monkeypatch) -> types.ModuleType:
    """The module at ``path``, registered only for the test (dataclasses look it up)."""
    spec = importlib.util.spec_from_file_location(f"_benchmark_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_the_figure_sweep_benchmark_pass_runs_clean(monkeypatch):
    """One pass of the benchmark's figure-sweep workload, run from the repo
    root as the benchmark runs it, passes its own checks, so a change to
    ``run_sweep``'s result that the harness cannot read fails here."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = _load(ROOT / "benchmarks" / "workloads.py", monkeypatch)
    tracing = _load(ROOT / "benchmarks" / "tracing.py", monkeypatch)
    workload = workloads.FigureSweep(1)
    result = workload.run_pass(0, tracing.NullTracer())
    assert (result.attempted, result.failed) == (365, 0)
    assert workload.check(result) == []


def test_the_oracles_benchmark_pass_runs_clean(monkeypatch):
    """One pass of the benchmark's oracles workload: 17,550 comparisons, the
    Monte Carlo and three fixation simulations, all passing their checks."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = _load(ROOT / "benchmarks" / "workloads.py", monkeypatch)
    tracing = _load(ROOT / "benchmarks" / "tracing.py", monkeypatch)
    workload = workloads.Oracles(1)
    result = workload.run_pass(0, tracing.NullTracer())
    assert (result.attempted, result.failed) == (17_554, 0)
    assert workload.check(result) == []


def test_the_point_queries_benchmark_pass_runs_clean(monkeypatch):
    """One pass of the benchmark's point-queries workload: 240 single
    ``cooperation_report`` calls, none refused, all passing their checks."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = _load(ROOT / "benchmarks" / "workloads.py", monkeypatch)
    tracing = _load(ROOT / "benchmarks" / "tracing.py", monkeypatch)
    workload = workloads.PointQueries(1)
    result = workload.run_pass(0, tracing.NullTracer())
    assert (result.attempted, result.failed) == (240, 0)
    assert workload.check(result) == []
