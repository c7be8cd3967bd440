import ast
import importlib
import re
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
