"""The package as a whole: README's examples run, every module uses what
it imports (so do the test oracles and the scripts), and every exported
name resolves."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import hyperspec

ROOT = Path(__file__).resolve().parent.parent
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
# the package, the test oracles that perfbench imports too, and the scripts
MODULES = (sorted((ROOT / "src" / "hyperspec").glob("*.py")) + [ROOT / "tests" / "oracles.py"]
           + sorted((ROOT / "scripts").glob("*.py")))


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(README_BLOCKS[index], f"README.md block {index}", "exec"), {})


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # __all__ re-exports its entries, and a quoted annotation names a type
        if isinstance(node, ast.Assign) and "__all__" in [getattr(t, "id", None) for t in node.targets]:
            used.update(ast.literal_eval(node.value))
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used.update(re.findall(r"[A-Za-z_]\w*", part.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_check_flags_a_dead_import():
    tree = ast.parse("import itertools\nfrom .errors import InputError, DimMismatch\nDimMismatch")
    assert _unused_imports(tree) == ["itertools (line 1)", "InputError (line 2)"]


def test_every_exported_name_resolves():
    assert len(set(hyperspec.__all__)) == len(hyperspec.__all__)
    missing = [name for name in hyperspec.__all__ if not hasattr(hyperspec, name)]
    assert missing == []
