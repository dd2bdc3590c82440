"""The package's public names: each module's __all__, joined once."""

import ast
import re
from pathlib import Path

import iasltools
from iasltools import cli, construct, graph, graph6, intset, labeling, oracle, search

_MODULES = (intset, graph6, graph, labeling, construct, search, oracle, cli)


def _readme_quick_start_imports() -> set[str]:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library quick-start", 1)[1].split("\n## ", 1)[0]
    names = set()
    for block in re.findall(r"```python\n(.*?)```", section, re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "iasltools":
                names.update(alias.name for alias in node.names)
    return names


def test_all_joins_every_module_all_once():
    names = iasltools.__all__
    assert len(names) == len(set(names))
    assert names == [n for m in _MODULES for n in m.__all__] + ["__version__"]
    for module in _MODULES:
        for name in module.__all__:
            assert getattr(iasltools, name) is getattr(module, name), name
    assert iasltools.__version__
    assert (iasltools.MAX_ELEMENT_BOUND, iasltools.MAX_LABELS) == (12, 1023)
    quick_start = _readme_quick_start_imports()
    assert quick_start and quick_start <= set(names)
