"""The package's export list matches what ``daglm/__init__.py`` imports."""

import ast
import inspect
from collections import Counter
from pathlib import Path

import daglm


def test_all_resolves_once_and_lists_every_public_import():
    counts = Counter(daglm.__all__)
    assert [name for name, n in counts.items() if n > 1] == []
    assert [name for name in daglm.__all__ if not hasattr(daglm, name)] == []
    tree = ast.parse(Path(daglm.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = sorted(
        name for name in imported
        if not name.startswith("_")
        and (inspect.isclass(getattr(daglm, name)) or inspect.isfunction(getattr(daglm, name)))
    )
    assert [name for name in public if name not in counts] == []
