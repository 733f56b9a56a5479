"""Every name a ``src/`` module imports is used in that module or marked ``# noqa: F401``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sheaf_kg"


def unused_imports(source: str) -> list[str]:
    """``"<line>: <name>"`` for each imported name that ``source`` never reads.

    A name read anywhere in the module counts, and so does a string in
    ``__all__``. An import whose name's line holds ``# noqa: F401`` is exempt,
    and so is ``from __future__``.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import | ast.ImportFrom) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return [f"{line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_the_check_finds_an_unused_import():
    source = ("import os\nimport sys as system\nfrom a import (\n    b,  # noqa: F401\n    c,\n)\n"
              "import x.y\n__all__ = ['c']\nx.y.z\n")
    assert unused_imports(source) == ["1: os", "2: system"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
