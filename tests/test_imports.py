"""No dead names in ``src/``, and no builtin errors raised there.

Every name a ``src/`` module imports is used in that module or marked
``# noqa: F401``, and every function, method or property it defines has a
caller in ``src/``, ``tests/`` or ``benchmarks/``. Every ``raise Name(...)``
in ``src/`` names a ``SheafKGError`` subclass.
"""

import ast
from pathlib import Path

import pytest

from sheaf_kg import errors

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sheaf_kg"


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


def references(sources) -> tuple[set[str], set[str]]:
    """``(names, attributes)`` that ``sources`` read.

    ``names`` holds every name, import and string (the benchmark wraps
    functions by their name); ``attributes`` every attribute read.
    """
    names, attributes = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names, attributes


def dead_definitions(module: str, names: set[str], attributes: set[str]) -> list[str]:
    """The functions, methods and properties that ``module`` defines and nothing reads.

    A module-level function is read when it is in ``names`` or
    ``attributes``, a method or property when it is in ``attributes``
    (see ``references``). Dunders, which Python calls, and ``@main.command``
    functions, which the CLI calls, are exempt.
    """
    def exempt(node):
        return node.name.startswith("__") and node.name.endswith("__") or any(
            ast.unparse(d).startswith("main.command(") for d in node.decorator_list
        )

    dead = []
    for node in ast.parse(module).body:
        if isinstance(node, ast.FunctionDef) and not exempt(node):
            if node.name not in names | attributes:
                dead.append(node.name)
        elif isinstance(node, ast.ClassDef):
            dead.extend(f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef) and not exempt(item)
                        and item.name not in attributes)
    return dead


def test_the_check_finds_a_dead_definition():
    module = ("def used():\n    pass\ndef wrapped():\n    pass\ndef dead():\n    pass\n"
              "@main.command('run')\ndef run():\n    pass\n"
              "class C:\n    def __init__(self):\n        self.read()\n    def read(self):\n        pass\n"
              "    @property\n    def unread(self):\n        return used\n")
    caller = "import m\nm.C().read()\nwrap(m, 'wrapped')\n"
    assert dead_definitions(module, *references([module, caller])) == ["dead", "C.unread"]


def test_every_definition_has_a_caller():
    read = references(path.read_text(encoding="utf-8")
                      for tree in ("src", "tests", "benchmarks") for path in (ROOT / tree).rglob("*.py"))
    dead = {path.name: dead_definitions(path.read_text(encoding="utf-8"), *read)
            for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in dead.items() if names} == {}


def foreign_raises(source: str, own: set[str]) -> list[str]:
    """``"<line>: <name>"`` for each ``raise Name(...)`` in ``source`` whose name is not in ``own``.

    A name that is a parameter of the enclosing function is exempt: it is
    the error class the caller passes in (``as_id``'s ``error``).
    """
    found = []

    def visit(node, params):
        if isinstance(node, ast.FunctionDef):
            params = params | {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
                and node.exc.func.id not in own | params):
            found.append(f"{node.lineno}: {node.exc.func.id}")
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    visit(ast.parse(source), frozenset())
    return found


OWN_ERRORS = {name for name, value in vars(errors).items()
              if isinstance(value, type) and issubclass(value, errors.SheafKGError)}


def test_the_check_finds_a_foreign_raise():
    source = ("def f(error):\n    raise error('x')\n"
              "def g(key):\n    if key:\n        raise KeyError(key)\n    raise QueryError('y')\n"
              "raise type(e)('z')\n")
    assert foreign_raises(source, {"QueryError"}) == ["5: KeyError"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_raises_only_its_own_errors(path):
    """Bad input must end in a ``SheafKGError`` (a builtin error would escape the CLI as a traceback)."""
    assert foreign_raises(path.read_text(encoding="utf-8"), OWN_ERRORS) == []
