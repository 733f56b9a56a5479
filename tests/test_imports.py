"""No dead names in ``src/``, and no builtin errors raised there.

Every name a ``src/`` module imports is used in that module or marked
``# noqa: F401``, and every function, method or property it defines has a
caller in ``src/``, ``tests/`` or ``benchmarks/``. Every ``raise Name(...)``
or ``raise module.Name(...)`` in ``src/`` names a ``SheafKGError`` subclass, and only an allow-listed
function calls a ``linalg`` routine that can raise ``LinAlgError``; only the
type-file and triple-file readers call ``kgdata.tsv_rows``. A ``_``-prefixed
name crosses from one ``src/`` module into another only where
``PRIVATE_IMPORTS`` lists it.
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
    """``"<line>: <callee>"`` for each ``raise [module.]Name(...)`` in ``source`` whose ``Name`` is not in ``own``.

    A name that is a parameter of the enclosing function is exempt: it is
    the error class the caller passes in (``as_id``'s ``error``). A dotted
    callee counts when its first part is a name that ``source`` imports
    (``click.UsageError``), so ``raise self._error(...)`` is not one.
    """
    tree = ast.parse(source)
    imported = {(a.asname or a.name).split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import | ast.ImportFrom) for a in node.names}
    found = []

    def visit(node, params):
        if isinstance(node, ast.FunctionDef):
            params = params | {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            callee = ast.unparse(node.exc.func).split(".")
            plain = isinstance(node.exc.func, ast.Name) and callee[0] not in params
            dotted = isinstance(node.exc.func, ast.Attribute) and callee[0] in imported
            if (plain or dotted) and callee[-1] not in own:
                found.append(f"{node.lineno}: {'.'.join(callee)}")
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    visit(tree, frozenset())
    return found


OWN_ERRORS = {name for name, value in vars(errors).items()
              if isinstance(value, type) and issubclass(value, errors.SheafKGError)}


def test_the_check_finds_a_foreign_raise():
    source = ("def f(error):\n    raise error('x')\n"
              "def g(key):\n    if key:\n        raise KeyError(key)\n    raise QueryError('y')\n"
              "raise type(e)('z')\n")
    assert foreign_raises(source, {"QueryError"}) == ["5: KeyError"]


def test_the_check_finds_a_foreign_raise_through_a_module():
    source = ("import click\nimport numpy as np\nfrom . import errors\n"
              "def f(self, text):\n"
              "    if text:\n        raise click.UsageError(text)\n"
              "    if not text:\n        raise np.linalg.LinAlgError(text)\n"
              "    raise errors.QueryError(text)\n"
              "def g(self):\n    raise self._error('x')\n")
    assert foreign_raises(source, {"QueryError"}) == ["6: click.UsageError", "8: np.linalg.LinAlgError"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_raises_only_its_own_errors(path):
    """Bad input must end in a ``SheafKGError`` (a builtin error would escape the CLI as a traceback)."""
    assert foreign_raises(path.read_text(encoding="utf-8"), OWN_ERRORS) == []


# linalg routines that raise LinAlgError (no convergence, a singular or non-finite matrix)
RAISING_LINALG = {"eig", "eigh", "eigvals", "eigvalsh", "svd", "qr", "solve", "inv", "pinv", "lstsq",
                  "cholesky", "matrix_rank", "tensorsolve", "tensorinv"}

# where src/ may call one: psd_pinv turns a non-finite matrix into an all-NaN
# pseudoinverse before its eigh, and the other two factor finite matrices only
# (orthonormal_columns projects checked maps, generate_planted_kg takes the QR of fresh draws)
LINALG_CALLERS = {"sheaf.psd_pinv", "model.orthonormal_columns", "synth.generate_planted_kg"}


def calls_of(source: str, module: str, routines, home: str) -> list[str]:
    """``"<module>.<function>: <routine>"`` for each call of one of ``routines`` of the module ``home``.

    A call counts when its callee is ``<...>.<home>.<routine>``, a routine
    imported from a ``home`` module under any name or, inside ``home`` itself,
    the bare routine. The function is the innermost enclosing definition, led
    by its classes and outer functions.
    """
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == home
               for alias in node.names if alias.name in routines}
    if module == home:
        aliases |= {name: name for name in routines}
    found = []

    def visit(node, scope):
        if isinstance(node, ast.FunctionDef | ast.ClassDef):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in aliases:
                found.append(f"{'.'.join(scope)}: {aliases[f.id]}")
            elif (isinstance(f, ast.Attribute) and f.attr in routines
                  and ast.unparse(f.value).split(".")[-1] == home):
                found.append(f"{'.'.join(scope)}: {f.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, (module,))
    return found


def raising_linalg_calls(source: str, module: str) -> list[str]:
    """``calls_of`` for the ``RAISING_LINALG`` routines of any ``linalg`` module."""
    return calls_of(source, module, RAISING_LINALG, "linalg")


def test_the_check_finds_a_raising_linalg_call():
    source = ("import numpy as np\nfrom numpy.linalg import svd as s, norm\nfrom numpy import linalg\n"
              "def f(a):\n    return np.linalg.eigh(a), np.linalg.norm(a), norm(a), a.solve()\n"
              "class C:\n    def g(self, a):\n        def h():\n            return s(a)\n"
              "        return linalg.solve(a, a)\n"
              "x = np.linalg.qr(1)\n")
    assert raising_linalg_calls(source, "m") == ["m.f: eigh", "m.C.g.h: svd", "m.C.g: solve", "m: qr"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_raising_linalg_calls_stay_in_their_allowed_functions(path):
    """Every eigen-solve goes through ``psd_pinv``: a non-finite matrix gives NaN, not ``LinAlgError``."""
    calls = raising_linalg_calls(path.read_text(encoding="utf-8"), path.stem)
    assert [call for call in calls if call.split(":")[0] not in LINALG_CALLERS] == []


# the one reader of each TAB-separated format: the type-file loader and the triple-file loop
TSV_READERS = {"kgdata.read_type_labels", "kgdata._read_triples"}


def test_the_check_finds_a_tsv_rows_call():
    source = ("from .kgdata import tsv_rows as rows\nfrom . import kgdata\n"
              "def f(p):\n    return kgdata.tsv_rows(p, 3), rows(p, 2), tsv_rows(p, 3), kgdata.text_lines(p)\n"
              "class C:\n    def g(self, p):\n        return sheaf_kg.kgdata.tsv_rows(p, 3)\n")
    assert calls_of(source, "m", {"tsv_rows"}, "kgdata") == ["m.f: tsv_rows", "m.f: tsv_rows", "m.C.g: tsv_rows"]
    own = "def read(p):\n    return tsv_rows(p, 2)\n"
    assert calls_of(own, "kgdata", {"tsv_rows"}, "kgdata") == ["kgdata.read: tsv_rows"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_readers_call_tsv_rows(path):
    """A second parser of a TSV format drifts from the first: its own checks, its own messages."""
    calls = calls_of(path.read_text(encoding="utf-8"), path.stem, {"tsv_rows"}, "kgdata")
    assert [call for call in calls if call.split(":")[0] not in TSV_READERS] == []


def private_imports(source: str) -> list[str]:
    """The ``_``-prefixed names that ``source`` imports anywhere, as ``<module>.<name>``.

    ``from .kgdata import _triple_keys`` reads ``kgdata._triple_keys`` and
    ``from . import _kernels`` reads ``_kernels``. A leading ``sheaf_kg.`` is
    dropped, so relative and absolute imports read alike. A name counts when
    any dotted part of it starts with ``_``; dunders (``__future__``) do not.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" if node.module else alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            name = name.removeprefix("sheaf_kg.")
            if any(part.startswith("_") and not part.startswith("__") for part in name.split(".")):
                found.append(name)
    return found


def test_the_check_finds_a_private_import():
    source = ("from __future__ import annotations\nfrom . import _k, seeds\n"
              "from .a import _b, c as _c, __version__\nimport numpy as np\nimport sheaf_kg._m.x\n"
              "from sheaf_kg import _n\nfrom ._p import q\ndef f():\n    from .r import _s\n")
    assert private_imports(source) == ["_k", "a._b", "_m.x", "_n", "_p.q", "r._s"]


# every private name one src/ module imports from another: the triple-key format
# is shared by kgdata and evaluation only, the structure templates by query and
# evaluation only, and the kernels back model and training
PRIVATE_IMPORTS = {
    "evaluation": ["kgdata._triple_keys", "query._TEMPLATES"],
    "model": ["_kernels"],
    "training": ["_kernels"],
}


def test_private_names_cross_modules_only_where_listed():
    found = {path.stem: private_imports(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == PRIVATE_IMPORTS
