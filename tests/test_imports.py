"""Every module of the package uses each name it imports, and the package reads each private name.

No linter ships with the project, so this walks each module's syntax tree
instead.  A package ``__init__`` imports names to re-export them, so it is
left out of the import check.  A private name (one leading underscore) is
internal to the package, so one that no module reads is dead code.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "outgrowth"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nfrom x import a, b as c\nc(a)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


def private_names(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and assigned names, and methods, with one leading underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{n.name}" for n in node.body if isinstance(n, ast.FunctionDef)]
            names.append(node.name)
        elif isinstance(node, ast.FunctionDef):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.rpartition(".")[2][:1] == "_" and not n.endswith("__")]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private name that no source reads, as a name or an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in private_names(tree)
        if name.rpartition(".")[2] not in read
    ]


def test_unread_private_names_are_found():
    sources = {
        "a": "_A = 1\n_B = 2\ndef _f(): return _A\nclass C:\n    def _m(self): pass\n    def _n(self): pass\n",
        "b": "from a import _f\n_f()\nC()._m()\n",
    }
    assert unread_private_names(sources) == ["a:_B", "a:C._n"]


def test_package_reads_every_private_name():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []
