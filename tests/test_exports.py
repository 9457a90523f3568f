"""``import outgrowth`` exports only what a command, the README or the benchmark reads.

Each name that ``outgrowth/__init__.py`` imports from the package must be
read by another module of the package (as a name or an attribute), or be
named in ``README.md`` or in ``perfbench/tracer.py``, which wraps layers by
name.  A name that nothing reads is dead code, not a public surface.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "outgrowth"
DOCUMENTS = [ROOT / "README.md", ROOT / "perfbench" / "tracer.py"]


def exported_names(init_source: str) -> list[str]:
    """Names bound by the package ``__init__``'s imports from its own modules."""
    return [
        alias.asname or alias.name
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    ]


def unread_exports(init_source: str, modules: list[str], documents: list[str]) -> list[str]:
    """Exported names that no module reads and no document names."""
    read = set()
    for source in modules:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [
        name
        for name in exported_names(init_source)
        if name not in read and not any(re.search(rf"\b{re.escape(name)}\b", text) for text in documents)
    ]


def test_unread_exports_are_found():
    init = "import os\nfrom .a import f, g, h, k as kk\nfrom .b import C, D\n"
    modules = ["def f(): pass\ndef g(): return f()\n", "class C:\n    pass\nx = C.h\n"]
    documents = ["`og.kk` and g_long"]
    assert unread_exports(init, modules, documents) == ["g", "D"]


def test_package_exports_only_what_something_reads():
    modules = [p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    documents = [p.read_text() for p in DOCUMENTS]
    assert unread_exports((PACKAGE / "__init__.py").read_text(), modules, documents) == []
