"""Every top-level import of a package module is used in that module."""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "entlap"
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")  # __init__ re-exports


def _unused_imports(source: str) -> list[str]:
    """The names bound by the module's top-level imports that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport math\nimport os.path\nfrom a import b as c, d\nd(os)\n"
    assert _unused_imports(source) == ["math", "c"]


def test_every_public_name_resolves():
    import entlap

    assert [name for name in entlap.__all__ if not hasattr(entlap, name)] == []
    namespace = {}
    exec("from entlap import *", namespace)
    assert set(entlap.__all__) <= namespace.keys()
