"""The package exports nothing that only the tests use.

Every top-level public function or class of ``src/hjflow`` is either in
``hjflow.__all__`` or referenced by the package or its scripts outside its own
definition: as a loaded name, an attribute or an import alias.  Helpers and
oracles that only tests call live under ``tests/``.
"""

import ast
from pathlib import Path

import hjflow

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hjflow"


def _references(node: ast.AST) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def unused_public_definitions(root: Path, exported) -> list:
    """Names of the public top-level definitions of ``root/src/hjflow`` that no code
    of the package or of ``root/scripts`` references and ``exported`` omits."""
    paths = sorted((root / "src" / "hjflow").glob("*.py")) + sorted((root / "scripts").glob("*.py"))
    defined, used = [], set()
    for path in paths:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            refs = _references(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                refs.discard(stmt.name)
                if path.parent.name == "hjflow" and not stmt.name.startswith("_"):
                    defined.append(stmt.name)
            used |= refs
    return sorted(name for name in defined if name not in used and name not in exported)


def test_every_public_definition_has_a_user_outside_the_tests():
    assert PACKAGE.is_dir()
    assert unused_public_definitions(ROOT, set(hjflow.__all__)) == []
