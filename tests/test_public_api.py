"""The package exports nothing that only the tests use, and keeps no left-over
private helper.

Every top-level public function or class of ``src/hjflow`` is either in
``hjflow.__all__`` or referenced by the package or its scripts outside its own
definition: as a loaded name, an attribute or an import alias.  Every private
top-level function, class or constant is referenced by the package outside its
own definition.  Helpers and oracles that only tests call live under ``tests/``.
Every parameter default is overridden by some call in the package or its
scripts: a default that no caller changes is a constant.
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


def _defined_names(stmt: ast.stmt) -> list:
    """The names a top-level statement defines: a function, a class or constants."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def _definitions(root: Path):
    """(public, private, package_refs, script_refs): the public top-level functions
    and classes and the private top-level functions, classes and constants of
    ``root/src/hjflow``, and the names that the package resp. ``root/scripts``
    reference outside the definition of that name."""
    public, private, package_refs, script_refs = [], [], set(), set()
    for path in sorted((root / "src" / "hjflow").glob("*.py")) + sorted((root / "scripts").glob("*.py")):
        in_package = path.parent.name == "hjflow"
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _defined_names(stmt)
            refs = _references(stmt) - set(names)
            (package_refs if in_package else script_refs).update(refs)
            if not in_package:
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                public += [name for name in names if not name.startswith("_")]
            private += [name for name in names if name.startswith("_") and not name.startswith("__")]
    return public, private, package_refs, script_refs


def unused_public_definitions(root: Path, exported) -> list:
    """Names of the public top-level definitions of ``root/src/hjflow`` that no code
    of the package or of ``root/scripts`` references and ``exported`` omits."""
    public, _, package_refs, script_refs = _definitions(root)
    used = package_refs | script_refs
    return sorted(name for name in public if name not in used and name not in exported)


def unused_private_definitions(root: Path) -> list:
    """Names of the private top-level functions, classes and constants of
    ``root/src/hjflow`` that no code of the package references."""
    _, private, package_refs, _ = _definitions(root)
    return sorted(name for name in private if name not in package_refs)


def _callee(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _defaults(fn: ast.FunctionDef, owner):
    """(callee name, [(parameter, position or None)]) of the defaulted parameters of a
    top-level function or of a method of the top-level class ``owner``; the position
    counts the arguments a call passes, so a bound ``self`` is not counted."""
    args = fn.args
    bound = owner is not None and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    params = [(arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first]
    params += [(arg.arg, None) for arg, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None]
    return (owner if fn.name == "__init__" else fn.name), params


def never_overridden_defaults(root: Path) -> list:
    """The parameter defaults, as ``file:callee.parameter``, of the top-level functions
    and class methods of ``root/src/hjflow`` that no call in the package or in
    ``root/scripts`` overrides, by keyword, by position or through ``*``/``**``.
    Calls are matched to definitions by callee name (``__init__`` by the class
    name), so a default can be missed when two callees share a name; nested
    closures are not scanned."""
    calls, defaults = [], []
    for path in sorted((root / "src" / "hjflow").glob("*.py")) + sorted((root / "scripts").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        if path.parent.name != "hjflow":
            continue
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                defaults.append((path.name, *_defaults(stmt, None)))
            elif isinstance(stmt, ast.ClassDef):
                defaults += [(path.name, *_defaults(fn, stmt.name)) for fn in stmt.body
                             if isinstance(fn, ast.FunctionDef)]

    def overridden(name, param, position):
        for call in calls:
            if _callee(call) != name:
                continue
            if any(kw.arg in (param, None) for kw in call.keywords):
                return True
            if any(isinstance(arg, ast.Starred) for arg in call.args):
                return True
            if position is not None and len(call.args) > position:
                return True
        return False

    return [f"{file}:{name}.{param}" for file, name, params in defaults
            for param, position in params if not overridden(name, param, position)]


def test_every_public_definition_has_a_user_outside_the_tests():
    assert PACKAGE.is_dir()
    assert unused_public_definitions(ROOT, set(hjflow.__all__)) == []


def test_every_private_definition_has_a_user_in_the_package():
    assert PACKAGE.is_dir()
    assert unused_private_definitions(ROOT) == []


def test_every_parameter_default_is_overridden_in_the_package():
    assert PACKAGE.is_dir()
    assert never_overridden_defaults(ROOT) == []
