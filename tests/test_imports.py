"""Every module-level import in the package and its tests is used, and every private module name is read."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing reads.

    A name counts as used when the module reads it anywhere or lists it in
    ``__all__``. ``from __future__`` imports bind no name.
    """
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_module_imports():
    files = sorted((ROOT / "src" / "lidarpcc").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 10
    unused = {}
    for path in files:
        names = _unused_imports(path.read_text(encoding="utf-8"))
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert unused == {}


def _private_bindings(source: str) -> dict[str, int]:
    """Private names a module binds at its top level: ``_x = …``, ``_x: T = …``, ``def _f``, ``class _C``.

    Names unpacked from a tuple are left out: they may hold a place, as in
    ``kernel``'s list of the C kernel's error codes.
    """
    bound = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound.setdefault(name, node.lineno)
    return bound


def _read_names(source: str) -> set[str]:
    """Every name a module reads: bare names, attributes and names it imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_private_module_name_is_read():
    package = sorted((ROOT / "src" / "lidarpcc").glob("*.py"))
    readers = package + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    read = set().union(*(_read_names(path.read_text(encoding="utf-8")) for path in readers))
    unread = {}
    for path in package:
        bound = _private_bindings(path.read_text(encoding="utf-8"))
        names = [f"line {line}: {name}" for name, line in bound.items() if name not in read]
        if names:
            unread[str(path.relative_to(ROOT))] = names
    assert unread == {}
