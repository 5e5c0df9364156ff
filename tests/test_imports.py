"""Every module-level import in the package and its tests is used."""

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

