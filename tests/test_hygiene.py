"""Source hygiene: no module of the package, the tests or the scripts
imports a name it never uses, and no module of the package imports a
private name from another."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return ["%s:%d %s" % (path.relative_to(ROOT), line, name)
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    paths = [p for d in ("src/qforge", "tests", "scripts")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert paths
    assert [u for p in paths for u in unused_imports(p)] == []


def private_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    return ["%s:%d %s" % (path.relative_to(ROOT), node.lineno, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "qforge")
            for alias in node.names if alias.name.startswith("_")]


def test_no_private_imports_across_package_modules():
    paths = sorted((ROOT / "src/qforge").rglob("*.py"))
    assert paths
    assert [u for p in paths for u in private_imports(p)] == []
