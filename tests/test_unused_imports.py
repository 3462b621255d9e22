"""Every module of the package uses each name it imports, except names it
re-exports explicitly in the `import name as name` form."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "doctrina"


def referenced_names(tree: ast.AST) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # quoted annotations such as tuple["ProofTree", ...]
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            imported += [
                (alias.asname or alias.name).split(".")[0]
                for alias in node.names
                if alias.asname != alias.name
            ]
    used = referenced_names(tree)
    return sorted(name for name in imported if name not in used)


def test_every_imported_name_is_used():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_the_check_sees_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import itertools, os.path\n"
        "from typing import Optional, Sequence\n"
        "from typing import Callable as Callable\n"
        "def f(x: Optional[int]) -> 'Sequence[int]':\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["itertools"]
