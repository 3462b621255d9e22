"""Every module of the package uses each name it imports, except names it
re-exports explicitly in the `import name as name` form; and every
top-level function, class and method of the package is referenced from
outside its own body somewhere in the sources, tests or bench."""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "doctrina"


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


def name_uses(tree: ast.AST) -> Counter:
    """How often each name is read, as a variable or as an attribute."""
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
    return uses


def definitions(tree: ast.Module) -> list[ast.AST]:
    """The top-level functions and classes and the methods of those classes;
    dunder methods are called by the language, not by name."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node)
        if isinstance(node, ast.ClassDef):
            out += [
                m for m in node.body
                if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__"))
            ]
    return out


def unreferenced_definitions(sources: dict[str, str], package: set[str]) -> list[str]:
    """The definitions of the `package` files whose name is read nowhere in
    `sources` outside their own body.  Imports are not reads, so an export
    from `__init__.py` does not count."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    uses: Counter = Counter()
    for tree in trees.values():
        uses += name_uses(tree)
    return sorted(
        f"{name}:{d.name}"
        for name in package
        for d in definitions(trees[name])
        if uses[d.name] == name_uses(d)[d.name]
    )


def test_every_definition_is_referenced():
    files = [p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")]
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in files}
    package = {name for name in sources if name.startswith("src/doctrina/") and not name.endswith("__init__.py")}
    assert len(package) > 10
    assert unreferenced_definitions(sources, package) == []


def test_the_check_sees_unreferenced_definitions():
    sources = {
        "pkg.py": (
            "class A:\n"
            "    def used(self): return self.unused_method\n"
            "    def unused_method(self): return 1\n"
            "    def __repr__(self): return 'A'\n"
            "    def recursive(self): return self.recursive()\n"
            "def f(n): return f(n - 1)\n"
            "def g(): return A().used()\n"
        ),
        "test_pkg.py": "from pkg import g, f\nassert g()\n",
        "__init__.py": "from .pkg import f\n",
    }
    assert unreferenced_definitions(sources, {"pkg.py"}) == ["pkg.py:f", "pkg.py:recursive"]
