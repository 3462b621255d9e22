"""Every module of the package uses each name it imports, except names it
re-exports explicitly in the `import name as name` form; and every
top-level function, class and method of the package is referenced from
outside its own body somewhere in the sources or the bench, or is one of
the paper's constructions that only tests reach."""

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


# The paper's constructions that only tests reach: they are what this repo
# reproduces, so they stay although no caller in the package or the bench
# needs them.
TESTS_ONLY_CONSTRUCTIONS = {
    "category.py": {"terminal_category"},
    "doctrine.py": {
        "change_of_base",
        "derive_exists",
        "embedding_morphism",
        "generated_markings",
        "injectivity_report",
        "quotient_by_filter",
        "subdoctrine_from_markings",
        "subset_doctrine",
        "verify_morphism",
    },
    "lang.py": {"compose_ctx", "identity_morphism", "pairing"},
    "stratify.py": {"colimit", "verify_qa_stratified"},
    "syntactic.py": {
        "is_quantifier_free_modulo",
        "one_step_beck_chevalley",
        "one_step_layer",
        "qa_depth_modulo",
        "sequent_valid",
    },
}


def name_uses(tree: ast.AST) -> tuple[Counter, Counter]:
    """How often each name is read as a variable, and as an attribute."""
    names: Counter = Counter()
    attributes: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
    return names, attributes


def definitions(tree: ast.Module) -> list[tuple[ast.AST, bool]]:
    """The top-level functions and classes and the methods of those classes,
    each with whether it is a method; dunder methods are called by the
    language, not by name."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node, False))
        if isinstance(node, ast.ClassDef):
            out += [
                (m, True) for m in node.body
                if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__"))
            ]
    return out


def reads(uses: tuple[Counter, Counter], name: str, method: bool) -> int:
    """The reads of `name`: a method is read only through an attribute, so
    a local variable of the same name is not a caller."""
    names, attributes = uses
    return attributes[name] + (0 if method else names[name])


def unreferenced_definitions(sources: dict[str, str], package: set[str], allowed: dict[str, set[str]]) -> list[str]:
    """The definitions of the `package` files whose name is read nowhere in
    `sources` outside their own body, less those `allowed` names for their
    file.  Imports are not reads, so an export from `__init__.py` does not
    count."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    uses: tuple[Counter, Counter] = (Counter(), Counter())
    for tree in trees.values():
        names, attributes = name_uses(tree)
        uses[0].update(names)
        uses[1].update(attributes)
    return sorted(
        f"{name}:{d.name}"
        for name in package
        for d, method in definitions(trees[name])
        if reads(uses, d.name, method) == reads(name_uses(d), d.name, method)
        and d.name not in allowed.get(pathlib.PurePath(name).name, ())
    )


def test_every_definition_is_referenced():
    """Reads count in the package and the bench only: code that only a test
    calls is kept for that test alone, unless it is one of the paper's
    constructions."""
    files = [p for d in ("src", "bench") for p in (ROOT / d).rglob("*.py")]
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in files}
    package = {name for name in sources if name.startswith("src/doctrina/") and not name.endswith("__init__.py")}
    assert len(package) > 10
    assert unreferenced_definitions(sources, package, TESTS_ONLY_CONSTRUCTIONS) == []
    defined = {
        pathlib.PurePath(name).name: {d.name for d, _ in definitions(ast.parse(sources[name]))}
        for name in package
    }
    stale = {m: names - defined[m] for m, names in TESTS_ONLY_CONSTRUCTIONS.items() if names - defined[m]}
    assert stale == {}


def test_the_check_sees_unreferenced_definitions():
    sources = {
        "pkg.py": (
            "class A:\n"
            "    def used(self): return self.unused_method\n"
            "    def unused_method(self): return 1\n"
            "    def __repr__(self): return 'A'\n"
            "    def recursive(self): return self.recursive()\n"
            "    def depth(self): return 0\n"
            "def f(n): return f(n - 1)\n"
            "def g(depth=1): return A().used() + depth\n"
            "def tested(): return 1\n"
            "def construction(): return 2\n"
        ),
        "main.py": "from pkg import g\nprint(g())\n",
        "__init__.py": "from .pkg import f\n",
    }
    tests = {"test_pkg.py": "from pkg import tested, construction, f\nassert tested() + construction() + f(0)\n"}
    # counted, a test's read would hide `tested` and `construction`
    assert unreferenced_definitions({**sources, **tests}, {"pkg.py"}, {}) == ["pkg.py:depth", "pkg.py:recursive"]
    # a local `depth` is not a read of the method `A.depth`
    flagged = ["pkg.py:construction", "pkg.py:depth", "pkg.py:f", "pkg.py:recursive", "pkg.py:tested"]
    assert unreferenced_definitions(sources, {"pkg.py"}, {}) == flagged
    # the allowlist keeps a construction that only tests reach
    allowed = {"pkg.py": {"construction"}}
    assert unreferenced_definitions(sources, {"pkg.py"}, allowed) == [n for n in flagged if n != "pkg.py:construction"]


# A method named like a method of a builtin type hides from the check above:
# the builtin's calls, `", ".join(...)` say, count as its reads.  Each such
# method is read by hand and listed here once a caller is found.
BUILTIN_METHOD_NAMES = {
    name
    for t in (str, bytes, int, list, tuple, dict, set, frozenset)
    for name in dir(t)
    if not name.startswith("_") and callable(getattr(t, name))
}
REVIEWED_BUILTIN_NAMED_METHODS = {
    "lang.py:Context.index",  # read in syntactic.py and prefix.py as ctx.index(...)
}


def builtin_named_methods(sources: dict[str, str]) -> list[str]:
    """The methods of the classes of `sources` that share a name with a
    public method of a builtin type."""
    return sorted(
        f"{pathlib.PurePath(name).name}:{cls.name}.{m.name}"
        for name, text in sources.items()
        for cls in ast.parse(text).body
        if isinstance(cls, ast.ClassDef)
        for m in cls.body
        if isinstance(m, ast.FunctionDef) and m.name in BUILTIN_METHOD_NAMES
    )


def test_methods_named_like_builtin_methods_are_reviewed():
    sources = {str(p): p.read_text(encoding="utf-8") for p in PACKAGE.rglob("*.py")}
    assert builtin_named_methods(sources) == sorted(REVIEWED_BUILTIN_NAMED_METHODS)


def test_the_check_sees_methods_named_like_builtin_methods():
    sources = {
        "pkg.py": (
            "class Alg:\n"
            "    def join(self, a, b): return a | b\n"
            "    def join_all(self, xs): return 0\n"
            "    def __len__(self): return 0\n"
            "def join(parts): return ', '.join(parts)\n"
        ),
        "main.py": "print(', '.join(['a']))\n",
    }
    # str.join's call in main.py would count as a read of Alg.join
    assert unreferenced_definitions(sources, {"pkg.py"}, {}) == ["pkg.py:Alg", "pkg.py:join_all"]
    assert builtin_named_methods(sources) == ["pkg.py:Alg.join"]
