"""Signatures, contexts, terms, and the category of contexts.

Objects are finite lists of distinct variables; a morphism from a context
``xs`` to a context ``ys`` is a tuple of terms over ``xs``, one per variable
of ``ys``.  Composition is simultaneous substitution.  All values here are
immutable and compared structurally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional


class LangError(Exception):
    """Ill-formed signature, context, term, or morphism."""


# Reserved variable pool x1, x2, ...  Product renaming and fresh-variable
# generation always draw from this sequence, so constructions are functional.
_POOL_RE = re.compile(r"^x([1-9][0-9]*)$")


def pool_var(i: int) -> str:
    """The i-th reserved variable name (1-based)."""
    return f"x{i}"


def fresh_vars(count: int, avoid: Iterable[str]) -> list[str]:
    """First `count` pool names not in `avoid`, in pool order."""
    taken = set(avoid)
    out: list[str] = []
    i = 1
    while len(out) < count:
        v = pool_var(i)
        if v not in taken:
            out.append(v)
            taken.add(v)
        i += 1
    return out


@dataclass(frozen=True)
class PredicateFamily:
    """An infinite predicate family: one symbol `<prefix><n>` of arity n per n >= 0."""

    prefix: str = "R"

    def name(self, arity: int) -> str:
        if arity < 0:
            raise LangError("arity must be >= 0")
        return f"{self.prefix}{arity}"

    def arity_of(self, name: str) -> Optional[int]:
        if name.startswith(self.prefix):
            rest = name[len(self.prefix):]
            if rest.isdigit() and (rest == "0" or not rest.startswith("0")):
                return int(rest)
        return None


@dataclass(frozen=True)
class Signature:
    """Function and predicate symbols with arities.

    `families` lets a signature carry infinitely many predicate symbols by
    rule (one symbol of every arity, named deterministically).
    """

    functions: tuple[tuple[str, int], ...] = ()
    predicates: tuple[tuple[str, int], ...] = ()
    has_equality: bool = False
    families: tuple[PredicateFamily, ...] = ()

    def __post_init__(self):
        for kind, syms in (("function", self.functions), ("predicate", self.predicates)):
            names = [n for n, _ in syms]
            if len(names) != len(set(names)):
                raise LangError(f"duplicate {kind} symbol names")
            for n, a in syms:
                if a < 0:
                    raise LangError(f"negative arity for {kind} symbol {n}")

    def function_arity(self, name: str) -> Optional[int]:
        for n, a in self.functions:
            if n == name:
                return a
        return None

    def predicate_arity(self, name: str) -> Optional[int]:
        for n, a in self.predicates:
            if n == name:
                return a
        for fam in self.families:
            a = fam.arity_of(name)
            if a is not None:
                return a
        return None

    def constants(self) -> list[str]:
        return [n for n, a in self.functions if a == 0]


@dataclass(frozen=True)
class Context:
    """An ordered list of pairwise-distinct variable names."""

    vars: tuple[str, ...] = ()

    def __post_init__(self):
        if len(set(self.vars)) != len(self.vars):
            raise LangError(f"duplicate variables in context {self.vars}")

    def __len__(self) -> int:
        return len(self.vars)

    def __contains__(self, v: str) -> bool:
        return v in self.vars

    def __iter__(self):
        return iter(self.vars)

    def index(self, v: str) -> int:
        return self.vars.index(v)

    def extended(self, v: str) -> "Context":
        if v in self.vars:
            raise LangError(f"variable {v} already in context {self.vars}")
        return Context(self.vars + (v,))


def canonical_context(n: int) -> Context:
    """The n-variable context (x1, ..., xn)."""
    return Context(tuple(pool_var(i) for i in range(1, n + 1)))


class Term:
    """A variable or a function symbol applied to terms."""

    __slots__ = ()

    def variables(self) -> frozenset[str]:
        raise NotImplementedError

    def depth(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Var(Term):
    name: str

    def variables(self) -> frozenset[str]:
        return frozenset((self.name,))

    def depth(self) -> int:
        return 0

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class App(Term):
    symbol: str
    args: tuple[Term, ...] = ()

    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for a in self.args:
            out |= a.variables()
        return out

    def depth(self) -> int:
        return 1 + max((a.depth() for a in self.args), default=0)

    def __repr__(self):
        if not self.args:
            return self.symbol
        return f"{self.symbol}({', '.join(map(repr, self.args))})"


def check_term(t: Term, sig: Signature, ctx: Optional[Context] = None) -> None:
    """Validate arities and (optionally) that all variables lie in `ctx`."""
    if isinstance(t, Var):
        if ctx is not None and t.name not in ctx:
            raise LangError(f"unbound variable {t.name} for context {ctx.vars}")
        return
    assert isinstance(t, App)
    arity = sig.function_arity(t.symbol)
    if arity is None:
        raise LangError(f"unknown function symbol {t.symbol}")
    if arity != len(t.args):
        raise LangError(f"{t.symbol} expects {arity} arguments, got {len(t.args)}")
    for a in t.args:
        check_term(a, sig, ctx)


@dataclass(frozen=True)
class CtxMorphism:
    """A tuple of terms over `source`, one per variable of `target`."""

    source: Context
    target: Context
    components: tuple[Term, ...]

    def __post_init__(self):
        if len(self.components) != len(self.target):
            raise LangError(
                f"{len(self.components)} components for target of length {len(self.target)}"
            )
        for t in self.components:
            extra = t.variables() - set(self.source.vars)
            if extra:
                raise LangError(f"component {t!r} uses variables {sorted(extra)} outside source")

    def component_for(self, v: str) -> Term:
        return self.components[self.target.index(v)]

    def __repr__(self):
        return f"({', '.join(map(repr, self.components))}) : {self.source.vars} -> {self.target.vars}"


def identity_morphism(ctx: Context) -> CtxMorphism:
    return CtxMorphism(ctx, ctx, tuple(Var(v) for v in ctx))


def substitute_term(t: Term, f: CtxMorphism) -> Term:
    """Simultaneously replace each variable of `t` by its component under `f`.

    `t` must be a term over target(f); the result is a term over source(f).
    """
    if isinstance(t, Var):
        if t.name not in f.target:
            raise LangError(f"variable {t.name} not bound by morphism into {f.target.vars}")
        return f.component_for(t.name)
    assert isinstance(t, App)
    return App(t.symbol, tuple(substitute_term(a, f) for a in t.args))


def compose_ctx(g: CtxMorphism, f: CtxMorphism) -> CtxMorphism:
    """g after f: substitute f's components into g's components."""
    if f.target != g.source:
        raise LangError(
            f"cannot compose: target {f.target.vars} differs from source {g.source.vars}"
        )
    return CtxMorphism(f.source, g.target, tuple(substitute_term(c, f) for c in g.components))


def product_ctx(a: Context, b: Context) -> tuple[Context, CtxMorphism, CtxMorphism]:
    """Chosen product of two contexts, with projections.

    The result concatenates `a` with a copy of `b`; a variable of `b` that
    clashes with an already-used name is renamed to the first free name of
    the reserved pool.  The choice is deterministic.
    """
    used = list(a.vars)
    renamed: list[str] = []
    for v in b.vars:
        if v in used:
            v = fresh_vars(1, used)[0]
        used.append(v)
        renamed.append(v)
    prod = Context(tuple(a.vars) + tuple(renamed))
    pr1 = CtxMorphism(prod, a, tuple(Var(v) for v in a.vars))
    pr2 = CtxMorphism(prod, b, tuple(Var(v) for v in renamed))
    return prod, pr1, pr2


def pairing(f: CtxMorphism, g: CtxMorphism) -> CtxMorphism:
    """The unique morphism into product_ctx(target(f), target(g)) projecting to f and g."""
    if f.source != g.source:
        raise LangError("pairing requires a common source")
    prod, _, _ = product_ctx(f.target, g.target)
    return CtxMorphism(f.source, prod, f.components + g.components)
