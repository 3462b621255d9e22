"""First-order formulas in context.

Formulas are immutable trees over predicate and equality atoms with the
connectives top, bottom, not, and, or, imp and the two quantifiers.  Bound
variables are kept rectified (pairwise distinct, distinct from free
variables); alpha-equivalence is the working notion of formula equality,
with structural equality used only after canonical renaming.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .lang import (
    App,
    Context,
    CtxMorphism,
    Signature,
    Term,
    Var,
    check_term,
    fresh_vars,
)


class FormulaError(Exception):
    pass


class Formula:
    __slots__ = ()


def _node(cls):
    """`@dataclass(frozen=True)` that keeps its hash on the node after first
    use, as `free_vars` and `canonical_form` keep theirs, so dict lookups do
    not re-hash the whole tree.  Equality stays field-wise."""
    cls = dataclass(frozen=True)(cls)
    field_hash = cls.__hash__

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    return cls


@_node
class Pred(Formula):
    name: str
    args: tuple[Term, ...] = ()

    def __repr__(self):
        if not self.args:
            return self.name
        return f"{self.name}({', '.join(map(repr, self.args))})"


@_node
class Eq(Formula):
    left: Term
    right: Term

    def __repr__(self):
        return f"{self.left!r} = {self.right!r}"


@_node
class Top(Formula):
    def __repr__(self):
        return "true"


@_node
class Bot(Formula):
    def __repr__(self):
        return "false"


@_node
class Not(Formula):
    body: Formula

    def __repr__(self):
        return f"not({self.body!r})"


@_node
class And(Formula):
    left: Formula
    right: Formula

    def __repr__(self):
        return f"({self.left!r} and {self.right!r})"


@_node
class Or(Formula):
    left: Formula
    right: Formula

    def __repr__(self):
        return f"({self.left!r} or {self.right!r})"


@_node
class Imp(Formula):
    left: Formula
    right: Formula

    def __repr__(self):
        return f"({self.left!r} -> {self.right!r})"


@_node
class Forall(Formula):
    var: str
    body: Formula

    def __repr__(self):
        return f"forall {self.var}. {self.body!r}"


@_node
class Exists(Formula):
    var: str
    body: Formula

    def __repr__(self):
        return f"exists {self.var}. {self.body!r}"


TOP = Top()
BOT = Bot()

_BINARY = (And, Or, Imp)
_QUANT = (Forall, Exists)


def iff(a: Formula, b: Formula) -> Formula:
    """Bi-implication sugar: (a -> b) and (b -> a)."""
    return And(Imp(a, b), Imp(b, a))


def conj(parts: Iterable[Formula]) -> Formula:
    """Right-nested conjunction; empty conjunction is top."""
    parts = list(parts)
    if not parts:
        return TOP
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = And(p, out)
    return out


def disj(parts: Iterable[Formula]) -> Formula:
    parts = list(parts)
    if not parts:
        return BOT
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Or(p, out)
    return out


def free_vars(phi: Formula) -> frozenset[str]:
    cached = getattr(phi, "_free_vars", None)
    if cached is not None:
        return cached
    if isinstance(phi, Pred):
        out: frozenset[str] = frozenset()
        for a in phi.args:
            out |= a.variables()
    elif isinstance(phi, Eq):
        out = phi.left.variables() | phi.right.variables()
    elif isinstance(phi, (Top, Bot)):
        out = frozenset()
    elif isinstance(phi, Not):
        out = free_vars(phi.body)
    elif isinstance(phi, _BINARY):
        out = free_vars(phi.left) | free_vars(phi.right)
    elif isinstance(phi, _QUANT):
        out = free_vars(phi.body) - {phi.var}
    else:
        raise FormulaError(f"not a formula: {phi!r}")
    object.__setattr__(phi, "_free_vars", out)
    return out


def all_vars(phi: Formula) -> frozenset[str]:
    """Every variable name occurring, free or bound."""
    if isinstance(phi, Pred):
        out: frozenset[str] = frozenset()
        for a in phi.args:
            out |= a.variables()
        return out
    if isinstance(phi, Eq):
        return phi.left.variables() | phi.right.variables()
    if isinstance(phi, (Top, Bot)):
        return frozenset()
    if isinstance(phi, Not):
        return all_vars(phi.body)
    if isinstance(phi, _BINARY):
        return all_vars(phi.left) | all_vars(phi.right)
    if isinstance(phi, _QUANT):
        return all_vars(phi.body) | {phi.var}
    raise FormulaError(f"not a formula: {phi!r}")


def size(phi: Formula) -> int:
    """Tree size: atoms count one, each connective or binder adds one."""
    if isinstance(phi, (Pred, Eq, Top, Bot)):
        return 1
    if isinstance(phi, Not):
        return 1 + size(phi.body)
    if isinstance(phi, _BINARY):
        return 1 + size(phi.left) + size(phi.right)
    if isinstance(phi, _QUANT):
        return 1 + size(phi.body)
    raise FormulaError(f"not a formula: {phi!r}")


def is_quantifier_free(phi: Formula) -> bool:
    if isinstance(phi, (Pred, Eq, Top, Bot)):
        return True
    if isinstance(phi, Not):
        return is_quantifier_free(phi.body)
    if isinstance(phi, _BINARY):
        return is_quantifier_free(phi.left) and is_quantifier_free(phi.right)
    return False


def _rename_term(t: Term, env: dict[str, str]) -> Term:
    if isinstance(t, Var):
        return Var(env.get(t.name, t.name))
    assert isinstance(t, App)
    return App(t.symbol, tuple(_rename_term(a, env) for a in t.args))


def _map_terms(phi: Formula, env: dict[str, str]) -> Formula:
    if isinstance(phi, Pred):
        return Pred(phi.name, tuple(_rename_term(a, env) for a in phi.args))
    assert isinstance(phi, Eq)
    return Eq(_rename_term(phi.left, env), _rename_term(phi.right, env))


def canonical_form(phi: Formula) -> Formula:
    """Rename bound variables to pool names in binder-encounter order.

    Two formulas are alpha-equivalent iff their canonical forms are equal;
    the pool names are chosen to avoid the free variables, so the canonical
    form only depends on the alpha-class.  Kept on the node after the first
    call: formulas are immutable and this sits on the prover's hot path.
    """
    cached = getattr(phi, "_canonical", None)
    if cached is not None:
        return cached
    supply = iter(fresh_vars(size(phi), free_vars(phi)))

    def walk(f: Formula, env: dict[str, str]) -> Formula:
        if isinstance(f, (Pred, Eq)):
            return _map_terms(f, env)
        if isinstance(f, (Top, Bot)):
            return f
        if isinstance(f, Not):
            return Not(walk(f.body, env))
        if isinstance(f, _BINARY):
            return type(f)(walk(f.left, env), walk(f.right, env))
        if isinstance(f, _QUANT):
            nv = next(supply)
            return type(f)(nv, walk(f.body, {**env, f.var: nv}))
        raise FormulaError(f"not a formula: {f!r}")

    out = walk(phi, {})
    object.__setattr__(phi, "_canonical", out)
    return out


def alpha_eq(a: Formula, b: Formula) -> bool:
    return a is b or canonical_form(a) == canonical_form(b)


def rectify(phi: Formula, avoid: Iterable[str] = ()) -> Formula:
    """An alpha-variant with bound variables pairwise distinct and distinct
    from the free variables and from `avoid`.  Existing names are kept when
    already admissible, so rectification is idempotent."""
    occupied = set(all_vars(phi)) | set(avoid)
    forbidden = set(free_vars(phi)) | set(avoid)

    def walk(f: Formula, env: dict[str, str]) -> Formula:
        if isinstance(f, (Pred, Eq)):
            return _map_terms(f, env)
        if isinstance(f, (Top, Bot)):
            return f
        if isinstance(f, Not):
            return Not(walk(f.body, env))
        if isinstance(f, _BINARY):
            return type(f)(walk(f.left, env), walk(f.right, env))
        if isinstance(f, _QUANT):
            v = f.var
            if v in forbidden:
                nv = fresh_vars(1, occupied | forbidden)[0]
            else:
                nv = v
            occupied.add(nv)
            forbidden.add(nv)
            return type(f)(nv, walk(f.body, {**env, v: nv}))
        raise FormulaError(f"not a formula: {f!r}")

    return walk(phi, {})


def is_rectified(phi: Formula) -> bool:
    free = free_vars(phi)
    seen: set[str] = set()

    def walk(f: Formula) -> bool:
        if isinstance(f, (Pred, Eq, Top, Bot)):
            return True
        if isinstance(f, Not):
            return walk(f.body)
        if isinstance(f, _BINARY):
            return walk(f.left) and walk(f.right)
        if isinstance(f, _QUANT):
            if f.var in free or f.var in seen:
                return False
            seen.add(f.var)
            return walk(f.body)
        raise FormulaError(f"not a formula: {f!r}")

    return walk(phi)


def substitute(phi: Formula, subst: dict[str, Term], avoid: Iterable[str] = ()) -> Formula:
    """Capture-avoiding simultaneous substitution of free variables.

    Bound variables clashing with `avoid` or with variables of the
    substituted terms are renamed from the reserved pool.
    """
    range_vars: set[str] = set()
    for t in subst.values():
        range_vars |= t.variables()
    blocked = set(avoid) | range_vars | set(all_vars(phi)) | set(subst)

    def walk(f: Formula, env: dict[str, Term]) -> Formula:
        if isinstance(f, Pred):
            return Pred(f.name, tuple(_subst_term(a, env) for a in f.args))
        if isinstance(f, Eq):
            return Eq(_subst_term(f.left, env), _subst_term(f.right, env))
        if isinstance(f, (Top, Bot)):
            return f
        if isinstance(f, Not):
            return Not(walk(f.body, env))
        if isinstance(f, _BINARY):
            return type(f)(walk(f.left, env), walk(f.right, env))
        if isinstance(f, _QUANT):
            v = f.var
            if v in blocked:
                nv = fresh_vars(1, blocked)[0]
            else:
                nv = v
            blocked.add(nv)
            return type(f)(nv, walk(f.body, {**env, v: Var(nv)}))
        raise FormulaError(f"not a formula: {f!r}")

    def _subst_term(t: Term, env: dict[str, Term]) -> Term:
        if isinstance(t, Var):
            return env.get(t.name, t)
        assert isinstance(t, App)
        return App(t.symbol, tuple(_subst_term(a, env) for a in t.args))

    return walk(phi, dict(subst))


@dataclass(frozen=True)
class FormulaInContext:
    """A formula together with a context covering its free variables."""

    formula: Formula
    context: Context

    def __post_init__(self):
        extra = free_vars(self.formula) - set(self.context.vars)
        if extra:
            raise FormulaError(
                f"free variables {sorted(extra)} not in context {self.context.vars}"
            )

    def __repr__(self):
        return f"{self.formula!r} : {self.context.vars}"


def substitute_formula(fic: FormulaInContext, f: CtxMorphism) -> FormulaInContext:
    """Reindex a formula-in-context along a context morphism."""
    if fic.context != f.target:
        raise FormulaError(
            f"context {fic.context.vars} does not match morphism target {f.target.vars}"
        )
    mapping = {v: f.component_for(v) for v in fic.context.vars}
    out = substitute(fic.formula, mapping, avoid=f.source.vars)
    return FormulaInContext(out, f.source)


def check_formula(phi: Formula, sig: Signature, ctx: Optional[Context] = None) -> None:
    """Validate predicate arities, equality usage, and free variables."""
    if isinstance(phi, Pred):
        arity = sig.predicate_arity(phi.name)
        if arity is None:
            raise FormulaError(f"unknown predicate symbol {phi.name}")
        if arity != len(phi.args):
            raise FormulaError(f"{phi.name} expects {arity} arguments, got {len(phi.args)}")
        for a in phi.args:
            check_term(a, sig, ctx)
        return
    if isinstance(phi, Eq):
        if not sig.has_equality:
            raise FormulaError("equality atom in a signature without equality")
        check_term(phi.left, sig, ctx)
        check_term(phi.right, sig, ctx)
        return
    if isinstance(phi, (Top, Bot)):
        return
    if isinstance(phi, Not):
        check_formula(phi.body, sig, ctx)
        return
    if isinstance(phi, _BINARY):
        check_formula(phi.left, sig, ctx)
        check_formula(phi.right, sig, ctx)
        return
    if isinstance(phi, _QUANT):
        inner = None if ctx is None else (
            ctx if phi.var in ctx else ctx.extended(phi.var)
        )
        check_formula(phi.body, sig, inner)
        return
    raise FormulaError(f"not a formula: {phi!r}")


def qa_depth(phi: Formula) -> int:
    """Quantifier alternation depth.

    Boolean connectives are transparent; a maximal run of one quantifier
    counts as a single block, so the depth of a quantified formula is one
    more than the depth of the body left after stripping the whole leading
    block.
    """
    if isinstance(phi, (Pred, Eq, Top, Bot)):
        return 0
    if isinstance(phi, Not):
        return qa_depth(phi.body)
    if isinstance(phi, _BINARY):
        return max(qa_depth(phi.left), qa_depth(phi.right))
    if isinstance(phi, _QUANT):
        kind = type(phi)
        core: Formula = phi
        while isinstance(core, kind):
            core = core.body
        return 1 + qa_depth(core)
    raise FormulaError(f"not a formula: {phi!r}")


def in_syntactic_layer(phi: Formula, n: int) -> bool:
    return qa_depth(phi) <= n


# --- quantifier-free normal forms -----------------------------------------

Clause = tuple[tuple[Formula, ...], tuple[Formula, ...]]


def atoms_of(phi: Formula) -> list[Formula]:
    """The distinct atoms of a quantifier-free formula, in a fixed order."""
    seen: dict[Formula, None] = {}

    def walk(f: Formula):
        if isinstance(f, (Pred, Eq)):
            seen.setdefault(f)
        elif isinstance(f, (Top, Bot)):
            pass
        elif isinstance(f, Not):
            walk(f.body)
        elif isinstance(f, _BINARY):
            walk(f.left)
            walk(f.right)
        else:
            raise FormulaError(f"not quantifier-free: {f!r}")

    walk(phi)
    return sorted(seen, key=repr)


def eval_prop(phi: Formula, valuation: dict[Formula, bool]) -> bool:
    """Evaluate a quantifier-free formula under a truth assignment of its atoms."""
    if isinstance(phi, (Pred, Eq)):
        return valuation[phi]
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Bot):
        return False
    if isinstance(phi, Not):
        return not eval_prop(phi.body, valuation)
    if isinstance(phi, And):
        return eval_prop(phi.left, valuation) and eval_prop(phi.right, valuation)
    if isinstance(phi, Or):
        return eval_prop(phi.left, valuation) or eval_prop(phi.right, valuation)
    if isinstance(phi, Imp):
        return (not eval_prop(phi.left, valuation)) or eval_prop(phi.right, valuation)
    raise FormulaError(f"not quantifier-free: {phi!r}")


def truth_table(phi: Formula, atoms: Optional[list[Formula]] = None) -> tuple[list[Formula], list[bool]]:
    """All valuations of `atoms` (default: the formula's own), with truth values."""
    if atoms is None:
        atoms = atoms_of(phi)
    rows = []
    for bits in itertools.product((False, True), repeat=len(atoms)):
        rows.append(eval_prop(phi, dict(zip(atoms, bits))))
    return atoms, rows


def prop_equivalent(a: Formula, b: Formula) -> bool:
    """Truth-table equivalence of two quantifier-free formulas."""
    atoms = sorted(set(atoms_of(a)) | set(atoms_of(b)), key=repr)
    for bits in itertools.product((False, True), repeat=len(atoms)):
        val = dict(zip(atoms, bits))
        if eval_prop(a, val) != eval_prop(b, val):
            return False
    return True


def prop_tautology(phi: Formula) -> bool:
    _, rows = truth_table(phi)
    return all(rows)


def to_dnf(phi: Formula) -> list[Clause]:
    """All prime implicants of a quantifier-free formula, sorted.

    The result is the Blake canonical form: a disjunction of clauses, each a
    pair (positive literals, negative literals), truth-table equivalent to
    the input.  A tautology yields the single empty clause; an inconsistency
    yields the empty list.  Computed by Quine-McCluskey merging of minterms.
    """
    if not is_quantifier_free(phi):
        raise FormulaError(f"to_dnf requires a quantifier-free formula: {phi!r}")
    atoms = atoms_of(phi)
    n = len(atoms)
    # minterm m assigns atom j the truth value of bit j of m
    minterms = [
        m for m in range(1 << n)
        if eval_prop(phi, {atoms[j]: bool((m >> j) & 1) for j in range(n)})
    ]
    if not minterms:
        return []
    if len(minterms) == (1 << n):
        return [((), ())]

    # implicants are (care_mask, values); merge pairs differing on one cared bit
    level = {(((1 << n) - 1), m) for m in minterms}
    primes: set[tuple[int, int]] = set()
    while level:
        merged: set[tuple[int, int]] = set()
        used: set[tuple[int, int]] = set()
        items = sorted(level)
        for i, (mask_a, val_a) in enumerate(items):
            for mask_b, val_b in items[i + 1:]:
                if mask_a != mask_b:
                    continue
                diff = val_a ^ val_b
                if diff and (diff & (diff - 1)) == 0 and (mask_a & diff):
                    merged.add((mask_a & ~diff, val_a & ~diff))
                    used.add((mask_a, val_a))
                    used.add((mask_b, val_b))
        primes |= level - used
        level = merged

    clauses: list[Clause] = []
    for mask, val in sorted(primes):
        pos = tuple(atoms[i] for i in range(n) if (mask >> i) & 1 and (val >> i) & 1)
        neg = tuple(atoms[i] for i in range(n) if (mask >> i) & 1 and not (val >> i) & 1)
        clauses.append((pos, neg))
    clauses.sort(key=lambda c: (tuple(map(repr, c[0])), tuple(map(repr, c[1]))))
    return clauses


def clause_formula(clause: Clause) -> Formula:
    pos, neg = clause
    return conj(list(pos) + [Not(a) for a in neg])


def dnf_formula(clauses: list[Clause]) -> Formula:
    return disj(clause_formula(c) for c in clauses)
