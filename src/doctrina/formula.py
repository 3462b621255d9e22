"""First-order formulas in context.

Formulas are immutable trees over predicate and equality atoms with the
connectives top, bottom, not, and, or, imp and the two quantifiers.  Bound
variables are kept rectified (pairwise distinct, distinct from free
variables); alpha-equivalence is the working notion of formula equality,
with structural equality used only after canonical renaming.

Two mechanisms carry the module.  `_rebind` is the one walk that renames
binders: `canonical_form`, `rectify` and `substitute` each pass it only
their naming rule.  `subformulas` is an iterative pre-order iterator, and
the folds (`size`, `all_vars`, `is_quantifier_free`, `atoms_of`,
`symbols_of`) loop over it, so they work on formulas of any depth.

Nodes keep what is derived from them: their hash, free variables, canonical
form and, once asked for, the symbols they use (`symbols_of`).  A formula
without binders is its own canonical form, so `canonical_form` returns it
unbuilt and marks it with the sentinel `_SELF` instead of a reference to
itself, which would leave every atom as cyclic garbage.  A formula with
binders draws one pool name per binder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .lang import (
    Context,
    CtxMorphism,
    Term,
    Var,
    fresh_vars,
    functions_of,
    subst_term,
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

# the `_canonical` of a formula that is its own canonical form
_SELF = object()


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


def subformulas(phi: Formula) -> Iterator[Formula]:
    """Every subformula occurrence of `phi` in pre-order, left to right.

    Iterative, with an explicit stack, so the folds built on it do not run
    out of Python frames on deep formulas."""
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, (Not, Forall, Exists)):
            stack.append(f.body)
        elif isinstance(f, _BINARY):
            stack += (f.right, f.left)
        elif not isinstance(f, (Pred, Eq, Top, Bot)):
            raise FormulaError(f"not a formula: {f!r}")
        yield f


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


def symbols_of(phi: Formula) -> tuple[frozenset[tuple[str, int]], frozenset[tuple[str, int]], bool]:
    """The predicates and the function symbols of `phi`, each with its
    arity, and whether `=` occurs, from one walk kept on the node."""
    cached = getattr(phi, "_symbols", None)
    if cached is None:
        preds, terms, eq = set(), [], False
        for f in subformulas(phi):
            if isinstance(f, Pred):
                preds.add((f.name, len(f.args)))
                terms += f.args
            elif isinstance(f, Eq):
                terms += (f.left, f.right)
                eq = True
        cached = (frozenset(preds), frozenset(functions_of(terms)), eq)
        object.__setattr__(phi, "_symbols", cached)
    return cached


def all_vars(phi: Formula) -> frozenset[str]:
    """Every variable name occurring, free or bound."""
    out: set[str] = set()
    for f in subformulas(phi):
        if isinstance(f, _QUANT):
            out.add(f.var)
        elif isinstance(f, (Pred, Eq)):
            out |= free_vars(f)
    return frozenset(out)


def size(phi: Formula) -> int:
    """Tree size: atoms count one, each connective or binder adds one."""
    return sum(1 for _ in subformulas(phi))


def is_quantifier_free(phi: Formula) -> bool:
    return not any(isinstance(f, _QUANT) for f in subformulas(phi))


def _rebind(phi: Formula, env: dict[str, Term], binder: Callable[[str], str]) -> Formula:
    """Substitute `env` into the atoms and rename each binder to
    `binder(old_name)`, called once per binder in pre-order, left to right.

    The one binder-renaming walk: `canonical_form`, `rectify` and
    `substitute` differ only in the naming rule they pass as `binder`."""
    if isinstance(phi, Pred):
        return Pred(phi.name, tuple(subst_term(a, env) for a in phi.args))
    if isinstance(phi, Eq):
        return Eq(subst_term(phi.left, env), subst_term(phi.right, env))
    if isinstance(phi, (Top, Bot)):
        return phi
    if isinstance(phi, Not):
        return Not(_rebind(phi.body, env, binder))
    if isinstance(phi, _BINARY):
        return type(phi)(_rebind(phi.left, env, binder), _rebind(phi.right, env, binder))
    if isinstance(phi, _QUANT):
        nv = binder(phi.var)
        return type(phi)(nv, _rebind(phi.body, {**env, phi.var: Var(nv)}, binder))
    raise FormulaError(f"not a formula: {phi!r}")


def _keep_unless(forbidden: set[str], occupied: set[str]) -> Callable[[str], str]:
    """Binder rule: keep a name unless it is forbidden, otherwise take the
    first pool name not occupied; the chosen name is then forbidden too."""

    def binder(v: str) -> str:
        nv = fresh_vars(1, occupied)[0] if v in forbidden else v
        forbidden.add(nv)
        occupied.add(nv)
        return nv

    return binder


def canonical_form(phi: Formula) -> Formula:
    """Rename bound variables to pool names in binder-encounter order.

    Two formulas are alpha-equivalent iff their canonical forms are equal;
    the pool names are chosen to avoid the free variables, so the canonical
    form only depends on the alpha-class.  Kept on the node after the first
    call: formulas are immutable and this sits on the prover's hot path.
    A formula without binders is returned as it is.
    """
    cached = getattr(phi, "_canonical", None)
    if cached is not None:
        return phi if cached is _SELF else cached
    binders = sum(isinstance(f, _QUANT) for f in subformulas(phi))
    if not binders:
        object.__setattr__(phi, "_canonical", _SELF)
        return phi
    supply = iter(fresh_vars(binders, free_vars(phi)))
    out = _rebind(phi, {}, lambda _: next(supply))
    object.__setattr__(phi, "_canonical", out)
    return out


def alpha_eq(a: Formula, b: Formula) -> bool:
    return a is b or canonical_form(a) == canonical_form(b)


def rectify(phi: Formula, avoid: Iterable[str] = ()) -> Formula:
    """An alpha-variant with bound variables pairwise distinct and distinct
    from the free variables and from `avoid`.  Existing names are kept when
    already admissible, so rectification is idempotent."""
    forbidden = set(free_vars(phi)) | set(avoid)
    return _rebind(phi, {}, _keep_unless(forbidden, set(all_vars(phi)) | forbidden))


def substitute(phi: Formula, subst: dict[str, Term], avoid: Iterable[str] = ()) -> Formula:
    """Capture-avoiding simultaneous substitution of free variables.

    Every bound variable is renamed from the reserved pool, clashing or
    not: the names to avoid include all variables of `phi`, its own binders
    among them, so `substitute(forall y. P(y), {x: z})` gives
    `forall x1. P(x1)`.
    """
    blocked = set(avoid) | set(all_vars(phi)) | set(subst)
    for t in subst.values():
        blocked |= t.variables()
    return _rebind(phi, dict(subst), _keep_unless(blocked, blocked))


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


# --- quantifier-free normal forms -----------------------------------------

Clause = tuple[tuple[Formula, ...], tuple[Formula, ...]]


def atoms_of(phi: Formula) -> list[Formula]:
    """The distinct atoms of a quantifier-free formula, in a fixed order."""
    seen: dict[Formula, None] = {}
    for f in subformulas(phi):
        if isinstance(f, _QUANT):
            raise FormulaError(f"not quantifier-free: {f!r}")
        if isinstance(f, (Pred, Eq)):
            seen.setdefault(f)
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
