"""Proof objects and checker for the classical sequent calculus with contexts,
plus a bounded cut-free backward-chaining prover.

Sequents carry an explicit context of distinct variables containing all free
variables of their formulas.  The quantifier rules move variables in and out
of the context; the empty structure is a model, so e.g. the sequent
``=>_() exists x true`` has no proof.

The checker accepts the displayed rules in a positional form: each logical
rule names the position of its principal formula, with the head/tail
positions recovering the textbook layout.  Cut is checkable but the prover
never searches with it (it only splices theory axioms below a finished
cut-free tree).

Every rule with premises except Cut is written down once, in `premises`:
the checker compares each node's premises with what it returns, and the
prover builds each premise it searches through it.  `_check_node` checks the
six leaf rules and Cut itself.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .lang import App, Context, Signature, Term, Var
from .formula import (
    And,
    Bot,
    Eq,
    Exists,
    Forall,
    Formula,
    Imp,
    Not,
    Or,
    Top,
    alpha_eq,
    canonical_form,
    free_vars,
    rectify,
    substitute,
)


class ProofError(Exception):
    pass


@dataclass(frozen=True)
class Sequent:
    context: Context
    antecedent: tuple[Formula, ...] = ()
    succedent: tuple[Formula, ...] = ()

    def __post_init__(self):
        ctx = set(self.context.vars)
        for phi in self.antecedent + self.succedent:
            if not free_vars(phi) <= ctx:
                extra = free_vars(phi) - ctx
                raise ProofError(
                    f"free variables {sorted(extra)} outside sequent context {self.context.vars}"
                )

    def __repr__(self):
        ants = ", ".join(map(repr, self.antecedent))
        sucs = ", ".join(map(repr, self.succedent))
        return f"{ants} =>_{self.context.vars} {sucs}"


def enlarge_context(s: Sequent, x: str) -> Sequent:
    """Append a fresh variable to the context, keeping the formulas."""
    return Sequent(s.context.extended(x), s.antecedent, s.succedent)


@dataclass(frozen=True)
class Rule:
    """A rule tag with the positional data identifying its principal formulas.

    `pos` is the index of the principal formula in its list; `which` selects
    a conjunct/disjunct; `term`/`term2` are instantiation witnesses; `var`
    names the enlargement or substitution variable; `formula` carries the
    theory sentence or the substitution body.
    """

    tag: str
    pos: int = 0
    which: int = 0
    term: Optional[Term] = None
    term2: Optional[Term] = None
    var: Optional[str] = None
    formula: Optional[Formula] = None

    def __repr__(self):
        extras = []
        if self.tag in _POSITIONAL:
            extras.append(f"pos={self.pos}")
        if self.tag in ("LAnd", "ROr"):
            extras.append(f"which={self.which}")
        if self.term is not None:
            extras.append(f"term={self.term!r}")
        if self.term2 is not None:
            extras.append(f"term2={self.term2!r}")
        if self.var is not None:
            extras.append(f"var={self.var}")
        if self.formula is not None:
            extras.append(f"formula={self.formula!r}")
        inner = ", ".join(extras)
        return f"{self.tag}({inner})" if inner else self.tag


_LEAVES = ("Id", "RTop", "LBot", "EqRefl", "EqSubst", "TheoryAxiom")

_STRUCTURAL = ("LW", "RW", "LC", "RC", "LE", "RE")

# the connective each logical rule decomposes; L rules act on the antecedent
_PRINCIPAL = {
    "LAnd": And, "RAnd": And, "LOr": Or, "ROr": Or, "LNeg": Not, "RNeg": Not,
    "LImp": Imp, "RImp": Imp, "LForall": Forall, "RForall": Forall,
    "LExists": Exists, "RExists": Exists,
}

# the rules whose instances name a position (printed as `pos`)
_POSITIONAL = frozenset(_STRUCTURAL + ("RTop", "LBot") + tuple(_PRINCIPAL))


@dataclass(frozen=True)
class ProofTree:
    conclusion: Sequent
    rule: Rule
    premises: tuple["ProofTree", ...] = ()

    def node_count(self) -> int:
        count, stack = 0, [self]
        while stack:
            count += 1
            stack.extend(stack.pop().premises)
        return count


@dataclass(frozen=True)
class ProofCheck:
    ok: bool
    path: tuple[int, ...] = ()
    reason: str = ""

    def __bool__(self):
        return self.ok


def _lists_alpha_eq(xs: Sequence[Formula], ys: Sequence[Formula]) -> bool:
    if len(xs) != len(ys):
        return False
    return all(alpha_eq(x, y) for x, y in zip(xs, ys))


def _theory_contains(theory, phi: Formula) -> bool:
    if theory is None:
        return False
    if hasattr(theory, "contains_axiom"):
        return theory.contains_axiom(phi)
    return any(alpha_eq(phi, ax) for ax in theory)


def _term_in_context(t: Term, ctx: Context) -> bool:
    return t.variables() <= set(ctx.vars)


def _on_side(c: Sequent, left: bool, formulas: tuple[Formula, ...], ctx: Optional[Context] = None) -> Sequent:
    """`c` with its antecedent (left) or succedent replaced by `formulas`."""
    ctx = c.context if ctx is None else ctx
    if left:
        return Sequent(ctx, formulas, c.succedent)
    return Sequent(ctx, c.antecedent, formulas)


def _instance(phi: Formula, t: Term, ctx: Context) -> Formula:
    """The body of the quantified formula `phi` with the term `t` for its
    bound variable, in context `ctx`.  The last instance is kept on `phi`, as
    formula nodes keep their canonical form, so the prover's duplicate-instance
    check and the premise it then builds share one substitution."""
    last = getattr(phi, "_instance", None)
    if last is not None and last[0] is t and last[1] is ctx:
        return last[2]
    inst = substitute(phi.body, {phi.var: t}, avoid=ctx.vars)
    object.__setattr__(phi, "_instance", (t, ctx, inst))
    return inst


def premises(c: Sequent, r: Rule) -> tuple[Sequent, ...]:
    """The premises, in order, of the instance of rule `r` that concludes `c`.

    This is the one definition of every rule except the leaves and Cut.  A
    side condition that fails raises `ProofError` naming the rule.  The
    premise of AlphaRename is `c` itself: any alpha-variant of it in the
    same context is a valid premise.
    """
    tag, ctx, ant, suc = r.tag, c.context, c.antecedent, c.succedent
    if tag == "AlphaRename":
        return (c,)
    if tag == "CtxEnlarge":
        if r.var is None:
            raise ProofError("CtxEnlarge needs a variable")
        if ctx.vars[-1:] != (r.var,):
            raise ProofError("CtxEnlarge must append exactly the rule's variable")
        if any(r.var in free_vars(phi) for phi in ant + suc):
            raise ProofError(f"CtxEnlarge variable {r.var} occurs free in the formulas")
        return (Sequent(Context(ctx.vars[:-1]), ant, suc),)
    if tag in _LEAVES or tag == "Cut":
        raise ProofError(f"{tag} has no fixed premise shape")
    if tag not in _POSITIONAL:
        raise ProofError(f"unknown rule {tag}")
    left = tag[0] == "L"
    here = ant if left else suc
    i = r.pos
    if not 0 <= i < len(here):
        raise ProofError(f"{tag} position out of range")
    before, after = here[:i], here[i + 1:]
    kind = tag[1:]
    if kind == "W":
        return (_on_side(c, left, before + after),)
    if kind == "C":
        return (_on_side(c, left, here[:i + 1] + here[i:]),)
    if kind == "E":
        if not after:
            raise ProofError(f"{tag} needs two adjacent formulas")
        return (_on_side(c, left, before + (after[0], here[i]) + after[1:]),)
    phi = here[i]
    if not isinstance(phi, _PRINCIPAL[tag]):
        raise ProofError(f"{tag} principal formula has the wrong connective")
    if tag == "LAnd" or tag == "ROr":
        if r.which not in (0, 1):
            raise ProofError(f"{tag} selector must be 0 or 1")
        return (_on_side(c, left, before + (phi.right if r.which else phi.left,) + after),)
    if tag == "RAnd" or tag == "LOr":
        return (
            _on_side(c, left, before + (phi.left,) + after),
            _on_side(c, left, before + (phi.right,) + after),
        )
    if tag == "LNeg":
        return (Sequent(ctx, before + after, suc + (phi.body,)),)
    if tag == "RNeg":
        return (Sequent(ctx, (phi.body,) + ant, before + after),)
    if tag == "LImp":
        return (
            Sequent(ctx, before + after, suc + (phi.left,)),
            Sequent(ctx, (phi.right,) + before + after, suc),
        )
    if tag == "RImp":
        return (Sequent(ctx, (phi.left,) + ant, before + after + (phi.right,)),)
    if tag == "LForall" or tag == "RExists":
        if r.term is None:
            raise ProofError(f"{tag} needs an instantiation term")
        if not _term_in_context(r.term, ctx):
            raise ProofError(f"{tag} witness term has variables outside the context")
        return (_on_side(c, left, before + (_instance(phi, r.term, ctx),) + after),)
    # RForall, LExists: the bound variable joins the context
    if phi.var in ctx:
        raise ProofError(f"{tag} bound variable {phi.var} already occurs in the context")
    return (_on_side(c, left, before + (phi.body,) + after, ctx.extended(phi.var)),)


def _check_node(node: ProofTree, theory, signature: Optional[Signature]) -> Optional[str]:
    """None if the node is a correct rule instance, else the violation."""
    c = node.conclusion
    r = node.rule
    ps = node.premises
    ant, suc = c.antecedent, c.succedent

    if r.tag in _LEAVES and ps:
        return f"{r.tag} expects 0 premises, got {len(ps)}"

    if r.tag == "Id":
        if len(ant) == 1 == len(suc) and alpha_eq(ant[0], suc[0]):
            return None
        return "Id requires a sequent of the form alpha => alpha"

    if r.tag == "RTop":
        if 0 <= r.pos < len(suc) and isinstance(suc[r.pos], Top):
            return None
        return "RTop requires top in the succedent at pos"

    if r.tag == "LBot":
        if 0 <= r.pos < len(ant) and isinstance(ant[r.pos], Bot):
            return None
        return "LBot requires bottom in the antecedent at pos"

    if r.tag == "TheoryAxiom":
        if len(c.context) != 0:
            return "theory axioms are only allowed in the empty context"
        if ant or len(suc) != 1:
            return "theory axiom leaf must be =>_() phi"
        if r.formula is None or not alpha_eq(r.formula, suc[0]):
            return "theory axiom formula does not match the conclusion"
        if not _theory_contains(theory, suc[0]):
            return f"{suc[0]!r} is not an axiom of the theory"
        return None

    if r.tag == "EqRefl":
        if signature is not None and not signature.has_equality:
            return "equality rule in a signature without equality"
        if ant or len(suc) != 1:
            return "EqRefl concludes =>_y t = t"
        t = r.term
        if t is None or not isinstance(suc[0], Eq) or suc[0] != Eq(t, t):
            return "EqRefl conclusion must be t = t for the rule's term"
        if not _term_in_context(t, c.context):
            return "EqRefl term has variables outside the context"
        return None

    if r.tag == "EqSubst":
        if signature is not None and not signature.has_equality:
            return "equality rule in a signature without equality"
        t, u, zeta, x = r.term, r.term2, r.formula, r.var
        if t is None or u is None or zeta is None or x is None:
            return "EqSubst needs terms t, u, a formula, and a variable"
        if not (_term_in_context(t, c.context) and _term_in_context(u, c.context)):
            return "EqSubst terms have variables outside the context"
        if len(ant) != 2 or len(suc) != 1:
            return "EqSubst concludes t = u, zeta[t/x] =>_y zeta[u/x]"
        want_ant0 = Eq(t, u)
        want_ant1 = substitute(zeta, {x: t}, avoid=c.context.vars)
        want_suc = substitute(zeta, {x: u}, avoid=c.context.vars)
        if ant[0] != want_ant0:
            return "EqSubst first antecedent formula must be t = u"
        if not alpha_eq(ant[1], want_ant1):
            return "EqSubst second antecedent formula must be zeta[t/x]"
        if not alpha_eq(suc[0], want_suc):
            return "EqSubst succedent formula must be zeta[u/x]"
        return None

    if r.tag == "Cut":
        if len(ps) != 2:
            return f"Cut expects 2 premises, got {len(ps)}"
        p1, p2 = ps[0].conclusion, ps[1].conclusion
        for p in (p1, p2):
            if p.context != c.context:
                return f"Cut premise context {p.context.vars} differs from {c.context.vars}"
        if not p1.succedent:
            return "Cut left premise needs the cut formula last in its succedent"
        if not p2.antecedent:
            return "Cut right premise needs the cut formula first in its antecedent"
        cut = p1.succedent[-1]
        if not alpha_eq(cut, p2.antecedent[0]):
            return "Cut formulas of the two premises differ"
        if not _lists_alpha_eq(ant, p1.antecedent + p2.antecedent[1:]):
            return "Cut conclusion antecedent must concatenate the premise antecedents"
        if not _lists_alpha_eq(suc, p1.succedent[:-1] + p2.succedent):
            return "Cut conclusion succedent must concatenate the premise succedents"
        return None

    try:
        wanted = premises(c, r)
    except ProofError as e:
        return str(e)
    if len(ps) != len(wanted):
        return f"{r.tag} expects {len(wanted)} premises, got {len(ps)}"
    for k, (p, want) in enumerate(zip(ps, wanted)):
        q = p.conclusion
        if q.context != want.context:
            return f"{r.tag} premise context {q.context.vars} differs from {want.context.vars}"
        if not (
            _lists_alpha_eq(q.antecedent, want.antecedent)
            and _lists_alpha_eq(q.succedent, want.succedent)
        ):
            return f"{r.tag} premise {k} does not match"
    return None


def check_proof(tree: ProofTree, theory=(), signature: Optional[Signature] = None) -> ProofCheck:
    """Check every node; on failure report the path (premise indices) of the
    first failing node and the violated side condition."""
    stack: list[tuple[ProofTree, tuple[int, ...]]] = [(tree, ())]
    while stack:
        node, path = stack.pop()
        err = _check_node(node, theory, signature)
        if err is not None:
            return ProofCheck(False, path, err)
        for i, p in enumerate(reversed(node.premises)):
            idx = len(node.premises) - 1 - i
            stack.append((p, path + (idx,)))
    return ProofCheck(True)


# --- bounded proof search ---------------------------------------------------


@dataclass(frozen=True)
class Budget:
    max_depth: int = 8
    max_term_depth: int = 2
    max_nodes: int = 20000


def terms_over(ctx: Context, signature: Optional[Signature], max_depth: int) -> list[Term]:
    """All terms over the context up to the given application depth,
    variables first, in a fixed order."""
    layers: list[list[Term]] = [[Var(v) for v in ctx.vars]]
    if signature is not None:
        layers[0] += [App(n) for n, a in signature.functions if a == 0]
    for _ in range(max_depth):
        prev = [t for layer in layers for t in layer]
        new: list[Term] = []
        if signature is not None:
            for name, arity in signature.functions:
                if arity == 0:
                    continue
                for args in itertools.product(prev, repeat=arity):
                    cand = App(name, args)
                    if cand not in prev and cand not in new:
                        new.append(cand)
        if not new:
            break
        layers.append(new)
    return [t for layer in layers for t in layer]


class _Search:
    def __init__(self, budget: Budget, signature: Optional[Signature]):
        self.budget = budget
        self.signature = signature
        self.nodes = 0
        self._witnesses: dict[tuple[str, ...], list[Term]] = {}

    def spend(self) -> bool:
        self.nodes += 1
        return self.nodes <= self.budget.max_nodes

    def witnesses_for(self, ctx: Context) -> list[Term]:
        cached = self._witnesses.get(ctx.vars)
        if cached is None:
            cached = terms_over(ctx, self.signature, self.budget.max_term_depth)
            self._witnesses[ctx.vars] = cached
        return cached

    def apply(self, s: Sequent, rules: Sequence[Rule], depth: int, seen) -> Optional[ProofTree]:
        """Apply the chain of unary `rules[:-1]` upwards from `s`, then prove
        every premise of `rules[-1]` at `depth` (none when it is a leaf);
        the tree, or None."""
        chain = [s]
        for r in rules[:-1]:
            chain += premises(chain[-1], r)
        subs = []
        if rules[-1].tag not in _LEAVES:
            for p in premises(chain[-1], rules[-1]):
                sub = self.prove(p, depth, seen)
                if sub is None:
                    return None
                subs.append(sub)
        tree = ProofTree(chain[-1], rules[-1], tuple(subs))
        for k in range(len(rules) - 2, -1, -1):
            tree = ProofTree(chain[k], rules[k], (tree,))
        return tree

    def close(self, s: Sequent, i: int, j: int, leaf: Rule) -> ProofTree:
        """Weaken `s` down to its antecedent formula `i` (none when negative)
        and its succedent formula `j`, and close that with `leaf`."""
        rules = [Rule("RW", pos=k) for k in reversed(range(len(s.succedent))) if k != j]
        rules += [Rule("LW", pos=k) for k in reversed(range(len(s.antecedent))) if k != i]
        return self.apply(s, rules + [leaf], 0, frozenset())

    # -- the search proper ----------------------------------------------

    def prove(self, s: Sequent, depth: int, seen: frozenset) -> Optional[ProofTree]:
        if not self.spend():
            return None
        ant, suc = s.antecedent, s.succedent

        # closures
        for i, phi in enumerate(ant):
            if isinstance(phi, Bot):
                return ProofTree(s, Rule("LBot", pos=i))
        for j, phi in enumerate(suc):
            if isinstance(phi, Top):
                return ProofTree(s, Rule("RTop", pos=j))
        # formulas are compared up to alpha-equivalence by their canonical forms
        cant = [canonical_form(a) for a in ant]
        csuc = [canonical_form(b) for b in suc]
        for i, a in enumerate(cant):
            if a in csuc:
                return self.close(s, i, csuc.index(a), Rule("Id"))
        if self.signature is not None and self.signature.has_equality:
            for j, phi in enumerate(suc):
                if isinstance(phi, Eq) and phi.left == phi.right:
                    return self.close(s, -1, j, Rule("EqRefl", term=phi.left))

        key = (s.context.vars, frozenset(Counter(cant).items()), frozenset(Counter(csuc).items()))
        if key in seen:
            return None
        seen = seen | {key}

        # drop duplicates (via weakening, read backwards)
        for i, a in enumerate(cant):
            if a in cant[i + 1:]:
                return self.apply(s, (Rule("LW", pos=cant.index(a, i + 1)),), depth, seen)
        for j, b in enumerate(csuc):
            if b in csuc[j + 1:]:
                return self.apply(s, (Rule("RW", pos=csuc.index(b, j + 1)),), depth, seen)

        # non-branching invertible rules, first applicable position; a
        # conjunction (disjunction) is contracted to keep both parts
        for i, phi in enumerate(ant):
            if isinstance(phi, Top):
                return self.apply(s, (Rule("LW", pos=i),), depth, seen)
            if isinstance(phi, And):
                chain = (Rule("LC", pos=i), Rule("LAnd", pos=i), Rule("LAnd", pos=i + 1, which=1))
                return self.apply(s, chain, depth, seen)
            if isinstance(phi, Not):
                return self.apply(s, (Rule("LNeg", pos=i),), depth, seen)
            if isinstance(phi, Exists):
                return self._expand_fresh(s, "LExists", i, depth, seen)
        for j, phi in enumerate(suc):
            if isinstance(phi, Bot):
                return self.apply(s, (Rule("RW", pos=j),), depth, seen)
            if isinstance(phi, Or):
                chain = (Rule("RC", pos=j), Rule("ROr", pos=j), Rule("ROr", pos=j + 1, which=1))
                return self.apply(s, chain, depth, seen)
            if isinstance(phi, Not):
                return self.apply(s, (Rule("RNeg", pos=j),), depth, seen)
            if isinstance(phi, Imp):
                return self.apply(s, (Rule("RImp", pos=j),), depth, seen)
            if isinstance(phi, Forall):
                return self._expand_fresh(s, "RForall", j, depth, seen)

        if depth <= 0:
            return None

        # branching invertible rules
        for j, phi in enumerate(suc):
            if isinstance(phi, And):
                return self.apply(s, (Rule("RAnd", pos=j),), depth - 1, seen)
        for i, phi in enumerate(ant):
            if isinstance(phi, Or):
                return self.apply(s, (Rule("LOr", pos=i),), depth - 1, seen)
            if isinstance(phi, Imp):
                return self.apply(s, (Rule("LImp", pos=i),), depth - 1, seen)

        # quantifier instantiation, keeping the quantified formula by contraction
        witnesses = self.witnesses_for(s.context)
        for tag, formulas, canon in (("LForall", ant, cant), ("RExists", suc, csuc)):
            for i, phi in enumerate(formulas):
                if not isinstance(phi, _PRINCIPAL[tag]):
                    continue
                contract = Rule("LC" if tag == "LForall" else "RC", pos=i)
                (dup,) = premises(s, contract)
                for t in witnesses:
                    if canonical_form(_instance(phi, t, s.context)) in canon:
                        continue
                    sub = self.apply(dup, (Rule(tag, pos=i, term=t),), depth - 1, seen)
                    if sub is not None:
                        return ProofTree(s, contract, (sub,))
        return None

    def _expand_fresh(self, s: Sequent, tag: str, pos: int, depth: int, seen) -> Optional[ProofTree]:
        """Apply RForall/LExists, renaming the binder first when it clashes."""
        left = tag == "LExists"
        formulas = s.antecedent if left else s.succedent
        phi = formulas[pos]
        if phi.var not in s.context and free_vars(phi.body) <= set(s.context.vars) | {phi.var}:
            return self.apply(s, (Rule(tag, pos=pos),), depth, seen)
        renamed = rectify(phi, avoid=s.context.vars)
        if renamed.var in s.context:
            return None  # context exhausted the pool; cannot happen with fresh_vars
        mid = _on_side(s, left, formulas[:pos] + (renamed,) + formulas[pos + 1:])
        sub = self.apply(mid, (Rule(tag, pos=pos),), depth, seen)
        return ProofTree(s, Rule("AlphaRename"), (sub,)) if sub else None


def _axiom_lemma(ax: Formula, ctx: Context) -> ProofTree:
    """=>_() ax as a theory leaf, enlarged into the given context."""
    tree = ProofTree(Sequent(Context(), (), (ax,)), Rule("TheoryAxiom", formula=ax))
    vars_so_far: tuple[str, ...] = ()
    for v in ctx.vars:
        vars_so_far = vars_so_far + (v,)
        tree = ProofTree(Sequent(Context(vars_so_far), (), (ax,)), Rule("CtxEnlarge", var=v), (tree,))
    return tree


def prove_bounded(
    s: Sequent,
    theory: Sequence[Formula] = (),
    budget: Budget = Budget(),
    signature: Optional[Signature] = None,
) -> Optional[ProofTree]:
    """Cut-free backward-chaining proof search; None means not found within
    the budget (the search is deliberately incomplete).

    Theory sentences are preloaded into the antecedent for the search and
    spliced back out with cuts against ``=>_() phi`` leaves, so the returned
    tree always concludes exactly `s` and passes `check_proof`.

    The search deepens iteratively up to the depth budget, so shallow proofs
    are found before deep branches are wandered into; each round gets the
    full node budget.
    """
    axioms = tuple(theory)
    for ax in axioms:
        if free_vars(ax):
            raise ProofError(f"theory axiom {ax!r} is not a sentence")
    goal = Sequent(s.context, axioms + s.antecedent, s.succedent)
    tree = None
    for depth in range(0, budget.max_depth + 1):
        engine = _Search(budget, signature)
        tree = engine.prove(goal, depth, frozenset())
        if tree is not None:
            break
    if tree is None:
        return None
    for k in range(len(axioms)):
        remaining = axioms[k + 1:]
        lemma = _axiom_lemma(axioms[k], s.context)
        concl = Sequent(s.context, remaining + s.antecedent, s.succedent)
        tree = ProofTree(concl, Rule("Cut"), (lemma, tree))
    return tree
