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
six leaf rules and Cut itself.  A premise's formulas lie in its context
whenever the conclusion's do (the side conditions of `premises`, the
witness-term check among them, see to that), so premises are built without
re-checking their free variables; a sequent built by a caller is checked.

A quantifier instance (the premise formula of LForall and RExists) is built
once and kept in a table on the quantified formula's node, as nodes keep
their canonical form.  The table is keyed by the witness term and the
context's variables, and that key is exact: `substitute` reads nothing else
from the context, and the rest of the instance is a function of the node.
So the prover's duplicate-instance test, the premise it then builds and the
checker's comparison all read one object, whose canonical form is computed
once, and the table goes with its node.

`prove_qf` runs the same search, uncapped, on a quantifier-free sequent,
closing atomic leaves by Id, by EqRefl or by a caller's lemma for a pair of
atoms.  It decides the sequent: it returns the proof, or the first atomic
leaf that stays open.  Every rule it applies is invertible at each single valuation of
the atoms (a valuation that falsifies a premise falsifies the conclusion),
so a valuation that makes the open leaf's antecedent atoms true and its
succedent atoms false falsifies the root sequent too: the open leaf is the
countermodel, read off the same search that would have built the proof.

`decide_relational` decides a sequent and its theory in the relational
Bernays-Schoenfinkel fragment by Herbrand expansion (Ramsey 1930; Herbrand),
with one walk over an explicit stack of branches.  On each branch it applies
the invertible propositional rules, delaying the branching ones until no
other rule applies, and gives every eigen-strength quantifier (an
existential on the left, a universal on the right) a fresh constant.  Only
then does it instantiate every universal-strength quantifier with every
constant of the branch, once, as no constant is added after that; from then
on every instance is read before a branch splits.  A delayed formula with a
child that closes the branch at once is taken before any split, and only its
other child is read (unit propagation), so a goal that one instance among
many proves does not split on the others.  A branch
closes on an atom on both sides, on bottom left or top right, or, at its
end, once the equalities on its left merge (union-find) two sides of an
equality or an atom on the right into one on the left.  A branch that stays
open is saturated, a Hintikka set: its constants, merged by its equalities,
with its left atoms true and every other atom false, satisfy every formula
on its left and falsify every one on its right, which is the countermodel;
with no constant it is the empty structure, where a universal on the left
has no instance.  When every branch closes, each step is sound, so the
sequent is valid.  A binder whose body does not use its variable is read
as its body once the branch has a constant: the branch's models and an
open branch's carrier are then nonempty, where the binder adds no
alternation; with no constant the empty structure tells them apart
(`forall x false` holds there).  The walk declines on a term other than a
bound or context variable (a function symbol), on a signature with
constants (the empty structure is then no structure, and the prover may use
a constant as a witness), and on an eigen-strength quantifier met after the
branch has instantiated (an existential below a universal, outside the
fragment, as `exists y forall z Q(y, z)` on the right).
The splits are still exponential in the worst case, so a caller may cap
them: past the cap the walk declines, and the searches run as without it.
The decision only skips work whose outcome it knows: the bounded search is
sound, so it cannot prove a refuted goal, and no structure falsifies a valid
one, so a countermodel scan of it finds nothing.  Proofs still come from the
search, so certificates do not change.  The answer is kept on the sequent,
so `prove_bounded` and `semantics.countermodel_search`, each of which
decides first, walk a goal given to both once.

`prove_bounded` deepens iteratively and does not redo work across rounds
(Korf, "Depth-first iterative-deepening", 1985; Reinefeld & Marsland,
"Enhanced iterative-deepening search", 1994).  The search is an AND/OR
search in which a failed child only ever leads to the next alternative, so
a sequent whose subtree failed with no unclean return (no loop cut, no node
past the cap) also fails at any smaller depth and under any set of loop
keys.  One table, shared by the rounds, keeps each such failure with the
largest depth it failed at, or without a bound when no depth cut-off was
reached under it.  It is keyed by the formulas in order, as the order
decides which rule the search applies first: a permutation of a failed
sequent may have a shallower proof.  A round that fails with no depth
cut-off and no unclean return ends the deepening, as every deeper round
would search the same tree and fail the same way.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .lang import App, Context, Signature, Term, Var, functions_of
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
    Pred,
    Top,
    alpha_eq,
    canonical_form,
    free_vars,
    is_quantifier_free,
    rectify,
    subformulas,
    substitute,
    symbols_of,
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


def _premise(ctx: Context, ant: tuple[Formula, ...], suc: tuple[Formula, ...]) -> Sequent:
    """A sequent built without `Sequent`'s free-variable check, for formulas
    known to lie in `ctx`: a premise of a rule (see the module docstring), or
    a checked sequent with theory sentences added."""
    s = object.__new__(Sequent)
    s.__dict__.update(context=ctx, antecedent=ant, succedent=suc)
    return s


def _on_side(c: Sequent, left: bool, formulas: tuple[Formula, ...], ctx: Optional[Context] = None) -> Sequent:
    """`c` with its antecedent (left) or succedent replaced by `formulas`,
    which lie in the context of `c`, or in `ctx` when one is given."""
    ctx = c.context if ctx is None else ctx
    if left:
        return _premise(ctx, formulas, c.succedent)
    return _premise(ctx, c.antecedent, formulas)


def _instance(phi: Formula, t: Term, ctx: Context) -> Formula:
    """The body of the quantified formula `phi` with the term `t` for its
    bound variable, in context `ctx`: built once per `(t, ctx.vars)` and kept
    in `phi`'s instance table (see the module docstring)."""
    table = getattr(phi, "_instances", None)
    if table is None:
        table = {}
        object.__setattr__(phi, "_instances", table)
    key = (t, ctx.vars)
    inst = table.get(key)
    if inst is None:
        inst = table[key] = substitute(phi.body, {phi.var: t}, avoid=ctx.vars)
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
        return (_premise(Context(ctx.vars[:-1]), ant, suc),)
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
        return (_premise(ctx, before + after, suc + (phi.body,)),)
    if tag == "RNeg":
        return (_premise(ctx, (phi.body,) + ant, before + after),)
    if tag == "LImp":
        return (
            _premise(ctx, before + after, suc + (phi.left,)),
            _premise(ctx, (phi.right,) + before + after, suc),
        )
    if tag == "RImp":
        return (_premise(ctx, (phi.left,) + ant, before + after + (phi.right,)),)
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


def _check_node(node: ProofTree, theory, functions: Optional[set], root: Sequent) -> Optional[str]:
    """None if the node is a correct rule instance, else the violation.  When
    `functions` are given, a term the rule names may use only those and the
    function symbols of the `root` sequent."""
    c = node.conclusion
    r = node.rule
    ps = node.premises
    ant, suc = c.antecedent, c.succedent

    if r.tag in _LEAVES and ps:
        return f"{r.tag} expects 0 premises, got {len(ps)}"

    if functions is not None:
        for t in (r.term, r.term2):
            if t is None:
                continue
            undeclared = functions_of((t,)) - functions
            goal = (symbols_of(f)[1] for f in root.antecedent + root.succedent)
            if undeclared and not undeclared <= set().union(*goal):
                return f"{r.tag} term {t!r} uses a function symbol outside the signature and the goal"

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
        if ant or len(suc) != 1:
            return "EqRefl concludes =>_y t = t"
        t = r.term
        if t is None or not isinstance(suc[0], Eq) or suc[0] != Eq(t, t):
            return "EqRefl conclusion must be t = t for the rule's term"
        if not _term_in_context(t, c.context):
            return "EqRefl term has variables outside the context"
        return None

    if r.tag == "EqSubst":
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
    first failing node and the violated side condition.

    Under a signature, a term that a rule names may use only the function
    symbols of the signature and of the root sequent, which every structure
    that evaluates the root interprets: a witness constant outside both
    would prove `=> exists x true`, which the empty structure refutes."""
    functions = None if signature is None else set(signature.functions)
    stack: list[tuple[ProofTree, tuple[int, ...]]] = [(tree, ())]
    while stack:
        node, path = stack.pop()
        err = _check_node(node, theory, functions, tree.conclusion)
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


# a proof of `a =>_ctx b` for two atoms, or None; see `prove_qf`
Closer = Callable[[Formula, Formula, Context], Optional[ProofTree]]


class _Search:
    def __init__(self, budget: Budget, signature: Optional[Signature], closer: Optional[Closer] = None):
        self.budget = budget
        self.signature = signature
        self.closer = closer
        self.nodes = 0
        # depth cut-offs (hits on finite `failed` entries included), and
        # unclean returns: loop cuts and nodes past the cap
        self.cutoffs = 0
        self.unclean = 0
        # (context, antecedent, succedent in canonical forms) -> the largest
        # depth at which that sequent failed, or inf when its subtree reached
        # no depth cut-off; a failure whose subtree returned unclean is not kept
        self.failed: dict[tuple, float] = {}
        # the last sequent of atoms alone that the search left open
        self.leaf: Optional[Sequent] = None
        self._witnesses: dict[tuple[str, ...], list[Term]] = {}

    def witnesses_for(self, ctx: Context) -> list[Term]:
        cached = self._witnesses.get(ctx.vars)
        if cached is None:
            cached = terms_over(ctx, self.signature, self.budget.max_term_depth)
            self._witnesses[ctx.vars] = cached
        return cached

    def close(self, s: Sequent, i: int, j: int, top: Rule | ProofTree) -> ProofTree:
        """Weaken `s` down to its antecedent formula `i` (none when negative)
        and its succedent formula `j`, and close that with `top`: a leaf
        rule, or a proof of the weakened sequent."""
        rules = [Rule("RW", pos=k) for k in reversed(range(len(s.succedent))) if k != j]
        rules += [Rule("LW", pos=k) for k in reversed(range(len(s.antecedent))) if k != i]
        chain = [s]
        for r in rules:
            chain += premises(chain[-1], r)
        if isinstance(top, Rule):
            top = ProofTree(chain[-1], top)
        for c, r in zip(reversed(chain[:-1]), reversed(rules)):
            top = ProofTree(c, r, (top,))
        return top

    # -- the search proper ----------------------------------------------

    def prove(self, s: Sequent, depth: int, seen: frozenset) -> Optional[ProofTree]:
        """A proof of `s` within `depth` branching and instantiation steps, or
        None.  The only method that recurses, one frame per proof level: a
        helper that called `prove` would double the stack a proof needs."""
        self.nodes += 1
        if self.nodes > self.budget.max_nodes:
            self.unclean += 1
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
        cant = tuple(map(canonical_form, ant))
        csuc = tuple(map(canonical_form, suc))
        for i, a in enumerate(cant):
            if a in csuc:
                return self.close(s, i, csuc.index(a), Rule("Id"))
        if self.closer is not None:
            for i, a in enumerate(ant):
                for j, b in enumerate(suc):
                    lemma = self.closer(a, b, s.context)
                    if lemma is not None:
                        return self.close(s, i, j, lemma)
        for j, phi in enumerate(suc):
            if isinstance(phi, Eq) and phi.left == phi.right:
                return self.close(s, -1, j, Rule("EqRefl", term=phi.left))

        # a failure is kept by the sequent in order, for the order of its
        # formulas decides which rule the search applies first
        here = (s.context.vars, cant, csuc)
        known = self.failed.get(here)
        if known is not None and known >= depth:
            if known < math.inf:
                self.cutoffs += 1
            return None

        # the loop key: the context and the multisets of canonical forms; a
        # side without a duplicate is its set, which never equals a set of
        # (formula, count) pairs
        sant, ssuc = frozenset(cant), frozenset(csuc)
        dup_ant, dup_suc = len(sant) < len(cant), len(ssuc) < len(csuc)
        if dup_ant:
            sant = frozenset(Counter(cant).items())
        if dup_suc:
            ssuc = frozenset(Counter(csuc).items())
        key = (s.context.vars, sant, ssuc)
        if key in seen:
            self.unclean += 1
            return None
        seen = seen | {key}

        cutoffs, unclean = self.cutoffs, self.unclean
        for start, rules, d, wrap in self._steps(s, cant, csuc, dup_ant or dup_suc, depth):
            # the chain of unary `rules[:-1]` upwards from `start`, then every
            # premise of `rules[-1]` proved at `d` (none when it is a leaf)
            chain = [start]
            for r in rules[:-1]:
                chain += premises(chain[-1], r)
            tops = () if rules[-1].tag in _LEAVES else premises(chain[-1], rules[-1])
            subs = []
            for p in tops:
                sub = self.prove(p, d, seen)
                if sub is None:
                    break
                subs.append(sub)
            if len(subs) < len(tops):
                continue
            tree = ProofTree(chain[-1], rules[-1], tuple(subs))
            for c, r in zip(reversed(chain[:-1]), reversed(rules[:-1])):
                tree = ProofTree(c, r, (tree,))
            return tree if wrap is None else ProofTree(s, wrap, (tree,))
        if self.unclean == unclean:
            self.failed[here] = depth if self.cutoffs > cutoffs else math.inf
        return None

    def _steps(self, s: Sequent, cant: tuple, csuc: tuple, duplicates: bool, depth: int):
        """The rule instances to try on `s`, in order, as `(start, rules,
        depth, wrap)`: `prove` applies the chain of unary `rules[:-1]`
        upwards from `start` and proves every premise of `rules[-1]` at
        `depth`.  That tree concludes `start`, which is `s` when `wrap` is
        None and otherwise the premise of the unary rule `wrap` on `s`.
        Only quantifier instantiation has alternatives; every other rule is
        the one step on `s`."""
        ant, suc = s.antecedent, s.succedent
        # drop duplicates (via weakening, read backwards)
        if duplicates:
            for i, a in enumerate(cant):
                if a in cant[i + 1:]:
                    yield s, (Rule("LW", pos=cant.index(a, i + 1)),), depth, None
                    return
            for j, b in enumerate(csuc):
                if b in csuc[j + 1:]:
                    yield s, (Rule("RW", pos=csuc.index(b, j + 1)),), depth, None
                    return

        # non-branching invertible rules, first applicable position; a
        # conjunction (disjunction) is contracted to keep both parts
        for i, phi in enumerate(ant):
            if isinstance(phi, Top):
                yield s, (Rule("LW", pos=i),), depth, None
                return
            if isinstance(phi, And):
                yield s, (Rule("LC", pos=i), Rule("LAnd", pos=i), Rule("LAnd", pos=i + 1, which=1)), depth, None
                return
            if isinstance(phi, Not):
                yield s, (Rule("LNeg", pos=i),), depth, None
                return
            if isinstance(phi, Exists):
                yield from self._fresh(s, "LExists", i, depth)
                return
        for j, phi in enumerate(suc):
            if isinstance(phi, Bot):
                yield s, (Rule("RW", pos=j),), depth, None
                return
            if isinstance(phi, Or):
                yield s, (Rule("RC", pos=j), Rule("ROr", pos=j), Rule("ROr", pos=j + 1, which=1)), depth, None
                return
            if isinstance(phi, Not):
                yield s, (Rule("RNeg", pos=j),), depth, None
                return
            if isinstance(phi, Imp):
                yield s, (Rule("RImp", pos=j),), depth, None
                return
            if isinstance(phi, Forall):
                yield from self._fresh(s, "RForall", j, depth)
                return

        if all(isinstance(phi, (Pred, Eq)) for phi in ant + suc):
            self.leaf = s
            return
        if depth <= 0:
            self.cutoffs += 1
            return

        # branching invertible rules
        for j, phi in enumerate(suc):
            if isinstance(phi, And):
                yield s, (Rule("RAnd", pos=j),), depth - 1, None
                return
        for i, phi in enumerate(ant):
            if isinstance(phi, Or):
                yield s, (Rule("LOr", pos=i),), depth - 1, None
                return
            if isinstance(phi, Imp):
                yield s, (Rule("LImp", pos=i),), depth - 1, None
                return

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
                    yield dup, (Rule(tag, pos=i, term=t),), depth - 1, contract

    def _fresh(self, s: Sequent, tag: str, pos: int, depth: int):
        """The step applying RForall/LExists, renaming the binder first when it clashes."""
        left = tag == "LExists"
        formulas = s.antecedent if left else s.succedent
        phi = formulas[pos]
        if phi.var not in s.context and free_vars(phi.body) <= set(s.context.vars) | {phi.var}:
            yield s, (Rule(tag, pos=pos),), depth, None
            return
        renamed = rectify(phi, avoid=s.context.vars)
        if renamed.var in s.context:
            return  # context exhausted the pool; cannot happen with fresh_vars
        mid = _on_side(s, left, formulas[:pos] + (renamed,) + formulas[pos + 1:])
        yield mid, (Rule(tag, pos=pos),), depth, Rule("AlphaRename")


def _axiom_lemma(ax: Formula, ctx: Context) -> ProofTree:
    """=>_() ax as a theory leaf, enlarged into the given context."""
    tree = ProofTree(Sequent(Context(), (), (ax,)), Rule("TheoryAxiom", formula=ax))
    vars_so_far: tuple[str, ...] = ()
    for v in ctx.vars:
        vars_so_far = vars_so_far + (v,)
        tree = ProofTree(Sequent(Context(vars_so_far), (), (ax,)), Rule("CtxEnlarge", var=v), (tree,))
    return tree


# --- the relational Bernays-Schoenfinkel decision ----------------------------


@dataclass(frozen=True)
class OpenBranch:
    """An open saturated branch of `decide_relational`, which is a
    countermodel: the carrier, one constant per class of the branch's
    equalities; the antecedent atoms over it as `(name, args)` pairs, which
    a structure makes true and every other atom false; and the constant
    that each context variable names."""

    carrier: tuple[int, ...]
    atoms: frozenset
    assignment: dict


def decide_relational(
    s: Sequent,
    axioms: Sequence[Formula] = (),
    signature: Optional[Signature] = None,
    max_branches: float = math.inf,
) -> bool | OpenBranch | None:
    """Decide `axioms, s.antecedent =>_ctx s.succedent` by Herbrand
    expansion: True when it is valid, the first open branch, a countermodel,
    when it is not, and None when the walk declines the goal (a function
    term, a signature with constants, or an eigen-strength binder whose
    body uses its variable below a universal-strength one; see the
    module docstring) or would split a branch more than `max_branches`
    times.  The axioms are sentences; a variable of an axiom outside its
    binders is declined, as a function term is.

    The answer is kept on the sequent, as formula nodes keep their canonical
    form: one slot holds the key `(axioms, signature)` and the walk.  The
    walk splits in the same order under any cap, so one that its cap stops
    waits in the slot before its next split, and a later call with a larger
    cap goes on from there: a sequent is walked once for each key in turn.
    A later call gets the answer when its `max_branches` is at least the
    splits the walk took, and None otherwise, as from a fresh walk."""
    key = (tuple(axioms), signature)
    kept = getattr(s, "_decided", None)
    if kept is None or kept[0] != key:
        # the key, the walk while it waits, the split it waits for or the
        # splits it took, and its answer
        kept = [key, _herbrand(s, key[0], signature), 0, None]
        object.__setattr__(s, "_decided", kept)
    walk, splits = kept[1], kept[2]
    while walk is not None and splits <= max_branches:
        try:
            splits = next(walk)
        except StopIteration as end:
            walk, kept[3] = None, end.value
    kept[1], kept[2] = walk, splits
    return kept[3] if walk is None and splits <= max_branches else None


def _herbrand(s: Sequent, axioms: tuple[Formula, ...], signature: Optional[Signature]):
    """The walk of `decide_relational`, a generator: before each split it
    yields the split's number, and it returns the answer."""
    if signature is not None and signature.functions and signature.constants():
        return None
    names = dict(zip(s.context.vars, range(len(s.context.vars))))
    # the root closes at once on top right, bottom left or one formula on
    # both sides, as four in ten valid goals of the sweep do
    todo = []
    for phi in s.succedent:
        if type(phi) is Top:
            return True
        todo.append((False, phi, names))
    for phi in s.antecedent:
        if type(phi) is Bot or phi in s.succedent:
            return True
        todo.append((True, phi, names))
    for ax in axioms:
        todo.append((True, ax, {}))
    # a branch: formulas to read, delayed branching ones, universal-strength
    # ones, atoms either side, equalities either side, constants, instantiated
    delayed, universal, lefts, rights, eqs, neqs, n, frozen = [], [], set(), set(), [], [], len(names), False
    branches = []  # the branches still to walk
    splits = 0
    while True:
        while todo:
            left, phi, env = todo.pop()
            kind = type(phi)
            if kind is Pred:
                try:
                    atom = (phi.name, tuple([env[t.name] for t in phi.args]))
                except (KeyError, AttributeError):  # a variable no binder gives, a function term
                    return None
                if left:
                    if atom in rights:
                        break
                    lefts.add(atom)
                elif atom in lefts:
                    break
                else:
                    rights.add(atom)
            elif kind is Not:
                todo.append((not left, phi.body, env))
            elif kind is Top or kind is Bot:
                if left == (kind is Bot):
                    break
            elif kind is Eq:
                try:
                    a, b = env[phi.left.name], env[phi.right.name]
                except (KeyError, AttributeError):
                    return None
                if a != b:
                    (eqs if left else neqs).append((a, b))
                elif not left:
                    break
            elif kind is And or kind is Or:
                if (kind is And) == left:
                    todo += ((left, phi.left, env), (left, phi.right, env))
                else:
                    delayed.append((left, phi, env))
            elif kind is Imp:
                if left:
                    delayed.append((left, phi, env))
                else:
                    todo += ((True, phi.left, env), (False, phi.right, env))
            elif kind is Exists or kind is Forall:
                # a vacuous binder is its body over a carrier with a constant
                if n and phi.var not in free_vars(phi.body):
                    todo.append((left, phi.body, env))
                elif (kind is Exists) != left:
                    universal.append((left, phi, env))
                elif frozen:
                    return None
                else:
                    todo.append((left, phi.body, {**env, phi.var: n}))
                    n += 1
            else:
                return None
        else:
            # once the walk has instantiated, no constant is added, and every
            # instance is read before a split
            if universal and (frozen or not delayed):
                frozen = True
                todo = [(left, phi.body, {**env, phi.var: c}) for left, phi, env in universal for c in range(n)]
                universal = []
                continue
            if delayed:
                # every delayed formula with a child that closes the branch at
                # once is taken first, and only its other child is read: the
                # branch does not split (unit propagation)
                kept = []
                for item in delayed:
                    left, phi, env = item
                    first = (left and type(phi) is not Imp, phi.left, env)
                    second = (left, phi.right, env)
                    if _closes(first, lefts, rights):
                        todo.append(second)
                    elif _closes(second, lefts, rights):
                        todo.append(first)
                    else:
                        kept.append(item)
                delayed = kept
                if not todo:  # split on the last one, whose children are at hand
                    splits += 1
                    yield splits
                    delayed.pop()
                    branches.append(
                        ([second], delayed[:], universal[:], set(lefts), set(rights), eqs[:], neqs[:], n, frozen)
                    )
                    todo = [first]
                continue
            found = _open_leaf(s.context, lefts, rights, eqs, neqs, n)
            if found is not None:
                return found
        # the branch closed
        if not branches:
            return True
        todo, delayed, universal, lefts, rights, eqs, neqs, n, frozen = branches.pop()


def _closes(item: tuple, lefts: set, rights: set) -> bool:
    """Whether reading the formula of a walk item, `(left, phi, env)`, closes
    its branch at once: an atom already on the other side, or bottom left
    or top right, under any negations."""
    left, phi, env = item
    while type(phi) is Not:
        left, phi = not left, phi.body
    kind = type(phi)
    if kind is Pred:
        try:
            return (phi.name, tuple([env[t.name] for t in phi.args])) in (rights if left else lefts)
        except (KeyError, AttributeError):  # the walk declines it when it reads it
            return False
    return (kind is Top or kind is Bot) and left == (kind is Bot)


def _open_leaf(ctx: Context, lefts: set, rights: set, eqs: list, neqs: list, n: int) -> Optional[OpenBranch]:
    """The countermodel of a saturated branch, or None when its equalities
    close it: constants are merged by the equalities on the left, and the
    branch closes when a merged atom or equality lies on both sides."""
    rep = list(range(n))
    if not eqs:
        return OpenBranch(tuple(rep), frozenset(lefts), dict(zip(ctx.vars, rep)))

    def find(c: int) -> int:
        while rep[c] != c:
            rep[c] = rep[rep[c]]
            c = rep[c]
        return c

    for a, b in eqs:
        rep[find(a)] = find(b)
    rep = [find(c) for c in range(n)]
    if any(rep[a] == rep[b] for a, b in neqs):
        return None
    atoms = frozenset((name, tuple(rep[c] for c in args)) for name, args in lefts)
    if any((name, tuple(rep[c] for c in args)) in atoms for name, args in rights):
        return None
    return OpenBranch(tuple(sorted(set(rep))), atoms, dict(zip(ctx.vars, rep)))


# --- bounded proof search ---------------------------------------------------


def prove_bounded(
    s: Sequent,
    theory: Sequence[Formula] = (),
    budget: Budget = Budget(),
    signature: Optional[Signature] = None,
) -> Optional[ProofTree]:
    """Cut-free backward-chaining proof search; None means not found within
    the budget (the search is deliberately incomplete).

    The goal and the theory are decided first (`decide_relational`, with as
    many splits as the search has nodes in a round), and a refuted goal
    returns None at once: the search is sound, so it could not have proved
    it.  Every other goal goes to the search of `_deepen`.
    """
    axioms = tuple(theory)
    for ax in axioms:
        if free_vars(ax):
            raise ProofError(f"theory axiom {ax!r} is not a sentence")
    if isinstance(decide_relational(s, axioms, signature, budget.max_nodes), OpenBranch):
        return None
    return _deepen(s, axioms, budget, signature)


def _deepen(
    s: Sequent, axioms: tuple[Formula, ...], budget: Budget, signature: Optional[Signature]
) -> Optional[ProofTree]:
    """The search of `prove_bounded`, without the decision first, on theory
    axioms already checked to be sentences.

    Theory sentences are preloaded into the antecedent for the search and
    spliced back out with cuts against ``=>_() phi`` leaves, so the returned
    tree always concludes exactly `s` and passes `check_proof`.

    The search deepens iteratively up to the depth budget, so shallow proofs
    are found before deep branches are wandered into.  `max_nodes` caps the
    nodes expanded in each round.  The rounds share one table of failed
    sequents (see the module docstring): a sequent found there at a depth no
    larger than the one it failed at returns at once and counts as one node,
    and a hit on a failure that a depth cut-off bounded counts as a cut-off.
    The deepening stops after a round that fails with no depth cut-off and
    no unclean return.

    Neither changes the result of a round that stays within the node cap.
    In a round that hits the cap, the search with the table has expanded no more nodes than the
    search without it at each point of the same search order, so it proves
    every goal that one proves, and may prove one in an earlier round.
    """
    goal = _premise(s.context, axioms + s.antecedent, s.succedent)
    engine, tree = _Search(budget, signature), None
    for depth in range(budget.max_depth + 1):
        engine.nodes = engine.cutoffs = engine.unclean = 0
        tree = engine.prove(goal, depth, frozenset())
        if tree is not None or not (engine.cutoffs or engine.unclean):
            break
    if tree is None:
        return None
    for k in range(len(axioms)):
        remaining = axioms[k + 1:]
        lemma = _axiom_lemma(axioms[k], s.context)
        concl = _premise(s.context, remaining + s.antecedent, s.succedent)
        tree = ProofTree(concl, Rule("Cut"), (lemma, tree))
    return tree


def prove_qf(s: Sequent, closer: Optional[Closer] = None) -> ProofTree | Sequent:
    """The proof of the quantifier-free sequent `s` by the prover's
    invertible rules, or else the first atomic leaf that stays open.

    Without quantifiers the search never backtracks, so it needs no node cap
    and no deepening: the binary connectives bound its depth.
    `closer(a, b, ctx)` may prove a pair `a =>_ctx b` that Id does not close;
    its proof is weakened into place.

    An open leaf holds only `Pred` and `Eq` atoms, no atom on both sides and
    no pair that `closer` or EqRefl closes.  Each rule on the path from `s`
    to it is invertible at every single valuation, so any valuation that
    makes the leaf's antecedent true and its succedent false also falsifies
    `s`: a leaf is a refutation, and it is the only way the search fails.
    """
    formulas = s.antecedent + s.succedent
    if not all(is_quantifier_free(f) for f in formulas):
        raise ProofError("prove_qf needs a quantifier-free sequent")
    depth = sum(isinstance(g, (And, Or, Imp)) for f in formulas for g in subformulas(f))
    engine = _Search(Budget(max_nodes=math.inf), None, closer)
    proof = engine.prove(s, depth, frozenset())
    return engine.leaf if proof is None else proof
