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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .lang import App, Context, LangError, Signature, Term, Var
from .formula import (
    And,
    Bot,
    Eq,
    Exists,
    Forall,
    Formula,
    FormulaError,
    Imp,
    Not,
    Or,
    Pred,
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
        for phi in self.antecedent + self.succedent:
            extra = free_vars(phi) - set(self.context.vars)
            if extra:
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


_POSITIONAL = {
    "LW", "RW", "LC", "RC", "LE", "RE", "RTop", "LBot",
    "LAnd", "RAnd", "LOr", "ROr", "LNeg", "RNeg", "LImp", "RImp",
    "LForall", "RForall", "LExists", "RExists",
}

_ARITY = {
    "Id": 0, "RTop": 0, "LBot": 0, "EqRefl": 0, "EqSubst": 0, "TheoryAxiom": 0,
    "LW": 1, "RW": 1, "LC": 1, "RC": 1, "LE": 1, "RE": 1, "CtxEnlarge": 1,
    "LAnd": 1, "ROr": 1, "LNeg": 1, "RNeg": 1, "RImp": 1,
    "LForall": 1, "RForall": 1, "LExists": 1, "RExists": 1, "AlphaRename": 1,
    "RAnd": 2, "LOr": 2, "LImp": 2, "Cut": 2,
}


@dataclass(frozen=True)
class ProofTree:
    conclusion: Sequent
    rule: Rule
    premises: tuple["ProofTree", ...] = ()

    def node_count(self) -> int:
        return 1 + sum(p.node_count() for p in self.premises)


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


def _check_node(node: ProofTree, theory, signature: Optional[Signature]) -> Optional[str]:
    """None if the node is a correct rule instance, else the violation."""
    c = node.conclusion
    r = node.rule
    ps = node.premises
    if r.tag not in _ARITY:
        return f"unknown rule {r.tag}"
    if len(ps) != _ARITY[r.tag]:
        return f"{r.tag} expects {_ARITY[r.tag]} premises, got {len(ps)}"

    def same_ctx() -> Optional[str]:
        for p in ps:
            if p.conclusion.context != c.context:
                return f"{r.tag} premise context {p.conclusion.context.vars} differs from {c.context.vars}"
        return None

    ant, suc = c.antecedent, c.succedent

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

    # everything below has at least one premise
    p0 = ps[0].conclusion

    if r.tag == "CtxEnlarge":
        if r.var is None:
            return "CtxEnlarge needs a variable"
        if r.var in p0.context:
            return f"variable {r.var} already occurs in the context"
        if c.context.vars != p0.context.vars + (r.var,):
            return "CtxEnlarge must append exactly the rule's variable"
        if not (_lists_alpha_eq(ant, p0.antecedent) and _lists_alpha_eq(suc, p0.succedent)):
            return "CtxEnlarge must keep the formulas unchanged"
        return None

    if r.tag == "AlphaRename":
        err = same_ctx()
        if err:
            return err
        if _lists_alpha_eq(ant, p0.antecedent) and _lists_alpha_eq(suc, p0.succedent):
            return None
        return "AlphaRename premise is not alpha-equivalent to the conclusion"

    if r.tag == "Cut":
        err = same_ctx()
        if err:
            return err
        p1, p2 = ps[0].conclusion, ps[1].conclusion
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

    if r.tag in ("LW", "RW", "LC", "RC", "LE", "RE"):
        err = same_ctx()
        if err:
            return err
        here, there = (ant, suc) if r.tag[0] == "L" else (suc, ant)
        phere, pthere = (
            (p0.antecedent, p0.succedent) if r.tag[0] == "L" else (p0.succedent, p0.antecedent)
        )
        if not _lists_alpha_eq(there, pthere):
            return f"{r.tag} must keep the other side unchanged"
        i = r.pos
        if not 0 <= i < len(here):
            return f"{r.tag} position out of range"
        if r.tag in ("LW", "RW"):
            want = here[:i] + here[i + 1:]
        elif r.tag in ("LC", "RC"):
            want = here[:i + 1] + (here[i],) + here[i + 1:]
        else:  # exchange
            if i + 1 >= len(here):
                return f"{r.tag} needs two adjacent formulas"
            want = here[:i] + (here[i + 1], here[i]) + here[i + 2:]
        if _lists_alpha_eq(want, phere):
            return None
        return f"{r.tag} premise does not match the expected list"

    # logical rules with a principal formula at r.pos
    side = "L" if r.tag[0] == "L" else "R"
    lst = ant if side == "L" else suc
    if not 0 <= r.pos < len(lst):
        return f"{r.tag} position out of range"
    principal = lst[r.pos]

    def replaced(new: Formula, which_list: tuple[Formula, ...]) -> tuple[Formula, ...]:
        return which_list[: r.pos] + (new,) + which_list[r.pos + 1:]

    def removed(which_list: tuple[Formula, ...]) -> tuple[Formula, ...]:
        return which_list[: r.pos] + which_list[r.pos + 1:]

    if r.tag in ("LAnd", "ROr"):
        err = same_ctx()
        if err:
            return err
        want_type = And if r.tag == "LAnd" else Or
        if not isinstance(principal, want_type):
            return f"{r.tag} principal formula has the wrong connective"
        if r.which not in (0, 1):
            return f"{r.tag} selector must be 0 or 1"
        part = principal.left if r.which == 0 else principal.right
        if side == "L":
            ok = _lists_alpha_eq(p0.antecedent, replaced(part, ant)) and _lists_alpha_eq(p0.succedent, suc)
        else:
            ok = _lists_alpha_eq(p0.succedent, replaced(part, suc)) and _lists_alpha_eq(p0.antecedent, ant)
        return None if ok else f"{r.tag} premise does not match"

    if r.tag in ("RAnd", "LOr"):
        err = same_ctx()
        if err:
            return err
        want_type = And if r.tag == "RAnd" else Or
        if not isinstance(principal, want_type):
            return f"{r.tag} principal formula has the wrong connective"
        q0, q1 = ps[0].conclusion, ps[1].conclusion
        if side == "R":
            ok = (
                _lists_alpha_eq(q0.succedent, replaced(principal.left, suc))
                and _lists_alpha_eq(q1.succedent, replaced(principal.right, suc))
                and _lists_alpha_eq(q0.antecedent, ant)
                and _lists_alpha_eq(q1.antecedent, ant)
            )
        else:
            ok = (
                _lists_alpha_eq(q0.antecedent, replaced(principal.left, ant))
                and _lists_alpha_eq(q1.antecedent, replaced(principal.right, ant))
                and _lists_alpha_eq(q0.succedent, suc)
                and _lists_alpha_eq(q1.succedent, suc)
            )
        return None if ok else f"{r.tag} premises do not match"

    if r.tag == "LNeg":
        err = same_ctx()
        if err:
            return err
        if not isinstance(principal, Not):
            return "LNeg principal formula must be a negation"
        ok = _lists_alpha_eq(p0.antecedent, removed(ant)) and _lists_alpha_eq(
            p0.succedent, suc + (principal.body,)
        )
        return None if ok else "LNeg premise does not match"

    if r.tag == "RNeg":
        err = same_ctx()
        if err:
            return err
        if not isinstance(principal, Not):
            return "RNeg principal formula must be a negation"
        ok = _lists_alpha_eq(p0.antecedent, (principal.body,) + ant) and _lists_alpha_eq(
            p0.succedent, removed(suc)
        )
        return None if ok else "RNeg premise does not match"

    if r.tag == "LImp":
        err = same_ctx()
        if err:
            return err
        if not isinstance(principal, Imp):
            return "LImp principal formula must be an implication"
        gamma = removed(ant)
        q0, q1 = ps[0].conclusion, ps[1].conclusion
        ok = (
            _lists_alpha_eq(q0.antecedent, gamma)
            and _lists_alpha_eq(q0.succedent, suc + (principal.left,))
            and _lists_alpha_eq(q1.antecedent, (principal.right,) + gamma)
            and _lists_alpha_eq(q1.succedent, suc)
        )
        return None if ok else "LImp premises do not match"

    if r.tag == "RImp":
        err = same_ctx()
        if err:
            return err
        if not isinstance(principal, Imp):
            return "RImp principal formula must be an implication"
        ok = _lists_alpha_eq(p0.antecedent, (principal.left,) + ant) and _lists_alpha_eq(
            p0.succedent, removed(suc) + (principal.right,)
        )
        return None if ok else "RImp premise does not match"

    if r.tag in ("LForall", "RExists"):
        err = same_ctx()
        if err:
            return err
        want_type = Forall if r.tag == "LForall" else Exists
        if not isinstance(principal, want_type):
            return f"{r.tag} principal formula has the wrong quantifier"
        t = r.term
        if t is None:
            return f"{r.tag} needs an instantiation term"
        if not _term_in_context(t, c.context):
            return f"{r.tag} witness term has variables outside the context"
        inst = substitute(principal.body, {principal.var: t}, avoid=c.context.vars)
        if side == "L":
            ok = _lists_alpha_eq(p0.antecedent, replaced(inst, ant)) and _lists_alpha_eq(p0.succedent, suc)
        else:
            ok = _lists_alpha_eq(p0.succedent, replaced(inst, suc)) and _lists_alpha_eq(p0.antecedent, ant)
        return None if ok else f"{r.tag} premise is not the stated instance"

    if r.tag in ("RForall", "LExists"):
        want_type = Forall if r.tag == "RForall" else Exists
        if not isinstance(principal, want_type):
            return f"{r.tag} principal formula has the wrong quantifier"
        x = principal.var
        if x in c.context:
            return f"{r.tag} bound variable {x} already occurs in the context"
        if p0.context.vars != c.context.vars + (x,):
            return f"{r.tag} premise context must be the context extended by {x}"
        if side == "R":
            ok = _lists_alpha_eq(p0.succedent, replaced(principal.body, suc)) and _lists_alpha_eq(
                p0.antecedent, ant
            )
        else:
            ok = _lists_alpha_eq(p0.antecedent, replaced(principal.body, ant)) and _lists_alpha_eq(
                p0.succedent, suc
            )
        return None if ok else f"{r.tag} premise does not match"

    return f"unhandled rule {r.tag}"


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


def _sequent_key(s: Sequent):
    from collections import Counter

    return (
        s.context.vars,
        frozenset(Counter(canonical_form(f) for f in s.antecedent).items()),
        frozenset(Counter(canonical_form(f) for f in s.succedent).items()),
    )


def pad_with_weakenings(core: ProofTree, target: Sequent, ant_keep: int, suc_keep: int) -> ProofTree:
    """Wrap a proof of the single kept antecedent/succedent formulas of
    `target` with weakenings until it concludes `target` exactly.  A negative
    keep index means the corresponding side of the core is empty."""
    tree = core
    ant = [target.antecedent[ant_keep]] if ant_keep >= 0 else []
    for k, phi in enumerate(target.antecedent):
        if k == ant_keep:
            continue
        # inserting in index order keeps every earlier formula in place
        pos = min(k, len(ant))
        ant.insert(pos, phi)
        concl = Sequent(target.context, tuple(ant), tree.conclusion.succedent)
        tree = ProofTree(concl, Rule("LW", pos=pos), (tree,))
    suc = [target.succedent[suc_keep]] if suc_keep >= 0 else []
    for k, phi in enumerate(target.succedent):
        if k == suc_keep:
            continue
        pos = min(k, len(suc))
        suc.insert(pos, phi)
        concl = Sequent(target.context, tree.conclusion.antecedent, tuple(suc))
        tree = ProofTree(concl, Rule("RW", pos=pos), (tree,))
    return tree


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

    # -- tree builders --------------------------------------------------

    def close_with_id(self, s: Sequent, i: int, j: int) -> ProofTree:
        core = ProofTree(
            Sequent(s.context, (s.antecedent[i],), (s.succedent[j],)), Rule("Id")
        )
        return pad_with_weakenings(core, s, i, j)

    def close_with_eqrefl(self, s: Sequent, j: int) -> ProofTree:
        t = s.succedent[j].left
        core = ProofTree(Sequent(s.context, (), (s.succedent[j],)), Rule("EqRefl", term=t))
        return pad_with_weakenings(core, s, -1, j)

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
        for i, a in enumerate(ant):
            for j, b in enumerate(suc):
                if alpha_eq(a, b):
                    return self.close_with_id(s, i, j)
        if self.signature is not None and self.signature.has_equality:
            for j, phi in enumerate(suc):
                if isinstance(phi, Eq) and phi.left == phi.right:
                    return self.close_with_eqrefl(s, j)

        key = _sequent_key(s)
        if key in seen:
            return None
        seen = seen | {key}

        # drop duplicates (via weakening, read backwards)
        for i in range(len(ant)):
            for i2 in range(i + 1, len(ant)):
                if alpha_eq(ant[i], ant[i2]):
                    prem = Sequent(s.context, ant[:i2] + ant[i2 + 1:], suc)
                    sub = self.prove(prem, depth, seen)
                    return ProofTree(s, Rule("LW", pos=i2), (sub,)) if sub else None
        for j in range(len(suc)):
            for j2 in range(j + 1, len(suc)):
                if alpha_eq(suc[j], suc[j2]):
                    prem = Sequent(s.context, ant, suc[:j2] + suc[j2 + 1:])
                    sub = self.prove(prem, depth, seen)
                    return ProofTree(s, Rule("RW", pos=j2), (sub,)) if sub else None

        # non-branching invertible rules, first applicable position
        for i, phi in enumerate(ant):
            if isinstance(phi, Top):
                prem = Sequent(s.context, ant[:i] + ant[i + 1:], suc)
                sub = self.prove(prem, depth, seen)
                return ProofTree(s, Rule("LW", pos=i), (sub,)) if sub else None
            if isinstance(phi, And):
                return self._expand_land(s, i, depth, seen)
            if isinstance(phi, Not):
                prem = Sequent(s.context, ant[:i] + ant[i + 1:], suc + (phi.body,))
                sub = self.prove(prem, depth, seen)
                return ProofTree(s, Rule("LNeg", pos=i), (sub,)) if sub else None
            if isinstance(phi, Exists):
                return self._expand_fresh(s, "LExists", i, depth, seen)
        for j, phi in enumerate(suc):
            if isinstance(phi, Bot):
                prem = Sequent(s.context, ant, suc[:j] + suc[j + 1:])
                sub = self.prove(prem, depth, seen)
                return ProofTree(s, Rule("RW", pos=j), (sub,)) if sub else None
            if isinstance(phi, Or):
                return self._expand_ror(s, j, depth, seen)
            if isinstance(phi, Not):
                prem = Sequent(s.context, (phi.body,) + ant, suc[:j] + suc[j + 1:])
                sub = self.prove(prem, depth, seen)
                return ProofTree(s, Rule("RNeg", pos=j), (sub,)) if sub else None
            if isinstance(phi, Imp):
                prem = Sequent(s.context, (phi.left,) + ant, suc[:j] + suc[j + 1:] + (phi.right,))
                sub = self.prove(prem, depth, seen)
                return ProofTree(s, Rule("RImp", pos=j), (sub,)) if sub else None
            if isinstance(phi, Forall):
                return self._expand_fresh(s, "RForall", j, depth, seen)

        if depth <= 0:
            return None

        # branching invertible rules
        for j, phi in enumerate(suc):
            if isinstance(phi, And):
                p1 = Sequent(s.context, ant, suc[:j] + (phi.left,) + suc[j + 1:])
                p2 = Sequent(s.context, ant, suc[:j] + (phi.right,) + suc[j + 1:])
                t1 = self.prove(p1, depth - 1, seen)
                if t1 is None:
                    return None
                t2 = self.prove(p2, depth - 1, seen)
                return ProofTree(s, Rule("RAnd", pos=j), (t1, t2)) if t2 else None
        for i, phi in enumerate(ant):
            if isinstance(phi, Or):
                p1 = Sequent(s.context, ant[:i] + (phi.left,) + ant[i + 1:], suc)
                p2 = Sequent(s.context, ant[:i] + (phi.right,) + ant[i + 1:], suc)
                t1 = self.prove(p1, depth - 1, seen)
                if t1 is None:
                    return None
                t2 = self.prove(p2, depth - 1, seen)
                return ProofTree(s, Rule("LOr", pos=i), (t1, t2)) if t2 else None
            if isinstance(phi, Imp):
                gamma = ant[:i] + ant[i + 1:]
                p1 = Sequent(s.context, gamma, suc + (phi.left,))
                p2 = Sequent(s.context, (phi.right,) + gamma, suc)
                t1 = self.prove(p1, depth - 1, seen)
                if t1 is None:
                    return None
                t2 = self.prove(p2, depth - 1, seen)
                return ProofTree(s, Rule("LImp", pos=i), (t1, t2)) if t2 else None

        # quantifier instantiation (keeps the quantified formula via contraction)
        witnesses = self.witnesses_for(s.context)
        for i, phi in enumerate(ant):
            if not isinstance(phi, Forall):
                continue
            for t in witnesses:
                inst = substitute(phi.body, {phi.var: t}, avoid=s.context.vars)
                if any(alpha_eq(inst, a) for a in ant):
                    continue
                dup = Sequent(s.context, ant[:i + 1] + (phi,) + ant[i + 1:], suc)
                inner = Sequent(
                    s.context, dup.antecedent[:i] + (inst,) + dup.antecedent[i + 1:], suc
                )
                sub = self.prove(inner, depth - 1, seen)
                if sub is not None:
                    step = ProofTree(dup, Rule("LForall", pos=i, term=t), (sub,))
                    return ProofTree(s, Rule("LC", pos=i), (step,))
        for j, phi in enumerate(suc):
            if not isinstance(phi, Exists):
                continue
            for t in witnesses:
                inst = substitute(phi.body, {phi.var: t}, avoid=s.context.vars)
                if any(alpha_eq(inst, b) for b in suc):
                    continue
                dup = Sequent(s.context, ant, suc[:j + 1] + (phi,) + suc[j + 1:])
                inner = Sequent(s.context, ant, dup.succedent[:j] + (inst,) + dup.succedent[j + 1:])
                sub = self.prove(inner, depth - 1, seen)
                if sub is not None:
                    step = ProofTree(dup, Rule("RExists", pos=j, term=t), (sub,))
                    return ProofTree(s, Rule("RC", pos=j), (step,))
        return None

    def _expand_land(self, s: Sequent, i: int, depth: int, seen) -> Optional[ProofTree]:
        """Contract the conjunction and keep both conjuncts."""
        phi = s.antecedent[i]
        assert isinstance(phi, And)
        dup = Sequent(s.context, s.antecedent[:i + 1] + (phi,) + s.antecedent[i + 1:], s.succedent)
        step1 = Sequent(s.context, dup.antecedent[:i] + (phi.left,) + dup.antecedent[i + 1:], s.succedent)
        step2 = Sequent(
            s.context, step1.antecedent[:i + 1] + (phi.right,) + step1.antecedent[i + 2:], s.succedent
        )
        sub = self.prove(step2, depth, seen)
        if sub is None:
            return None
        t1 = ProofTree(step1, Rule("LAnd", pos=i + 1, which=1), (sub,))
        t0 = ProofTree(dup, Rule("LAnd", pos=i, which=0), (t1,))
        return ProofTree(s, Rule("LC", pos=i), (t0,))

    def _expand_ror(self, s: Sequent, j: int, depth: int, seen) -> Optional[ProofTree]:
        phi = s.succedent[j]
        assert isinstance(phi, Or)
        dup = Sequent(s.context, s.antecedent, s.succedent[:j + 1] + (phi,) + s.succedent[j + 1:])
        step1 = Sequent(s.context, s.antecedent, dup.succedent[:j] + (phi.left,) + dup.succedent[j + 1:])
        step2 = Sequent(
            s.context, s.antecedent, step1.succedent[:j + 1] + (phi.right,) + step1.succedent[j + 2:]
        )
        sub = self.prove(step2, depth, seen)
        if sub is None:
            return None
        t1 = ProofTree(step1, Rule("ROr", pos=j + 1, which=1), (sub,))
        t0 = ProofTree(dup, Rule("ROr", pos=j, which=0), (t1,))
        return ProofTree(s, Rule("RC", pos=j), (t0,))

    def _expand_fresh(self, s: Sequent, tag: str, pos: int, depth: int, seen) -> Optional[ProofTree]:
        """Apply RForall/LExists, renaming the binder first when it clashes."""
        lst = s.antecedent if tag == "LExists" else s.succedent
        phi = lst[pos]
        renamed = phi
        if phi.var in s.context or not free_vars(phi.body) <= set(s.context.vars) | {phi.var}:
            renamed = rectify(phi, avoid=s.context.vars)
        if renamed.var in s.context:
            return None  # context exhausted the pool; cannot happen with fresh_vars
        new_ctx = s.context.extended(renamed.var)
        if tag == "LExists":
            mid = Sequent(s.context, lst[:pos] + (renamed,) + lst[pos + 1:], s.succedent)
            prem = Sequent(new_ctx, mid.antecedent[:pos] + (renamed.body,) + mid.antecedent[pos + 1:], s.succedent)
        else:
            mid = Sequent(s.context, s.antecedent, lst[:pos] + (renamed,) + lst[pos + 1:])
            prem = Sequent(new_ctx, s.antecedent, mid.succedent[:pos] + (renamed.body,) + mid.succedent[pos + 1:])
        sub = self.prove(prem, depth, seen)
        if sub is None:
            return None
        inner = ProofTree(mid, Rule(tag, pos=pos), (sub,))
        if renamed is phi:
            return inner
        return ProofTree(s, Rule("AlphaRename"), (inner,))


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
