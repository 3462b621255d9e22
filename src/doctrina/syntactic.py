"""Syntactic fibers modulo a theory, with pluggable entailment oracles.

Fibers of formulas modulo provable consequence are infinite, so they are
never materialized; instead, comparisons go through three-valued oracles
whose definite answers always carry a certificate: a proof tree accepted by
the checker, or a finite countermodel of the bounded axiom set.  On top of
the oracles sit the modulo-theory notions: quantifier-free membership,
alternation depth intervals, universal-consequence enumeration, and the
order of the quantifier completion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .lang import App, Context, CtxMorphism, Signature, Term, Var
from .formula import (
    And,
    Bot,
    Eq,
    Exists,
    Forall,
    Formula,
    FormulaInContext,
    Imp,
    Not,
    Or,
    Pred,
    Top,
    alpha_eq,
    canonical_form,
    free_vars,
    is_quantifier_free,
    qa_depth,
    rectify,
    size,
    subformulas,
    substitute_formula,
)
from .calculus import Budget, ProofTree, Sequent, prove_bounded, prove_qf
from .doctrine import Doctrine, Violation, violation
from .semantics import (
    FiniteStructure,
    countermodel_search,
    eval_in_structure,
)


class SyntacticError(Exception):
    pass


@dataclass
class Theory:
    """A signature with axioms; infinite axiom families are given by a rule
    producing the n-th sentence, with a per-query sufficient index bound."""

    signature: Signature
    axioms: tuple[Formula, ...] = ()
    axiom_family: Optional[Callable[[int], Formula]] = None

    def __post_init__(self):
        for ax in self.axioms:
            if free_vars(ax):
                raise SyntacticError(f"axiom {ax!r} is not a sentence")

    def contains_axiom(self, phi: Formula) -> bool:
        if any(alpha_eq(phi, ax) for ax in self.axioms):
            return True
        if self.axiom_family is not None:
            # family sentences grow with the index; no match past the size
            for n in range(size(phi) + 1):
                fam = self.axiom_family(n)
                if size(fam) > 4 * size(phi) + 8:
                    break
                if alpha_eq(phi, fam):
                    return True
        return False

    def relevant_axioms(self, family_up_to: int = -1) -> list[Formula]:
        out = list(self.axioms)
        if self.axiom_family is not None:
            out += [self.axiom_family(n) for n in range(family_up_to + 1)]
        return out


def max_pred_arity(phi: Formula) -> int:
    atoms = (f for f in subformulas(phi) if isinstance(f, (Pred, Eq)))
    return max((2 if isinstance(f, Eq) else len(f.args) for f in atoms), default=0)


def predicates_of(phi: Formula) -> set[tuple[str, int]]:
    return {(f.name, len(f.args)) for f in subformulas(phi) if isinstance(f, Pred)}


def _predicates_with(signature: Signature, formulas: Iterable[Formula]) -> list[tuple[str, int]]:
    """The signature's predicates and those occurring in `formulas`, sorted."""
    preds = set(signature.predicates)
    for f in formulas:
        preds |= predicates_of(f)
    return sorted(preds)


# --- oracle verdicts ---------------------------------------------------------


@dataclass(frozen=True)
class Proved:
    proof: ProofTree
    method: str = ""


@dataclass(frozen=True)
class Refuted:
    structure: FiniteStructure
    assignment: dict
    method: str = ""


@dataclass(frozen=True)
class Unknown:
    note: str = ""


Verdict = object  # Proved | Refuted | Unknown


class EntailmentOracle:
    """Base class: a decision procedure for sequents with a provenance tag.
    Definite verdicts are certified; Unknown is always allowed."""

    name = "oracle"

    def decide(self, s: Sequent) -> Verdict:
        raise NotImplementedError


def _distinct_subterms(terms: Iterable[Term]) -> list[Term]:
    seen: dict[Term, None] = {}

    def walk(t: Term):
        seen.setdefault(t)
        if isinstance(t, App):
            for a in t.args:
                walk(a)

    for t in terms:
        walk(t)
    return sorted(seen, key=repr)


class TruthTableOracle(EntailmentOracle):
    """Propositional reading of quantifier-free sequents over the empty
    theory: atoms with distinct argument tuples are independent, so a
    falsifying valuation always lifts to a term-generated countermodel, and
    a tautology is proved by the invertible rules closing on Id."""

    name = "truthtable"

    def __init__(self, signature: Signature):
        self.signature = signature

    def decide(self, s: Sequent) -> Verdict:
        from .formula import atoms_of, eval_prop

        formulas = list(s.antecedent) + list(s.succedent)
        if not all(is_quantifier_free(f) for f in formulas):
            return Unknown("not quantifier-free")
        if any(isinstance(a, Eq) for f in formulas for a in atoms_of(f)):
            return Unknown("equality atoms need the bounded oracle")
        atoms = sorted({a for f in formulas for a in atoms_of(f)}, key=repr)
        for bits in itertools.product((False, True), repeat=len(atoms)):
            val = dict(zip(atoms, bits))
            if all(eval_prop(a, val) for a in s.antecedent) and not any(
                eval_prop(b, val) for b in s.succedent
            ):
                return self._refute(s, atoms, val)
        proof = prove_qf(s, self.signature)
        if proof is None:
            raise SyntacticError(f"a tautology, but an atomic leaf of {s!r} stays open")
        return Proved(proof, self.name)

    def _refute(self, s: Sequent, atoms, val) -> Verdict:
        terms = [t for a in atoms for t in a.args] + [Var(v) for v in s.context.vars]
        carrier = tuple(map(repr, _distinct_subterms(terms))) or ("*",)
        names = {t: repr(t) for t in _distinct_subterms(terms)}
        functions: dict[str, dict[tuple, object]] = {}
        for t, nm in names.items():
            if isinstance(t, App):
                functions.setdefault(t.symbol, {})[tuple(names[a] for a in t.args)] = nm
        for fname, arity in self.signature.functions:
            table = functions.setdefault(fname, {})
            for args in itertools.product(carrier, repeat=arity):
                table.setdefault(args, carrier[0])
        predicates: dict[str, set] = {}
        for a, truth in val.items():
            predicates.setdefault(a.name, set())
            if truth:
                predicates[a.name].add(tuple(names[t] for t in a.args))
        m = FiniteStructure(carrier, functions, {k: frozenset(v) for k, v in predicates.items()})
        assignment = {v: names[Var(v)] if Var(v) in names else carrier[0] for v in s.context.vars}
        return Refuted(m, assignment, self.name)


class BoundedOracle(EntailmentOracle):
    """Bounded proof search for the positive side, bounded countermodel
    enumeration against the bounded axiom set for the negative side."""

    name = "bounded"

    def __init__(
        self,
        theory: Theory,
        budget: Budget = Budget(),
        model_size: int = 2,
        family_up_to: Optional[int] = None,
    ):
        self.theory = theory
        self.budget = budget
        self.model_size = model_size
        self.family_up_to = family_up_to

    def axioms_for(self, s: Sequent) -> list[Formula]:
        if self.theory.axiom_family is None:
            return list(self.theory.axioms)
        if self.family_up_to is not None:
            bound = self.family_up_to
        else:
            arities = [max_pred_arity(f) for f in s.antecedent + s.succedent] or [0]
            bound = max(arities)
        return self.theory.relevant_axioms(bound)

    def predicates_for(self, s: Sequent, axioms: list[Formula]) -> list[tuple[str, int]]:
        return _predicates_with(self.theory.signature, [*s.antecedent, *s.succedent, *axioms])

    def decide(self, s: Sequent) -> Verdict:
        axioms = self.axioms_for(s)
        proof = prove_bounded(s, axioms, self.budget, self.theory.signature)
        if proof is not None:
            return Proved(proof, self.name)
        found = countermodel_search(
            s, axioms, self.theory.signature, self.model_size, self.predicates_for(s, axioms)
        )
        if found is not None:
            return Refuted(found[0], found[1], self.name)
        return Unknown("budget exhausted")


def lt_leq(oracle: EntailmentOracle, phi: FormulaInContext, psi: FormulaInContext) -> Verdict:
    """The provable-consequence order on formulas in a common context."""
    if phi.context != psi.context:
        raise SyntacticError("lt_leq requires a common context")
    return oracle.decide(Sequent(phi.context, (phi.formula,), (psi.formula,)))


@dataclass
class LTElement:
    """A fiber element of the syntactic doctrine: a representative formula
    in context, compared through the oracle."""

    rep: FormulaInContext
    oracle: EntailmentOracle

    def leq(self, other: "LTElement") -> Verdict:
        return lt_leq(self.oracle, self.rep, other.rep)

    def equivalent(self, other: "LTElement") -> Optional[bool]:
        a, b = self.leq(other), other.leq(self)
        if isinstance(a, Proved) and isinstance(b, Proved):
            return True
        if isinstance(a, Refuted) or isinstance(b, Refuted):
            return False
        return None


# --- interpretation of formulas in finite doctrines ---------------------------


@dataclass
class DoctrineTarget:
    """A finite doctrine receiving the category of contexts: a chosen domain
    object interprets the single sort, canonical contexts go to its chosen
    powers, and function symbols go to base morphisms into the domain."""

    doctrine: Doctrine
    domain: str
    fn_map: dict[str, str] = field(default_factory=dict)

    def ctx_object(self, n: int) -> str:
        obj = self.doctrine.base.terminal
        for _ in range(n):
            obj = self.doctrine.base.product(obj, self.domain)[0]
        return obj

    def proj(self, n: int, i: int) -> str:
        """The morphism domain-power(n) -> domain picking component i."""
        if not 0 <= i < n:
            raise SyntacticError("projection index out of range")
        cat = self.doctrine.base
        objs = [self.ctx_object(k) for k in range(n + 1)]
        _, pr1, pr2 = cat.product(objs[n - 1], self.domain)
        if i == n - 1:
            return pr2
        return cat.compose(self.proj(n - 1, i), pr1)

    def term_morphism(self, t: Term, ctx: Context) -> str:
        cat = self.doctrine.base
        if isinstance(t, Var):
            return self.proj(len(ctx), ctx.index(t.name))
        assert isinstance(t, App)
        if t.symbol not in self.fn_map:
            raise SyntacticError(f"no base morphism for function symbol {t.symbol}")
        return cat.compose(self.fn_map[t.symbol], self.tuple_morphism(t.args, ctx))

    def tuple_morphism(self, terms: Sequence[Term], ctx: Context) -> str:
        cat = self.doctrine.base
        mor = cat.bang(self.ctx_object(len(ctx)))
        for t in terms:
            mor = cat.pair(mor, self.term_morphism(t, ctx))
        return mor


InterpretationFamily = dict[str, int]


def interpret(
    fic: FormulaInContext, target: DoctrineTarget, family: InterpretationFamily
) -> int:
    """Interpret a formula in context as a fiber element: atoms reindex the
    family values, connectives act pointwise, quantifiers use the doctrine's
    tables, and equality reindexes the fibered equality."""
    d = target.doctrine
    phi = rectify(fic.formula, avoid=fic.context.vars)

    def go(f: Formula, ctx: Context) -> int:
        alg = d.fiber(target.ctx_object(len(ctx)))
        if isinstance(f, Pred):
            if f.name not in family:
                raise SyntacticError(f"no interpretation for predicate {f.name}")
            return d.re(target.tuple_morphism(f.args, ctx), family[f.name])
        if isinstance(f, Eq):
            if d.delta is None:
                raise SyntacticError("equality atom needs an elementary doctrine")
            pair = d.base.pair(
                target.term_morphism(f.left, ctx), target.term_morphism(f.right, ctx)
            )
            return d.re(pair, d.delta[target.domain])
        if isinstance(f, Top):
            return alg.top
        if isinstance(f, Bot):
            return alg.bot
        if isinstance(f, Not):
            return alg.neg(go(f.body, ctx))
        if isinstance(f, And):
            return go(f.left, ctx) & go(f.right, ctx)
        if isinstance(f, Or):
            return go(f.left, ctx) | go(f.right, ctx)
        if isinstance(f, Imp):
            return alg.imp(go(f.left, ctx), go(f.right, ctx))
        if isinstance(f, (Forall, Exists)):
            inner = Context(ctx.vars + (f.var,))
            body = go(f.body, inner)
            x = target.ctx_object(len(ctx))
            if isinstance(f, Forall):
                return d.fa(x, target.domain, body)
            if d.exists is not None:
                return d.exists[(x, target.domain)][body]
            p = d.base.product(x, target.domain)[0]
            return alg.neg(d.fa(x, target.domain, d.fiber(p).neg(body)))
        raise SyntacticError(f"not a formula: {f!r}")

    return go(phi, fic.context)


def naturality_of_interpretation(
    fic: FormulaInContext,
    f: CtxMorphism,
    target: DoctrineTarget,
    family: InterpretationFamily,
) -> bool:
    """Substituting then interpreting agrees with interpreting then
    reindexing along the induced base morphism."""
    lhs = interpret(substitute_formula(fic, f), target, family)
    mor = target.tuple_morphism(f.components, f.source)
    rhs = target.doctrine.re(mor, interpret(fic, target, family))
    return lhs == rhs


def sequent_valid(s: Sequent, target: DoctrineTarget, family: InterpretationFamily) -> bool:
    """Interpreted conjunction of the antecedent below the interpreted
    disjunction of the succedent, in the fiber over the context object."""
    alg = target.doctrine.fiber(target.ctx_object(len(s.context)))
    lhs = alg.top
    for a in s.antecedent:
        lhs &= interpret(FormulaInContext(a, s.context), target, family)
    rhs = alg.bot
    for b in s.succedent:
        rhs |= interpret(FormulaInContext(b, s.context), target, family)
    return alg.leq(lhs, rhs)


def morphism_from_family(
    theory: Theory,
    target: DoctrineTarget,
    family: InterpretationFamily,
    family_up_to: int = 3,
    samples: Sequence[tuple[FormulaInContext, FormulaInContext]] = (),
    oracle: Optional[EntailmentOracle] = None,
) -> tuple[Callable[[FormulaInContext], int], list[Violation]]:
    """The evaluation morphism induced by an interpretation family: checks
    every bounded axiom interprets to top, exposes the evaluation map, and
    cross-checks well-definedness on sampled provable inequalities."""
    out: list[Violation] = []
    top = target.doctrine.fiber(target.ctx_object(0)).top
    for ax in theory.relevant_axioms(family_up_to):
        if interpret(FormulaInContext(ax, Context()), target, family) != top:
            out.append(violation("axiom-violated", axiom=repr(ax)))

    def evaluate(fic: FormulaInContext) -> int:
        return interpret(fic, target, family)

    if oracle is not None:
        for phi, psi in samples:
            v = lt_leq(oracle, phi, psi)
            if isinstance(v, Proved):
                alg = target.doctrine.fiber(target.ctx_object(len(phi.context)))
                if not alg.leq(evaluate(phi), evaluate(psi)):
                    out.append(
                        violation("well-definedness", left=repr(phi), right=repr(psi))
                    )
    return evaluate, out


# --- candidate spaces ----------------------------------------------------------


def atom_pool(
    signature: Signature,
    ctx: Context,
    max_arity: Optional[int] = None,
    family_arities: Iterable[int] = (),
) -> list[Formula]:
    """Predicate atoms over the context variables (no function symbols)."""
    out: list[Formula] = []
    preds = list(signature.predicates)
    for fam in signature.families:
        for n in family_arities:
            preds.append((fam.name(n), n))
    for name, arity in preds:
        if max_arity is not None and arity > max_arity:
            continue
        for vs in itertools.product(ctx.vars, repeat=arity):
            out.append(Pred(name, tuple(Var(v) for v in vs)))
    return sorted(out, key=repr)


def enumerate_qf(atoms: Sequence[Formula], max_size: int) -> list[Formula]:
    """All quantifier-free formulas over the given atoms up to tree size,
    deduplicated by shape."""
    by_size: dict[int, list[Formula]] = {1: list(atoms) + [Top(), Bot()]}
    for s in range(2, max_size + 1):
        layer: list[Formula] = []
        for f in by_size[s - 1]:
            layer.append(Not(f))
        for ls in range(1, s - 1):
            for a in by_size[ls]:
                for b in by_size[s - 1 - ls]:
                    layer.append(And(a, b))
                    layer.append(Or(a, b))
        by_size[s] = layer
    return [f for s in sorted(by_size) for f in by_size[s]]


def minterm_candidates(atoms: Sequence[Formula]) -> list[Formula]:
    """One representative per Boolean function of the given atoms, as a
    disjunction of minterms; 2^(2^n) candidates, so keep n small."""
    from .formula import conj, disj

    minterms = [
        conj([a if b else Not(a) for a, b in zip(atoms, bits)])
        for bits in itertools.product((False, True), repeat=len(atoms))
    ]
    return [
        disj([mt for mt, k in zip(minterms, keep) if k])
        for keep in itertools.product((False, True), repeat=len(minterms))
    ]


# --- modulo-theory notions ------------------------------------------------------


@dataclass(frozen=True)
class QfResult:
    kind: str  # "yes" | "no" | "unknown"
    witness: Optional[Formula] = None


def is_quantifier_free_modulo(
    oracle: EntailmentOracle,
    fic: FormulaInContext,
    candidates: Sequence[Formula],
    complete: bool = False,
) -> QfResult:
    """Search for a quantifier-free theory-equivalent among the candidates.
    `complete` asserts the candidate list exhausts a finite candidate space
    (then exhaustive refutation yields a definite No)."""
    if is_quantifier_free(fic.formula):
        return QfResult("yes", fic.formula)
    all_refuted = True
    for psi in candidates:
        psic = FormulaInContext(psi, fic.context)
        a = lt_leq(oracle, fic, psic)
        b = lt_leq(oracle, psic, fic)
        if isinstance(a, Proved) and isinstance(b, Proved):
            return QfResult("yes", psi)
        if not (isinstance(a, Refuted) or isinstance(b, Refuted)):
            all_refuted = False
    if complete and all_refuted:
        return QfResult("no")
    return QfResult("unknown")


def qa_depth_modulo(
    oracle: EntailmentOracle,
    fic: FormulaInContext,
    candidates: Sequence[Formula],
) -> tuple[int, int]:
    """A certified interval for the alternation depth modulo the theory:
    the upper bound from discovered equivalents, the lower bound from
    countermodels distinguishing the formula from every shallower bounded
    candidate."""
    upper = qa_depth(fic.formula)
    refuted: dict[int, bool] = {}
    depths: dict[int, int] = {}
    for idx, psi in enumerate(candidates):
        psic = FormulaInContext(psi, fic.context)
        depths[idx] = qa_depth(psi)
        a = lt_leq(oracle, fic, psic)
        b = lt_leq(oracle, psic, fic)
        if isinstance(a, Proved) and isinstance(b, Proved):
            upper = min(upper, depths[idx])
        refuted[idx] = isinstance(a, Refuted) or isinstance(b, Refuted)
    lower = 0
    for n in range(upper, -1, -1):
        if all(refuted[i] for i in depths if depths[i] < n):
            lower = n
            break
    return lower, upper


def universal_closure(body: Formula, ctx: Context) -> Formula:
    out = body
    for v in reversed(ctx.vars):
        out = Forall(v, out)
    return out


def universal_consequences(
    theory: Theory,
    contexts: Sequence[Context],
    bodies: Callable[[Context], Sequence[Formula]],
    budget: Budget = Budget(max_depth=5, max_nodes=2500),
    family_up_to: int = -1,
) -> list[tuple[Formula, ProofTree]]:
    """Universal sentences (closures of quantifier-free bodies) provable
    from the theory within the budget, with their certificates.

    Bodies are deduplicated up to propositional equivalence (by their prime
    implicant form), and candidates falsified in some small model of the
    bounded axiom set are skipped before any proof search: only survivors
    reach the prover, and every returned sentence carries its tree."""
    from .formula import dnf_formula, to_dnf

    axioms = theory.relevant_axioms(family_up_to)
    body_lists = [(ctx, list(bodies(ctx))) for ctx in contexts]
    preds = _predicates_with(theory.signature, axioms + [b for _, lst in body_lists for b in lst])
    out: list[tuple[Formula, ProofTree]] = []
    seen: set = set()
    for ctx, lst in body_lists:
        for body in lst:
            normal = dnf_formula(to_dnf(body))
            key = (ctx.vars, canonical_form(normal))
            if key in seen:
                continue
            seen.add(key)
            sentence = universal_closure(body, ctx)
            goal = Sequent(Context(), (), (sentence,))
            if countermodel_search(goal, axioms, theory.signature, 2, preds) is not None:
                continue
            proof = prove_bounded(goal, axioms, budget, theory.signature)
            if proof is not None:
                out.append((sentence, proof))
    return out


def equality_axiom_instances(
    signature: Signature,
    contexts: Sequence[Context],
    bodies: Callable[[Context], Sequence[Formula]],
) -> list[Formula]:
    """Bounded instances of the universal equality schemes: reflexivity of
    variables and substitutivity for quantifier-free bodies in one extra
    variable (enough for the variable-only desk-scale fragment)."""
    out: list[Formula] = []
    for ctx in contexts:
        if len(ctx) == 0:
            continue
        for v in ctx.vars:
            out.append(universal_closure(Eq(Var(v), Var(v)), ctx))
        for t in ctx.vars:
            for u in ctx.vars:
                if t == u:
                    continue
                for body in bodies(ctx):
                    prem = And(Eq(Var(t), Var(u)), body)
                    from .formula import substitute

                    swapped = substitute(body, {t: Var(u)})
                    out.append(universal_closure(Imp(prem, swapped), ctx))
    dedup: list[Formula] = []
    seen = set()
    for f in out:
        key = canonical_form(f)
        if key not in seen:
            seen.add(key)
            dedup.append(f)
    return dedup


def completion_leq(
    theory: Theory,
    phi: FormulaInContext,
    psi: FormulaInContext,
    universal_theory: Optional[Sequence[Formula]] = None,
    budget: Budget = Budget(),
    model_size: int = 2,
    consequence_contexts: Sequence[Context] = (),
    consequence_bodies: Optional[Callable[[Context], Sequence[Formula]]] = None,
) -> Verdict:
    """The order of the quantifier completion of the quantifier-free
    fragment: provability from the enumerated universal-consequence theory,
    refutation by countermodels of that theory.  For a signature with
    equality, the universal equality schemes are included."""
    if universal_theory is None:
        if consequence_bodies is None:
            raise SyntacticError("need either a universal theory or an enumeration recipe")
        universal_theory = [
            s for s, _ in universal_consequences(theory, consequence_contexts, consequence_bodies, budget)
        ]
        if theory.signature.has_equality:
            universal_theory = list(universal_theory) + equality_axiom_instances(
                theory.signature, consequence_contexts, consequence_bodies
            )
    goal = Sequent(phi.context, (phi.formula,), (psi.formula,))
    # cheap refutation first: a countermodel of the universal theory settles it
    preds = sorted(
        {(n, a) for f in list(universal_theory) + [phi.formula, psi.formula] for n, a in predicates_of(f)}
    )
    found = countermodel_search(goal, universal_theory, theory.signature, model_size, preds)
    if found is not None:
        return Refuted(found[0], found[1], "completion")
    # preload only informative sentences about the predicates at hand,
    # smallest first, so the cut-free search stays tractable
    from .formula import prop_tautology

    def strip(sentence: Formula) -> Formula:
        body = sentence
        while isinstance(body, Forall):
            body = body.body
        return body

    goal_preds = {n for n, _ in predicates_of(phi.formula) | predicates_of(psi.formula)}
    relevant = [
        s for s in universal_theory
        if {n for n, _ in predicates_of(s)} <= goal_preds
        and predicates_of(s)
        and not prop_tautology(strip(s))
    ]
    relevant.sort(key=size)
    # greedily drop sentences already true in every small model of the kept
    # ones: redundant preloads only blow up the search
    from .semantics import enumerate_structures

    all_models = list(enumerate_structures(theory.signature, model_size, preds))
    kept: list[Formula] = []
    kept_models = all_models
    for s in relevant:
        if len(kept) >= 8:
            break
        if all(eval_in_structure(s, m, {}) for m in kept_models):
            continue
        kept.append(s)
        kept_models = [m for m in kept_models if eval_in_structure(s, m, {})]
    proof = prove_bounded(goal, tuple(kept), budget, theory.signature)
    if proof is not None:
        return Proved(proof, "completion")
    return Unknown("completion order undecided at this budget")


# --- effectively propositional decisions -----------------------------------------


def _existential_count(phi: Formula, positive: bool) -> Optional[tuple[int, bool]]:
    """(number of existential-strength quantifiers, whether any occurs below
    a universal-strength one); None when function applications appear."""
    if isinstance(phi, Pred):
        if any(not isinstance(t, Var) for t in phi.args):
            return None
        return 0, False
    if isinstance(phi, Eq):
        if not (isinstance(phi.left, Var) and isinstance(phi.right, Var)):
            return None
        return 0, False
    if isinstance(phi, (Top, Bot)):
        return 0, False
    if isinstance(phi, Not):
        return _existential_count(phi.body, not positive)
    if isinstance(phi, (And, Or)):
        l = _existential_count(phi.left, positive)
        r = _existential_count(phi.right, positive)
        if l is None or r is None:
            return None
        return l[0] + r[0], l[1] or r[1]
    if isinstance(phi, Imp):
        l = _existential_count(phi.left, not positive)
        r = _existential_count(phi.right, positive)
        if l is None or r is None:
            return None
        return l[0] + r[0], l[1] or r[1]
    if isinstance(phi, (Forall, Exists)):
        is_exists = isinstance(phi, Exists) == positive
        inner = _existential_count(phi.body, positive)
        if inner is None:
            return None
        count, nested = inner
        if is_exists:
            return count + 1, nested
        # universal-strength: any existential inside leaves the fragment
        return count, nested or count > 0
    return None


def epr_bound(s: Sequent) -> Optional[int]:
    """The small-model bound for a sequent in the relational forall-exists
    prenexable fragment; None when the sequent falls outside it."""
    total, nested = 0, False
    for f in s.antecedent:
        r = _existential_count(f, True)
        if r is None:
            return None
        total, nested = total + r[0], nested or r[1]
    for f in s.succedent:
        r = _existential_count(f, False)
        if r is None:
            return None
        total, nested = total + r[0], nested or r[1]
    if nested:
        return None
    return max(1, len(s.context) + total)


def epr_valid(signature: Signature, s: Sequent) -> Optional[bool]:
    """Exact validity for sequents in the relational Bernays-Schoenfinkel
    fragment, by exhausting structures up to the small-model bound."""
    bound = epr_bound(s)
    if bound is None or signature.functions:
        return None
    preds = _predicates_with(signature, [*s.antecedent, *s.succedent])
    found = countermodel_search(s, (), signature, bound, preds)
    return found is None


# --- the one-step layer over a quantifier-free oracle ------------------------------


@dataclass(frozen=True)
class LayerGenerator:
    qvars: tuple[str, ...]
    body: Formula

    def formula(self) -> Formula:
        out: Formula = self.body
        for v in reversed(self.qvars):
            out = Forall(v, out)
        return out

    def __repr__(self):
        return repr(self.formula())


@dataclass
class OneStepLayer:
    context: Context
    generators: list[LayerGenerator]
    adjunction: dict[tuple[int, int], bool]          # (qf index, generator index)
    order: dict[tuple[int, int], bool]               # decided generator comparisons
    unresolved: list[tuple[int, int]]
    violations: list[Violation]


def one_step_layer(
    context: Context,
    p0_elements: Sequence[Formula],
    generators: Sequence[LayerGenerator],
    qf_entails: Callable[[Formula, Formula, Context], Optional[bool]],
    combo_decider: Callable[[Formula, Formula, Context], Optional[bool]],
) -> OneStepLayer:
    """A bounded presentation of the next layer over a quantifier-free
    oracle: the adjunction order of quantified generators against
    quantifier-free elements is decided exactly through the oracle, the
    order among generators through the supplied decider, with undecided
    pairs reported rather than guessed."""
    violations: list[Violation] = []
    adjunction: dict[tuple[int, int], bool] = {}
    for i, alpha in enumerate(p0_elements):
        if not is_quantifier_free(alpha):
            raise SyntacticError("layer-zero elements must be quantifier-free")
        for j, gen in enumerate(generators):
            extended = Context(context.vars + gen.qvars)
            v = qf_entails(alpha, gen.body, extended)
            if v is None:
                # the adjunction order must be decided exactly
                raise SyntacticError(
                    f"quantifier-free oracle is incomplete at {alpha!r} vs generator {j}"
                )
            adjunction[(i, j)] = v
    order: dict[tuple[int, int], bool] = {}
    unresolved: list[tuple[int, int]] = []
    for i, gi in enumerate(generators):
        for j, gj in enumerate(generators):
            v = combo_decider(gi.formula(), gj.formula(), context)
            if v is None:
                unresolved.append((i, j))
            else:
                order[(i, j)] = v
    # layer-zero reflection: generators with no quantified variables embed
    # order-faithfully
    for i, gi in enumerate(generators):
        for j, gj in enumerate(generators):
            if gi.qvars or gj.qvars:
                continue
            direct = qf_entails(gi.body, gj.body, context)
            via_layer = order.get((i, j))
            if direct is not None and via_layer is not None and direct != via_layer:
                violations.append(violation("reflection", left=i, right=j))
    return OneStepLayer(context, list(generators), adjunction, order, unresolved, violations)


def one_step_beck_chevalley(
    layer: OneStepLayer,
    substitutions: Sequence[CtxMorphism],
    combo_decider: Callable[[Formula, Formula, Context], Optional[bool]],
) -> list[Violation]:
    """Check, on resolved pairs, that substituting into a quantified
    generator agrees with quantifying the substituted body."""
    out: list[Violation] = []
    for f in substitutions:
        for j, gen in enumerate(layer.generators):
            quantified = FormulaInContext(gen.formula(), layer.context)
            lhs = substitute_formula(quantified, f).formula
            inner = FormulaInContext(
                gen.body, Context(layer.context.vars + gen.qvars)
            )
            ext = CtxMorphism(
                Context(f.source.vars + gen.qvars),
                Context(f.target.vars + gen.qvars),
                f.components + tuple(Var(v) for v in gen.qvars),
            )
            sub_body = substitute_formula(inner, ext).formula
            rhs = LayerGenerator(gen.qvars, sub_body).formula()
            le = combo_decider(lhs, rhs, f.source)
            ge = combo_decider(rhs, lhs, f.source)
            if le is None or ge is None:
                out.append(violation("one-step-bc-unresolved", gen=j, subst=repr(f)))
            elif not (le and ge):
                out.append(violation("one-step-bc", gen=j, subst=repr(f)))
    return out
