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
    atoms_of,
    canonical_form,
    dnf_formula,
    free_vars,
    is_quantifier_free,
    qa_depth,
    rectify,
    size,
    structure_symbols,
    substitute_formula,
    symbols_of,
    to_dnf,
)
from .calculus import Budget, ProofTree, Sequent, prove_bounded, prove_qf
from .doctrine import Doctrine, Violation, violation
from .semantics import FiniteStructure, countermodel_search


class SyntacticError(Exception):
    pass


@dataclass(frozen=True)
class Theory:
    """A signature with axioms; infinite axiom families are given by a rule
    producing the n-th sentence, with a per-query sufficient index bound.
    The n-th sentence of a family opens with exactly n universal
    quantifiers, so a formula's own prefix names the one family sentence it
    could be.  A theory is never changed after it is built, so the CLI
    shares one among the calls that read the same theory text."""

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
        if self.axiom_family is None:
            return False
        # alpha-variants keep the number of leading binders
        n, body = 0, phi
        while isinstance(body, Forall):
            n, body = n + 1, body.body
        return alpha_eq(phi, self.axiom_family(n))

    def relevant_axioms(self, family_up_to: int = -1) -> list[Formula]:
        out = list(self.axioms)
        if self.axiom_family is not None:
            out += [self.axiom_family(n) for n in range(family_up_to + 1)]
        return out


def max_pred_arity(phi: Formula) -> int:
    """The largest arity of an atom of `phi`, `=` counting 2; 0 without atoms."""
    preds, _, eq = symbols_of(phi)
    return max([2 * eq, *(n for _, n in preds)])


def predicates_of(phi: Formula) -> frozenset[tuple[str, int]]:
    """The predicates of `phi` with their arities, kept on the node."""
    return symbols_of(phi)[0]


def check_arities(theory: Theory, formulas: Iterable[Formula]) -> None:
    """Refuse a predicate or function symbol used at two arities, or at one
    other than the signature declares, in the formulas and the theory's
    axioms: a structure interprets each name at one arity.  A predicate
    name that only a predicate family covers keeps the family's own
    handling."""
    sig = theory.signature
    symbols = [symbols_of(f) for f in [*formulas, *theory.axioms]]
    for kind, declared, used in (
        ("predicate", dict(sig.predicates), set().union(*(p for p, _, _ in symbols))),
        ("function", dict(sig.functions), set().union(*(f for _, f, _ in symbols))),
    ):
        arities = dict(declared)
        for name, n in sorted(used):
            if kind == "predicate" and name not in arities and any(
                    f.arity_of(name) is not None for f in sig.families):
                continue
            first = arities.setdefault(name, n)
            if first != n:
                if name in declared:
                    raise SyntacticError(f"{kind} {name} is used at arity {n} but declared at arity {first}")
                raise SyntacticError(f"{kind} {name} is used at arities {first} and {n}")


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
    theory, decided by one run of `prove_qf`: a tautology is proved by the
    invertible rules closing on Id, and otherwise the first open atomic leaf
    gives the falsifying valuation (its antecedent atoms true, every other
    atom false).  Atoms with distinct argument tuples are independent, so
    that valuation lifts to a term-generated countermodel: its elements are
    the numbered subterms of the sequent, and each function table is total
    over them."""

    name = "truthtable"

    def __init__(self, signature: Signature):
        self.signature = signature

    def decide(self, s: Sequent) -> Verdict:
        formulas = list(s.antecedent) + list(s.succedent)
        if not all(is_quantifier_free(f) for f in formulas):
            return Unknown("not quantifier-free")
        if any(symbols_of(f)[2] for f in formulas):
            return Unknown("equality atoms need the bounded oracle")
        found = prove_qf(s)
        if isinstance(found, ProofTree):
            return Proved(found, self.name)
        return self._refute(s, found)

    def _refute(self, s: Sequent, leaf: Sequent) -> Verdict:
        atoms = sorted({a for f in s.antecedent + s.succedent for a in atoms_of(f)}, key=repr)
        terms = [t for a in atoms for t in a.args] + [Var(v) for v in s.context.vars]
        element = {t: i for i, t in enumerate(_distinct_subterms(terms))}
        carrier = tuple(range(len(element))) or (0,)
        signature, preds = structure_symbols(self.signature, s.antecedent + s.succedent)
        functions = {f: dict.fromkeys(itertools.product(carrier, repeat=n), 0) for f, n in signature.functions}
        for t, i in element.items():
            if isinstance(t, App):
                functions[t.symbol][tuple(element[a] for a in t.args)] = i
        predicates: dict[str, set] = {name: set() for name, _ in preds}
        for a in leaf.antecedent:
            predicates[a.name].add(tuple(element[t] for t in a.args))
        m = FiniteStructure(carrier, functions, {k: frozenset(v) for k, v in predicates.items()})
        assignment = {v: element.get(Var(v), 0) for v in s.context.vars}
        return Refuted(m, assignment, self.name)


def scan_symbols(signature: Signature, formulas, size: int) -> Optional[tuple[Signature, list[tuple[str, int]]]]:
    """`structure_symbols` for a scan up to carrier `size`, or None when the function symbols it adds have
    more than 4,096 tables at that size: k ** (k ** arity) each at size k, 4 for a unary one at size 2 but
    2 ** 32 for a 5-ary one.  Past 12 entries, any size of 2 or more has more, so no larger power is taken."""
    extended, preds = structure_symbols(signature, formulas)
    entries = sum(size ** n for _, n in extended.functions[len(signature.functions):])
    return None if size ** min(entries, 13) > 4096 else (extended, preds)


class BoundedOracle(EntailmentOracle):
    """Bounded countermodel enumeration against the bounded axiom set, over
    the symbols of the signature, goal and axioms (`scan_symbols`), run
    first, for the negative side; bounded proof search for the positive.
    Each decides first and skips its work when the relational decision
    knows the outcome; the decision is kept on the goal, so it is made once."""

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

    def refute(self, s: Sequent) -> Optional[Refuted]:
        """The first countermodel of the bounded axiom set that falsifies `s`; None also without a scan."""
        axioms = self.axioms_for(s)
        scan = scan_symbols(self.theory.signature, [*s.antecedent, *s.succedent, *axioms], self.model_size)
        found = None if scan is None else countermodel_search(s, axioms, scan[0], self.model_size, scan[1])
        return None if found is None else Refuted(found[0], found[1], self.name)

    def decide(self, s: Sequent) -> Verdict:
        # proofs are sound, so refuting first changes no verdict
        refuted = self.refute(s)
        if refuted is not None:
            return refuted
        proof = prove_bounded(s, self.axioms_for(s), self.budget, self.theory.signature)
        return Unknown("budget exhausted") if proof is None else Proved(proof, self.name)


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
    family values, connectives act pointwise, the universal quantifier uses
    the doctrine's tables and the existential one their De Morgan dual, and
    equality reindexes the fibered equality."""
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
            p = d.base.product(x, target.domain)[0]
            return alg.neg(d.fa(x, target.domain, d.fiber(p).neg(body)))
        raise SyntacticError(f"not a formula: {f!r}")

    return go(phi, fic.context)


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


# --- candidate spaces ----------------------------------------------------------


def atom_pool(signature: Signature, ctx: Context) -> list[Formula]:
    """Predicate atoms over the context variables (no function symbols)."""
    out: list[Formula] = []
    for name, arity in signature.predicates:
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
    element = LTElement(fic, oracle)
    for psi in candidates:
        same = element.equivalent(LTElement(FormulaInContext(psi, fic.context), oracle))
        if same:
            return QfResult("yes", psi)
        if same is None:
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
    element = LTElement(fic, oracle)
    for idx, psi in enumerate(candidates):
        depths[idx] = qa_depth(psi)
        same = element.equivalent(LTElement(FormulaInContext(psi, fic.context), oracle))
        if same:
            upper = min(upper, depths[idx])
        refuted[idx] = same is False
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
) -> list[tuple[Formula, ProofTree]]:
    """Universal sentences (closures of quantifier-free bodies) provable
    from the theory within the budget, with their certificates.

    Bodies are deduplicated up to propositional equivalence (by their prime
    implicant form); the bounded oracle refutes a survivor in a model of size
    2 of the listed axioms, with no sentence of the axiom family, before any
    proof search, and every returned sentence carries its tree."""
    oracle = BoundedOracle(theory, budget, 2, family_up_to=-1)
    out: list[tuple[Formula, ProofTree]] = []
    seen: set = set()
    for ctx in contexts:
        for body in bodies(ctx):
            normal = dnf_formula(to_dnf(body))
            key = (ctx.vars, canonical_form(normal))
            if key in seen:
                continue
            seen.add(key)
            sentence = universal_closure(body, ctx)
            verdict = oracle.decide(Sequent(Context(), (), (sentence,)))
            if isinstance(verdict, Proved):
                out.append((sentence, verdict.proof))
    return out


def completion_leq(
    theory: Theory,
    phi: FormulaInContext,
    psi: FormulaInContext,
    universal_theory: Sequence[Formula],
    budget: Budget = Budget(),
    model_size: int = 2,
) -> Verdict:
    """The order of the quantifier completion of the quantifier-free
    fragment, modulo `universal_theory`, the universal consequences of T
    that the caller enumerated (`universal_consequences`).

    phi <= psi is proved from those sentences, or refuted by a structure of size
    at most `model_size` that satisfies T's listed axioms and them, with an
    assignment that falsifies phi |- psi.  A model of T is a model of its
    universal consequences, so every refutation is sound, and it is a model
    of T unless T is given by an axiom family."""
    goal = Sequent(phi.context, (phi.formula,), (psi.formula,))
    # cheap refutation first: a countermodel of both axiom lists settles it
    axioms = [*theory.axioms, *universal_theory]
    scan = scan_symbols(theory.signature, [*axioms, phi.formula, psi.formula], model_size)
    found = None if scan is None else countermodel_search(goal, axioms, scan[0], model_size, scan[1])
    if found is not None:
        return Refuted(found[0], found[1], "completion")
    # preload only sentences about the predicates at hand, smallest first, so
    # the cut-free search stays tractable
    goal_preds = {n for n, _ in predicates_of(phi.formula) | predicates_of(psi.formula)}
    relevant = [
        s for s in universal_theory
        if {n for n, _ in predicates_of(s)} <= goal_preds and predicates_of(s)
    ]
    relevant.sort(key=size)
    # greedily drop sentences already true in every small model of the kept
    # ones (every valid sentence among them): redundant preloads only blow
    # up the search; a sentence no scan can check is kept
    kept: list[Formula] = []
    for s in relevant:
        if len(kept) >= 8:
            break
        sentence, scan = Sequent(Context(), (), (s,)), scan_symbols(theory.signature, [s, *kept], model_size)
        if scan is None or countermodel_search(sentence, kept, scan[0], model_size, scan[1]) is not None:
            kept.append(s)
    proof = prove_bounded(goal, tuple(kept), budget, theory.signature)
    if proof is not None:
        return Proved(proof, "completion")
    return Unknown("completion order undecided at this budget")


# --- the one-step layer over a quantifier-free oracle ------------------------------


@dataclass(frozen=True)
class LayerGenerator:
    qvars: tuple[str, ...]
    body: Formula

    def formula(self) -> Formula:
        return universal_closure(self.body, Context(self.qvars))

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
