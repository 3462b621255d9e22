"""Independent oracles and generators shared across the test modules.

Everything here recomputes expected values by a route different from the
code under test: textual substitution instead of the morphism machinery, a
set-based layer constructor instead of the depth recursion, word-language
sweeps instead of the prefix criterion.
"""

from __future__ import annotations

import itertools
import pathlib
import random
import sys
from typing import Callable, Iterator, Optional, Sequence

from doctrina.boolalg import BoolAlg
from doctrina.lang import App, Context, CtxMorphism, Term, Var, canonical_context, fresh_vars, pool_var
from doctrina.formula import (
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
    conj,
    disj,
    FormulaInContext,
    free_vars,
    is_quantifier_free,
    size,
    subformulas,
    substitute_formula,
)
from doctrina.calculus import Sequent
from doctrina.doctrine import Violation, violation
from doctrina.prefix import PrefixAtom
from doctrina.syntactic import (
    DoctrineTarget,
    EntailmentOracle,
    InterpretationFamily,
    Proved,
    Theory,
    interpret,
    lt_leq,
)


# --- naive textual term substitution (oracle for compose_ctx) -----------------


def naive_subst(t: Term, mapping: dict[str, Term]) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    assert isinstance(t, App)
    return App(t.symbol, tuple(naive_subst(a, mapping) for a in t.args))


# --- the powerset-doctrine reading of a formula ---------------------------------


def satisfying_tuples(phi: Formula, ctx: Context, m) -> frozenset[tuple]:
    """The context assignments, as tuples in context order, at which `phi`
    holds in the finite structure `m`, by the reference evaluator."""
    from doctrina.semantics import eval_in_structure

    return frozenset(
        values
        for values in itertools.product(m.carrier, repeat=len(ctx))
        if eval_in_structure(phi, m, dict(zip(ctx.vars, values)))
    )


# --- brute-force quantifier-alternation layers ---------------------------------


def boolean_leaves(phi: Formula) -> list[Formula]:
    """The maximal non-Boolean subtrees of a formula's connective skeleton."""
    if isinstance(phi, (Top, Bot)):
        return []
    if isinstance(phi, Not):
        return boolean_leaves(phi.body)
    if isinstance(phi, (And, Or, Imp)):
        return boolean_leaves(phi.left) + boolean_leaves(phi.right)
    return [phi]


def block_strippings(phi: Formula) -> list[Formula]:
    """All proper strippings of the leading same-quantifier block: the bodies
    obtainable by removing one or more leading binders of the same kind."""
    out = []
    kind = type(phi)
    if kind not in (Forall, Exists):
        return out
    core = phi
    while isinstance(core, kind):
        core = core.body
        out.append(core)
    return out


def brute_layer_index(phi: Formula, universe_cache: dict) -> int:
    """The least n with phi in the n-th layer, where layer 0 is the set of
    quantifier-free formulas and layer n+1 is the Boolean closure of all
    one-kind quantifier blocks over layer-n formulas.

    Memoized by object identity: enumerated universes share subtree objects,
    and the cached keep-alive list pins them so ids stay valid."""
    members = universe_cache.setdefault("members", {})
    keep = universe_cache.setdefault("keep", [])
    leaves_of = universe_cache.setdefault("leaves", {})

    def leaves(f: Formula):
        got = leaves_of.get(id(f))
        if got is None:
            got = boolean_leaves(f)
            leaves_of[id(f)] = got
            keep.append(f)
        return got

    def in_layer(f: Formula, n: int) -> bool:
        key = (id(f), n)
        cached = members.get(key)
        if cached is not None:
            return cached
        if n == 0:
            result = is_quantifier_free(f)
        else:
            result = True
            for leaf in leaves(f):
                if in_layer(leaf, n - 1):
                    continue
                if isinstance(leaf, (Forall, Exists)) and any(
                    in_layer(rest, n - 1) for rest in block_strippings(leaf)
                ):
                    continue
                result = False
                break
        members[key] = result
        keep.append(f)
        return result

    n = 0
    while not in_layer(phi, n):
        n += 1
    return n


def enumerate_formulas(atoms: list[Formula], variables: list[str], max_size: int) -> list[Formula]:
    """All rectified formulas up to the given tree size over the atoms, with
    binders drawn from the variable pool.  Rectification is tracked
    incrementally as (formula, free set, bound set) triples, so no candidate
    is built and then re-walked."""
    base = [(a, free_vars(a), frozenset()) for a in atoms]
    base += [(Top(), frozenset(), frozenset()), (Bot(), frozenset(), frozenset())]
    by_size: dict[int, list[tuple]] = {1: base}
    for s in range(2, max_size + 1):
        layer: list[tuple] = []
        for f, fr, bd in by_size[s - 1]:
            layer.append((Not(f), fr, bd))
            for v in variables:
                if v not in bd:
                    layer.append(((Forall(v, f)), fr - {v}, bd | {v}))
                    layer.append(((Exists(v, f)), fr - {v}, bd | {v}))
        for ls in range(1, s - 1):
            for a, fa, ba in by_size[ls]:
                for b, fb, bb in by_size[s - 1 - ls]:
                    if ba & bb or ba & fb or bb & fa:
                        continue
                    fr, bd = fa | fb, ba | bb
                    layer.append((And(a, b), fr, bd))
                    layer.append((Or(a, b), fr, bd))
                    layer.append((Imp(a, b), fr, bd))
        by_size[s] = layer
    return [f for s in sorted(by_size) for f, _, _ in by_size[s]]


def rebuilt_canonical_form(phi: Formula) -> Formula:
    """The canonical form as a walk that rebuilds every node and draws one
    pool name per node, using one per binder in encounter order: the
    reference for `formula.canonical_form`."""
    supply = iter(fresh_vars(size(phi), free_vars(phi)))

    def walk(f: Formula, env: dict[str, Term]) -> Formula:
        if isinstance(f, Pred):
            return Pred(f.name, tuple(naive_subst(a, env) for a in f.args))
        if isinstance(f, Eq):
            return Eq(naive_subst(f.left, env), naive_subst(f.right, env))
        if isinstance(f, (Top, Bot)):
            return f
        if isinstance(f, Not):
            return Not(walk(f.body, env))
        if isinstance(f, (And, Or, Imp)):
            return type(f)(walk(f.left, env), walk(f.right, env))
        v = next(supply)
        return type(f)(v, walk(f.body, {**env, f.var: Var(v)}))

    return walk(phi, {})


# --- random sequents over a small relational signature --------------------------


def random_formula(rng: random.Random, variables: tuple[str, ...], size: int, equality: bool = False) -> Formula:
    """A formula over P/1 and Q/2, and = between variables when asked."""
    atoms = [
        Pred("P", (Var(rng.choice(variables)),)),
        Pred("Q", (Var(rng.choice(variables)), Var(rng.choice(variables)))),
        Top(),
        Bot(),
    ]
    if equality:
        atoms.append(Eq(Var(rng.choice(variables)), Var(rng.choice(variables))))
    if size <= 1:
        return rng.choice(atoms)
    kind = rng.randrange(6)
    if kind == 0:
        return Not(random_formula(rng, variables, size - 1, equality))
    if kind in (1, 2, 3):
        ls = rng.randint(1, size - 2) if size > 2 else 1
        ctor = (And, Or, Imp)[kind - 1]
        return ctor(
            random_formula(rng, variables, ls, equality),
            random_formula(rng, variables, size - 1 - ls, equality),
        )
    fresh = pool_var(rng.randint(4, 6))
    body_vars = tuple(variables) + ((fresh,) if fresh not in variables else ())
    ctor = Forall if kind == 4 else Exists
    from doctrina.formula import rectify

    return rectify(ctor(fresh, random_formula(rng, body_vars, size - 1, equality)), avoid=variables)


def random_sequent(rng: random.Random, max_size: int = 5, equality: bool = False) -> Sequent:
    ctx = Context(tuple(pool_var(i) for i in range(1, rng.randint(1, 3) + 1)))
    n_ant = rng.randint(0, 2)
    n_suc = rng.randint(1, 2)
    ants = tuple(random_formula(rng, ctx.vars, rng.randint(1, max_size), equality) for _ in range(n_ant))
    sucs = tuple(random_formula(rng, ctx.vars, rng.randint(1, max_size), equality) for _ in range(n_suc))
    return Sequent(ctx, ants, sucs)


def random_qf_formula(
    rng: random.Random, variables: tuple[str, ...], size: int, equality: bool = False
) -> Formula:
    """A quantifier-free formula over P/1 and Q/2, and = when asked, applied
    to variables among `variables` and to f of them."""

    def term() -> Term:
        v = Var(rng.choice(variables))
        return App("f", (v,)) if rng.random() < 0.25 else v

    if size <= 1:
        atoms = [Pred("P", (term(),)), Pred("Q", (term(), term())), Top(), Bot()]
        return rng.choice(atoms + [Eq(term(), term())] * equality)
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_qf_formula(rng, variables, size - 1, equality))
    ls = rng.randint(1, size - 2) if size > 2 else 1
    return (And, Or, Imp)[kind - 1](
        random_qf_formula(rng, variables, ls, equality),
        random_qf_formula(rng, variables, size - 1 - ls, equality),
    )


def random_prefix_formula(rng: random.Random, k: int, size: int) -> Formula:
    """A quantifier-free formula over R0..R3 applied to variables among x1..xk."""
    if size <= 1:
        m = rng.randint(0, 3)
        return Pred(f"R{m}", tuple(Var(pool_var(rng.randint(1, k))) for _ in range(m)))
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_prefix_formula(rng, k, size - 1))
    ls = rng.randint(1, size - 2) if size > 2 else 1
    ctor = (And, Or, Imp)[kind - 1]
    return ctor(random_prefix_formula(rng, k, ls), random_prefix_formula(rng, k, size - 1 - ls))


def minterm_candidates(atoms: list[Formula]) -> list[Formula]:
    """One representative per Boolean function of the given atoms, as a
    disjunction of minterms; 2^(2^n) candidates, so keep n small."""
    minterms = [
        conj([a if b else Not(a) for a, b in zip(atoms, bits)])
        for bits in itertools.product((False, True), repeat=len(atoms))
    ]
    return [
        disj([mt for mt, k in zip(minterms, keep) if k])
        for keep in itertools.product((False, True), repeat=len(minterms))
    ]


# --- the plain recursive printers (oracle for the text sexpr keeps) ---------------


def reference_term_text(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    return "(" + " ".join([t.symbol] + [reference_term_text(a) for a in t.args]) + ")"


def reference_formula_text(phi: Formula) -> str:
    """The document text of `phi`, printed afresh from its fields at every
    call, with nothing read from or kept on the nodes."""
    if isinstance(phi, Top):
        return "true"
    if isinstance(phi, Bot):
        return "false"
    if isinstance(phi, Pred):
        if not phi.args:
            return phi.name
        return "(" + " ".join([phi.name] + [reference_term_text(t) for t in phi.args]) + ")"
    if isinstance(phi, Eq):
        return f"(= {reference_term_text(phi.left)} {reference_term_text(phi.right)})"
    if isinstance(phi, Not):
        return f"(not {reference_formula_text(phi.body)})"
    if isinstance(phi, (And, Or, Imp)):
        head = {And: "and", Or: "or", Imp: "imp"}[type(phi)]
        return f"({head} {reference_formula_text(phi.left)} {reference_formula_text(phi.right)})"
    head = "forall" if isinstance(phi, Forall) else "exists"
    return f"({head} {phi.var} {reference_formula_text(phi.body)})"


def reference_proof_text(p) -> str:
    """The certificate text of a proof tree, by recursion, each conclusion
    printed afresh with `reference_formula_text`."""
    from doctrina.calculus import _POSITIONAL

    r = p.rule
    parts = [r.tag]
    if r.tag in _POSITIONAL:
        parts.append(f"(pos {r.pos})")
    if r.tag in ("LAnd", "ROr"):
        parts.append(f"(which {r.which})")
    if r.term is not None:
        parts.append(f"(term {reference_term_text(r.term)})")
    if r.term2 is not None:
        parts.append(f"(term2 {reference_term_text(r.term2)})")
    if r.var is not None:
        parts.append(f"(var {r.var})")
    if r.formula is not None:
        parts.append(f"(formula {reference_formula_text(r.formula)})")
    s = p.conclusion
    sections = [
        "ctx" + "".join(" " + v for v in s.context.vars),
        "ants" + "".join(" " + reference_formula_text(f) for f in s.antecedent),
        "sucs" + "".join(" " + reference_formula_text(f) for f in s.succedent),
    ]
    concl = "(seq " + " ".join(f"({section})" for section in sections) + ")"
    premises = "".join(" " + reference_proof_text(q) for q in p.premises)
    return f"(proof (rule {' '.join(parts)}) (concl {concl}) (premises{premises}))"


# --- the small-model exhaustion of the relational fragment (checks decide_relational)


def _existential_count(phi: Formula, positive: bool):
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
    if isinstance(phi, (And, Or, Imp)):
        left = _existential_count(phi.left, positive != isinstance(phi, Imp))
        right = _existential_count(phi.right, positive)
        if left is None or right is None:
            return None
        return left[0] + right[0], left[1] or right[1]
    if isinstance(phi, (Forall, Exists)):
        inner = _existential_count(phi.body, positive)
        if inner is None:
            return None
        count, nested = inner
        if isinstance(phi, Exists) == positive:
            return count + 1, nested
        # universal-strength: any existential inside leaves the fragment
        return count, nested or count > 0
    return None


def epr_bound(s: Sequent):
    """The small-model bound of a sequent in the relational forall-exists
    prenexable fragment: the context plus its existential-strength
    quantifiers, at least 1; None outside the fragment."""
    total = 0
    for f, positive in [(f, True) for f in s.antecedent] + [(f, False) for f in s.succedent]:
        r = _existential_count(f, positive)
        if r is None or r[1]:
            return None
        total += r[0]
    return max(1, len(s.context) + total)


def exhaustive_epr_valid(signature, s: Sequent):
    """Validity in the relational Bernays-Schoenfinkel fragment by scanning
    every structure up to the small-model bound, without the decision that
    `countermodel_search` runs first; None outside it."""
    from doctrina.semantics import _countermodel_scan
    from doctrina.syntactic import BoundedOracle, Theory

    bound = epr_bound(s)
    if bound is None or signature.functions:
        return None
    predicates = BoundedOracle(Theory(signature)).predicates_for(s, [])
    return _countermodel_scan(s, (), signature, bound, predicates) is None


def reference_total(s: Sequent, axioms, interpreted: set[str]) -> bool:
    """`semantics._total` by a walk over every atom of `s` and `axioms`, not
    by the symbols kept on the formulas: every predicate interpreted, every
    argument of every atom a variable, every axiom a sentence."""
    for phi in (*s.antecedent, *s.succedent, *axioms):
        for f in subformulas(phi):
            if isinstance(f, Pred):
                if f.name not in interpreted or any(not isinstance(t, Var) for t in f.args):
                    return False
            elif isinstance(f, Eq) and not (isinstance(f.left, Var) and isinstance(f.right, Var)):
                return False
    return not any(free_vars(ax) for ax in axioms)


def record_blocks(monkeypatch) -> list[int]:
    """Patch `CarrierStructures.blocks` to record the first index of every
    block a countermodel scan enumerates, in the list returned."""
    from doctrina.semantics import CarrierStructures

    scanned = []
    blocks = CarrierStructures.blocks

    def recording(numbered, pick):
        for first, block in blocks(numbered, pick):
            scanned.append(first)
            yield first, block

    monkeypatch.setattr(CarrierStructures, "blocks", recording)
    return scanned


def bench_workloads():
    """The benchmark's `workloads` module, whose generators the tests reuse."""
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


# --- exhaustive truncated word-model search (oracle for the prefix criterion) ----


def word_assignments(k: int) -> list[tuple[str, ...]]:
    """Every assignment of the k context variables to letters of a k-letter
    alphabet."""
    letters = tuple(f"a{i}" for i in range(1, k + 1))
    return list(itertools.product(letters, repeat=k))


def prefix_closures(positives: list[PrefixAtom], rhos: list[tuple[str, ...]]) -> list[set]:
    """Under each assignment, the prefix closure of the positive words."""
    out = []
    for rho in rhos:
        closure = set()
        for p in positives:
            w = p.word(rho)
            closure.update(w[:i] for i in range(len(w) + 1))
        out.append(closure)
    return out


def refuted_by_closures(closures: list[set], negatives: list[PrefixAtom], rhos: list[tuple[str, ...]]) -> bool:
    """Whether under some assignment no negative word lies in the positive
    side's prefix closure `closures` (from `prefix_closures` on `rhos`)."""
    return any(all(n.word(rho) not in closure for n in negatives) for rho, closure in zip(rhos, closures))


def word_refutable(positives: list[PrefixAtom], negatives: list[PrefixAtom], k: int) -> bool:
    """Whether some assignment of the context variables to letters admits a
    truncated word model satisfying every positive atom and no negative one.

    Sweeps every assignment into a k-letter alphabet; for a fixed assignment
    only the prefix closure of the positive words needs checking, since any
    larger language still satisfies the positives and can only lose the
    falsification.  With no positives the closures are empty, and the empty
    language always refutes."""
    rhos = word_assignments(k)
    return refuted_by_closures(prefix_closures(positives, rhos), negatives, rhos)


# --- one-entry doctrine mutants ----------------------------------------------


def one_entry_mutant(rng, d, table_kind):
    """A copy of `d` with one entry of one reindexing or universal table
    changed to another element of the same fiber."""
    if table_kind == "forall":
        tables = d.forall
        keys = [k for k in sorted(tables) if d.fiber(k[0]).atoms > 0]
        top_of = lambda k: d.fiber(k[0]).top
    else:
        tables = d.reindex
        keys = [f for f in sorted(tables) if d.fiber(d.base.morphisms[f][0]).atoms > 0]
        top_of = lambda f: d.fiber(d.base.morphisms[f][0]).top
    key = rng.choice(keys)
    table = list(tables[key])
    table[rng.randrange(len(table))] ^= rng.randint(1, top_of(key))
    return d.with_tables(**{table_kind: {**tables, key: tuple(table)}})


# --- constructions that only the tests call ---------------------------------


def monotone_maps(src: BoolAlg, dst: BoolAlg) -> Iterator[tuple[int, ...]]:
    """All monotone maps src -> dst, as element tables.  Exponential; meant
    for adjoint-uniqueness sweeps on small fibers."""
    elems = list(src.elements())

    def extend(par: list[int]) -> Iterator[tuple[int, ...]]:
        i = len(par)
        if i == len(elems):
            yield tuple(par)
            return
        for v in dst.elements():
            ok = True
            for j in range(i):
                if src.leq(elems[j], elems[i]) and not dst.leq(par[j], v):
                    ok = False
                    break
                if src.leq(elems[i], elems[j]) and not dst.leq(v, par[j]):
                    ok = False
                    break
            if ok:
                par.append(v)
                yield from extend(par)
                par.pop()

    yield from extend([])


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
