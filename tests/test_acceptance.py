"""The acceptance suite: one test per criterion, each printing a PASS line
with its runtime and asserting the stated tolerance and time budget."""

import itertools
import random
import time

import pytest

from doctrina.lang import Context, Signature, Var, canonical_context
from doctrina.formula import (
    And,
    Bot,
    Exists,
    Forall,
    FormulaInContext,
    Imp,
    Not,
    Or,
    Pred,
    Top,
    qa_depth,
)
from doctrina.calculus import Budget, Sequent, check_proof, prove_bounded
from doctrina.boolalg import BoolAlg
from doctrina.category import chain_category, terminal_category
from doctrina.doctrine import (
    Doctrine,
    all_forced_universals,
    embedding_morphism,
    find_fibered_equalities,
    full_marking,
    hbx_doctrine,
    injectivity_report,
    random_doctrine,
    subset_doctrine,
    verify_boolean_doctrine,
    verify_elementary,
    verify_first_order,
)
from doctrina.stratify import colimit, stratify, verify_one_step, verify_qa_stratified, verify_qff
from doctrina.semantics import _countermodel_scan, countermodel_search, eval_in_structure
from doctrina.sexpr import structure_sexpr
from doctrina.syntactic import (
    BoundedOracle,
    Proved,
    Refuted,
    Theory,
    atom_pool,
    completion_leq,
    enumerate_qf,
    lt_leq,
    universal_consequences,
)
from doctrina.prefix import (
    PrefixAtom,
    does_not_generate_demo,
    intersection_experiment,
    level_atoms,
    prefix_entails,
    verify_T_axioms,
    word_countermodel,
)

from helpers import (
    brute_layer_index,
    enumerate_formulas,
    prefix_closures,
    random_sequent,
    refuted_by_closures,
    word_assignments,
)

SIG = Signature(predicates=(("P", 1), ("Q", 2)))


def report(n, name, t0, limit):
    elapsed = time.time() - t0
    verdict = "PASS" if elapsed <= limit else "FAIL"
    print(f"ACCEPTANCE {n} {name}: {verdict} ({elapsed:.1f}s / limit {limit}s)")
    assert elapsed <= limit, f"criterion {n} exceeded its {limit}s budget ({elapsed:.1f}s)"


def test_criterion_1_calculus_soundness_sweep():
    t0 = time.time()
    rng = random.Random(20240901)
    budget = Budget(max_depth=8, max_term_depth=2, max_nodes=2000)
    proved = 0
    for _ in range(200):
        s = random_sequent(rng)
        tree = prove_bounded(s, budget=budget)
        if tree is None:
            continue
        proved += 1
        result = check_proof(tree)
        assert result.ok, (s, result)
        # valid in every structure of size <= 3, by the scan without the
        # decision that `countermodel_search` runs first (the scan is compared
        # with a loop over enumerate_structures in tests/test_semantics.py)
        found = _countermodel_scan(s, (), SIG, 3)
        assert found is None, (s, structure_sexpr(found[0]))
    assert proved >= 40
    report(1, f"calculus soundness sweep ({proved} proofs over 200 goals)", t0, 60)


def test_criterion_2_empty_context_existential():
    t0 = time.time()
    s = Sequent(Context(), (), (Exists("x", Top()),))
    for depth in range(1, 13):
        assert prove_bounded(s, budget=Budget(max_depth=depth)) is None
    found = countermodel_search(s, (), Signature(), 0)
    assert found is not None
    m, assignment = found
    assert m.carrier == () and assignment == {}
    report(2, "empty-context existential unprovable, empty countermodel", t0, 5)


def test_criterion_3_prefix_oracle_equivalence():
    t0 = time.time()
    checked = 0
    sampled_certificates = 0
    for k in range(0, 4):
        atoms = level_atoms(canonical_context(k), 0, 3)
        sides = [()] + [(a,) for a in atoms] + [
            (atoms[i], atoms[j]) for i in range(len(atoms)) for j in range(i + 1, len(atoms))
        ]
        # word_refutable's test, with each positive side's prefix closures
        # built once per assignment and read for every negative side
        rhos = word_assignments(k)
        for pos in sides:
            closures = prefix_closures(list(pos), rhos)
            for neg in sides:
                expected = not refuted_by_closures(closures, list(neg), rhos)
                got = prefix_entails(list(pos), list(neg))
                assert got == expected, (k, pos, neg)
                checked += 1
                # certificate spot-checks on a slice of the refutable instances
                if not got and checked % 9973 == 0:
                    model, rho = word_countermodel(list(pos), list(neg), k)
                    assert verify_T_axioms(model, max([a.arity for a in pos + neg] + [0])) == []
                    struct = model.as_structure()
                    ctx = canonical_context(k)
                    assert all(eval_in_structure(a.formula(ctx), struct, rho) for a in pos)
                    assert not any(eval_in_structure(a.formula(ctx), struct, rho) for a in neg)
                    sampled_certificates += 1
    assert checked > 500000
    assert sampled_certificates > 10
    report(3, f"prefix criterion vs word-model sweep ({checked} instances)", t0, 120)


def test_criterion_4_intersection_lemma():
    t0 = time.time()
    result = intersection_experiment(1, 2, 3)
    assert result.ok, [v.line() for v in result.violations]
    excluded = [l for l in result.lines if l.startswith("EXCLUDED")]
    skipped = [l for l in result.lines if l.startswith("SKIP")]
    assert len(skipped) == 2
    assert excluded and all(" n=" in l for l in excluded)
    assert all(int(l.split("n=")[1].split()[0]) <= 3 for l in excluded)
    report(4, f"intersection lemma at desk scale ({len(excluded)} classes excluded)", t0, 60)


def test_criterion_5_no_least_fragment_separations():
    t0 = time.time()
    result = does_not_generate_demo()
    assert result.ok, [v.line() for v in result.violations]
    separated = [l for l in result.lines if l.startswith("SEPARATED")]
    assert len(separated) == 4
    report(5, "no-least-fragment separations certified", t0, 5)


def _doctrine_instances():
    out = [("subset(0,1)", subset_doctrine({"E": (), "U": ("*",)}))]
    for n in (1, 2, 3):
        cat = chain_category(n)
        for x in cat.objects:
            for atoms in (1, 2):
                out.append((f"hbx(chain{n},{x},B{1 << atoms})", hbx_doctrine(cat, x, BoolAlg(atoms))))
    return out


def test_criterion_6_doctrine_verifier_and_mutations():
    t0 = time.time()
    mutations = 0
    for name, d in _doctrine_instances():
        assert d.base.check() == []
        assert verify_boolean_doctrine(d) == [], name
        assert verify_first_order(d) == [], name
        # every single-entry reindex mutation is caught and pinpointed
        for f in sorted(d.reindex):
            table = d.reindex[f]
            target_alg = d.fiber(d.base.src(f))
            for i, v in enumerate(table):
                for v2 in target_alg.elements():
                    if v2 == v:
                        continue
                    bad = dict(d.reindex)
                    bad[f] = table[:i] + (v2,) + table[i + 1:]
                    violations = verify_boolean_doctrine(d.with_tables(reindex=bad))
                    assert violations, (name, f, i, v2)
                    src_obj = d.base.src(f)
                    assert any(
                        ("f", f) in viol.data or ("obj", src_obj) in viol.data
                        for viol in violations
                    ), (name, f)
                    mutations += 1
        # every single-entry quantifier mutation is caught and pinpointed
        assert d.forall is not None
        for (x, y) in sorted(d.forall):
            table = d.forall[(x, y)]
            alg = d.fiber(x)
            for i, v in enumerate(table):
                for v2 in alg.elements():
                    if v2 == v:
                        continue
                    bad = dict(d.forall)
                    bad[(x, y)] = table[:i] + (v2,) + table[i + 1:]
                    violations = verify_first_order(d.with_tables(forall=bad))
                    assert violations, (name, x, y, i, v2)
                    assert any(
                        (("X", x) in viol.data and ("Y", y) in viol.data)
                        or ("Y", y) in viol.data
                        for viol in violations
                    ), (name, x, y)
                    mutations += 1
    assert mutations > 100
    report(6, f"doctrine axiom verifier ({mutations} mutations caught)", t0, 60)


def test_criterion_7_embedding_injectivity():
    t0 = time.time()
    rng = random.Random(77)
    for i in range(50):
        d = random_doctrine(rng, max_objects=3, max_atoms=3)
        assert verify_boolean_doctrine(d) == []
        m = embedding_morphism(d)
        assert injectivity_report(m) == [], i
        # the injectivity witness: evaluation at the identity block
        for y in d.base.objects:
            homs = d.base.hom(y, y)
            idx = homs.index(d.base.ident[y])
            width = d.fiber(y).atoms
            offset = sum(
                d.fiber(x).atoms * len(d.base.hom(x, y))
                for x in d.base.objects[: d.base.objects.index(y)]
            )
            seen = set()
            for gamma in d.fiber(y).elements():
                block = (m.apply(y, gamma) >> (offset + idx * width)) & d.fiber(y).top
                assert block == gamma
                seen.add(block)
            assert len(seen) == d.fiber(y).size
    report(7, "embedding componentwise injective on 50 random doctrines", t0, 60)


def test_criterion_8_elementarity():
    t0 = time.time()
    d = subset_doctrine({"E": (), "U": ("*",)})
    family = find_fibered_equalities(d)
    assert family == d.delta  # exactly the diagonals
    assert verify_elementary(d, family) == []
    for name, inst in _doctrine_instances():
        fam = find_fibered_equalities(inst)
        assert fam is not None, name
        # uniqueness: the principal upset admits at most one generator
        for x in inst.base.objects:
            p = inst.base.product(x, x)[0]
            diag = inst.base.diagonal(x)
            upset = [
                b for b in inst.fiber(p).elements()
                if inst.re(diag, b) == inst.fiber(x).top
            ]
            generators = [
                c for c in upset if all(inst.fiber(p).leq(c, b) for b in upset)
            ]
            assert len(generators) <= 1, (name, x)
        assert verify_elementary(inst, fam) == [], name
    report(8, "fibered equalities: diagonals, uniqueness, all conditions", t0, 30)


def test_criterion_9_stratification_roundtrip():
    t0 = time.time()
    cases = []
    for name, d in _doctrine_instances():
        cases.append((name, d, full_marking(d)))
    cat = chain_category(2)
    alg = BoolAlg(2)
    ident = tuple(alg.elements())
    proper = Doctrine(cat, {"c1": alg, "c2": alg}, {f: ident for f in cat.morphisms})
    proper.forall = all_forced_universals(proper)
    cases.append(
        ("chain-with-proper-fragment", proper,
         {"c1": frozenset(alg.elements()), "c2": frozenset({alg.bot, alg.top})})
    )
    for name, d, marking in cases:
        assert verify_qff(d, marking) == [], name
        seq = stratify(d, marking)
        assert verify_qa_stratified(seq) == [], name
        for n in range(len(seq.levels) - 1):
            assert verify_one_step(d, seq.levels[n], seq.levels[n + 1]) == [], name
        rebuilt, p0 = colimit(seq)
        assert p0 == marking, name
        tables = d.forall if d.forall is not None else all_forced_universals(d)
        assert rebuilt.forall == tables, name
        assert rebuilt.fibers == d.fibers and rebuilt.reindex == d.reindex, name
        assert stratify(rebuilt, p0).levels == seq.levels, name
    report(9, f"stratify/colimit mutually inverse on {len(cases)} instances", t0, 30)


def test_criterion_10_universal_theory_completion():
    t0 = time.time()
    P = lambda v: Pred("P", (Var(v),))
    Q = lambda a, b: Pred("Q", (Var(a), Var(b)))
    theory = Theory(
        SIG,
        (
            Forall("x", P("x")),
            Forall("x", Forall("y", Imp(Q("x", "y"), Q("y", "x")))),
        ),
    )
    contexts = [canonical_context(n) for n in (0, 1, 2)]

    def bodies(ctx):
        return enumerate_qf(atom_pool(SIG, ctx), 4)

    universal = [
        s
        for s, _ in universal_consequences(
            theory, contexts, bodies, Budget(max_depth=6, max_nodes=4000)
        )
    ]
    oracle = BoundedOracle(theory, Budget(max_depth=6, max_nodes=2500), model_size=2)
    rng = random.Random(10)
    ctx = canonical_context(2)
    pool = enumerate_qf(atom_pool(SIG, ctx), 4)
    decided_pairs = 0
    for _ in range(50):
        a, b = rng.choice(pool), rng.choice(pool)
        phi, psi = FormulaInContext(a, ctx), FormulaInContext(b, ctx)
        lt = lt_leq(oracle, phi, psi)
        comp = completion_leq(
            theory, phi, psi, universal_theory=universal,
            budget=Budget(max_depth=6, max_nodes=2500), model_size=2,
        )
        if isinstance(lt, Proved) or isinstance(comp, Proved):
            assert not isinstance(lt, Refuted) and not isinstance(comp, Refuted), (a, b)
        if isinstance(lt, Refuted) or isinstance(comp, Refuted):
            assert not isinstance(lt, Proved) and not isinstance(comp, Proved), (a, b)
        if not isinstance(lt, type(None)):
            decided_pairs += isinstance(lt, (Proved, Refuted)) or isinstance(comp, (Proved, Refuted))
    assert decided_pairs >= 40
    report(10, f"completion vs provable consequence on 50 pairs ({decided_pairs} decided)", t0, 60)


def test_criterion_11_qa_depth_calibration():
    t0 = time.time()
    R = lambda a, b: Pred("R", (Var(a), Var(b)))
    assert qa_depth(R("x", "y")) == 0
    assert qa_depth(Forall("x", R("x", "y"))) == 1
    assert qa_depth(Exists("y", Forall("x", R("x", "y")))) == 2
    assert qa_depth(Forall("x", Forall("y", R("x", "y")))) == 1
    atoms = [Pred("P", (Var("x1"),)), Pred("P", (Var("x2"),))]
    formulas = enumerate_formulas(atoms, ["x1", "x2"], 7)
    cache: dict = {}
    assert len(formulas) > 30000
    for phi in formulas:
        assert qa_depth(phi) == brute_layer_index(phi, cache), repr(phi)
    report(11, f"alternation depth vs brute-force layers ({len(formulas)} formulas)", t0, 30)
