import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from doctrina.lang import App, Context, CtxMorphism, Signature, Var, canonical_context
from doctrina.formula import (
    And,
    Bot,
    Exists,
    Forall,
    FormulaError,
    FormulaInContext,
    Imp,
    Not,
    Or,
    Pred,
    Top,
    free_vars,
    structure_symbols,
)
from doctrina.calculus import (
    Budget,
    OpenBranch,
    ProofTree,
    Sequent,
    check_proof,
    decide_relational,
    prove_bounded,
    prove_qf,
)
from doctrina.doctrine import product_doctrine, subset_doctrine
from doctrina.semantics import (
    FiniteStructure,
    _countermodel_scan,
    countermodel_search,
    eval_in_structure,
    eval_term,
)
from doctrina.formula import substitute_formula
from doctrina.sexpr import formula_sexpr, parse_sexpr, parse_structure, proof_sexpr, structure_sexpr
from helpers import (
    bench_workloads,
    epr_bound,
    exhaustive_epr_valid,
    goals_mixing_f,
    morphism_from_family,
    naturality_of_interpretation,
    random_qf_formula,
    random_sequent,
    satisfying_tuples,
)
from doctrina.prefix import PrefixOracle, prefix_theory
from doctrina.syntactic import (
    BoundedOracle,
    DoctrineTarget,
    LTElement,
    LayerGenerator,
    Proved,
    QfResult,
    Refuted,
    Theory,
    TruthTableOracle,
    Unknown,
    completion_leq,
    enumerate_qf,
    atom_pool,
    interpret,
    is_quantifier_free_modulo,
    lt_leq,
    one_step_layer,
    one_step_beck_chevalley,
    qa_depth_modulo,
    scan_symbols,
    sequent_valid,
    universal_consequences,
    universal_closure,
)

SIG = Signature(predicates=(("P", 1), ("Q", 2)))
EMPTY_THEORY = Theory(SIG)


def P(v):
    return Pred("P", (Var(v),))


def Q(a, b):
    return Pred("Q", (Var(a), Var(b)))


def subset01():
    return subset_doctrine({"E": (), "U": ("*",)})


# --- oracles ------------------------------------------------------------------


def test_truthtable_oracle_proves_tautology():
    oracle = TruthTableOracle(SIG)
    s = Sequent(Context(("x",)), (), (Or(P("x"), Not(P("x"))),))
    v = oracle.decide(s)
    assert isinstance(v, Proved)
    assert check_proof(v.proof).ok


def test_truthtable_oracle_proves_tautologies_of_any_depth():
    # ten excluded middles under nine conjunctions: one more branching rule
    # than the default proof-depth budget allows
    from doctrina.formula import conj

    xs = tuple(f"x{i}" for i in range(10))
    goal = conj([Or(P(x), Not(P(x))) for x in xs])
    v = TruthTableOracle(SIG).decide(Sequent(Context(xs), (), (goal,)))
    assert isinstance(v, Proved)
    assert check_proof(v.proof, (), SIG).ok


def test_truthtable_oracle_refutes_with_certificate():
    oracle = TruthTableOracle(SIG)
    s = Sequent(Context(("x", "y")), (Q("x", "y"),), (Q("y", "x"),))
    v = oracle.decide(s)
    assert isinstance(v, Refuted)
    m, rho = v.structure, v.assignment
    assert all(eval_in_structure(a, m, rho) for a in s.antecedent)
    assert not any(eval_in_structure(b, m, rho) for b in s.succedent)


def test_truthtable_oracle_handles_function_terms():
    from doctrina.lang import App

    sig = Signature(functions=(("f", 1),), predicates=(("P", 1),))
    oracle = TruthTableOracle(sig)
    fx = App("f", (Var("x"),))
    s = Sequent(Context(("x",)), (Pred("P", (fx,)),), (P("x"),))
    v = oracle.decide(s)
    assert isinstance(v, Refuted)
    assert eval_in_structure(s.antecedent[0], v.structure, v.assignment)
    assert not eval_in_structure(s.succedent[0], v.structure, v.assignment)


def test_truthtable_oracle_declines_quantifiers():
    oracle = TruthTableOracle(SIG)
    s = Sequent(Context(), (), (Exists("x", Top()),))
    assert isinstance(oracle.decide(s), Unknown)


FSIG = Signature(functions=(("f", 1),), predicates=(("P", 1), ("Q", 2)))


def brute_valid(s: Sequent) -> bool:
    """The reference decision: no valuation of the sequent's atoms makes
    every antecedent true and every succedent false."""
    from doctrina.formula import atoms_of, eval_prop

    atoms = sorted({a for f in s.antecedent + s.succedent for a in atoms_of(f)}, key=repr)
    for bits in itertools.product((False, True), repeat=len(atoms)):
        val = dict(zip(atoms, bits))
        if all(eval_prop(a, val) for a in s.antecedent) and not any(
            eval_prop(b, val) for b in s.succedent
        ):
            return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.integers(1, 3), st.integers(0, 2), st.integers(0, 2))
def test_truthtable_oracle_matches_the_valuation_loop(seed, k, n_ant, n_suc):
    rng = random.Random(seed)
    xs = tuple(f"x{i}" for i in range(1, k + 1))
    s = Sequent(
        Context(xs),
        tuple(random_qf_formula(rng, xs, rng.randint(1, 7)) for _ in range(n_ant)),
        tuple(random_qf_formula(rng, xs, rng.randint(1, 7)) for _ in range(n_suc)),
    )
    v = TruthTableOracle(FSIG).decide(s)
    if brute_valid(s):
        assert isinstance(v, Proved), s
        assert v.proof.conclusion == s and check_proof(v.proof, (), FSIG).ok, s
    else:
        assert isinstance(v, Refuted), s
        # the printed certificate reads back, and the structure read falsifies s
        m = parse_structure(parse_sexpr(structure_sexpr(v.structure)))
        rho = {x: str(e) for x, e in v.assignment.items()}
        assert all(eval_in_structure(a, m, rho) for a in s.antecedent), s
        assert not any(eval_in_structure(b, m, rho) for b in s.succedent), s


def test_truthtable_oracle_decides_forty_atoms_with_certificates():
    # one decision, not a loop over 2**40 valuations: a tautology over forty
    # atoms is proved, and a goal falsified only by the valuation that makes
    # all forty antecedent atoms true is refuted
    from doctrina.formula import conj

    xs = tuple(f"x{i}" for i in range(40))
    ctx = Context(xs)
    tautology = Sequent(ctx, (), (conj([Or(P(x), Not(P(x))) for x in xs]),))
    v = TruthTableOracle(SIG).decide(tautology)
    assert isinstance(v, Proved)
    assert check_proof(v.proof, (), SIG).ok
    goal = Sequent(ctx, (conj([Q(x, x) for x in xs]),), (Or(P("x0"), Q("x0", "x1")),))
    v = TruthTableOracle(SIG).decide(goal)
    assert isinstance(v, Refuted)
    assert eval_in_structure(goal.antecedent[0], v.structure, v.assignment)
    assert not eval_in_structure(goal.succedent[0], v.structure, v.assignment)


def test_bounded_oracle_three_values():
    oracle = BoundedOracle(EMPTY_THEORY, Budget(max_depth=6), model_size=2)
    proved = oracle.decide(Sequent(Context(("x",)), (P("x"),), (P("x"),)))
    assert isinstance(proved, Proved) and check_proof(proved.proof).ok
    refuted = oracle.decide(Sequent(Context(("x",)), (), (P("x"),)))
    assert isinstance(refuted, Refuted)
    assert not eval_in_structure(P("x"), refuted.structure, refuted.assignment)


def prove_first(oracle, s):
    """The bounded oracle's decision with the prover run before the
    countermodel search, as it was made before the oracle refuted first and
    before the search took the relational decision's word for a goal."""
    axioms = oracle.axioms_for(s)
    proof = prove_bounded(s, axioms, oracle.budget, oracle.theory.signature)
    if proof is not None:
        return Proved(proof, oracle.name)
    signature, preds = structure_symbols(oracle.theory.signature, [*s.antecedent, *s.succedent, *axioms])
    found = _countermodel_scan(s, axioms, signature, oracle.model_size, preds)
    if found is not None:
        return Refuted(found[0], found[1], oracle.name)
    return Unknown("budget exhausted")


def decision(decide, s):
    try:
        verdict = decide(s)
    except Exception as e:
        return "error", type(e).__name__, str(e)
    if isinstance(verdict, Proved):
        return "proved", verdict.method, proof_sexpr(verdict.proof)
    if isinstance(verdict, Refuted):
        assignment = sorted(verdict.assignment.items())
        return "refuted", verdict.method, structure_sexpr(verdict.structure), assignment
    return "unknown", verdict.note


CRITERION_10_THEORY = Theory(
    SIG,
    (
        Forall("x", P("x")),
        Forall("x", Forall("y", Imp(Q("x", "y"), Q("y", "x")))),
    ),
)


@pytest.mark.parametrize("with_f", [False, True], ids=["criterion-10", "uninterpreted-f"])
def test_refuting_first_keeps_every_decision(with_f):
    # with_f puts f/1, which the signature does not declare, into half the
    # formulas: the scan interprets it by the checker's rule, so no goal
    # raises, and the prover may still close a goal that reads f
    oracle = BoundedOracle(CRITERION_10_THEORY, Budget(4, 2, 100), model_size=2)
    goals = goals_mixing_f(random.Random(90 + with_f), 150, with_f)
    seen, with_f_terms = set(), Counter()
    for s in goals:
        expected = decision(lambda g: prove_first(oracle, g), s)
        assert decision(oracle.decide, s) == expected, s
        seen.add(expected[0])
        if expected[0] == "proved":
            # no goal is both proved and refuted
            assert oracle.refute(s) is None, s
        if structure_symbols(SIG, s.antecedent + s.succedent)[0] is not SIG:
            with_f_terms[expected[0]] += 1
    assert seen == {"proved", "refuted", "unknown"}
    assert (set(with_f_terms) == {"proved", "refuted", "unknown"}) == with_f, with_f_terms


def _pf(*args):
    return Pred("P", (App("f", args),))


def test_the_scan_declines_an_undeclared_function_with_too_many_tables(monkeypatch):
    # an undeclared function symbol of arity a has k ** (k ** a) tables at
    # carrier size k; past 4,096 picks of them no scan runs, and the prover
    # answers alone: a valid goal is proved, an invalid one is unknown
    from doctrina import syntactic

    x = Var("x")
    cases = [
        ([_pf(x)], 2, True),  # 4 picks
        ([_pf(x)], 3, True),  # 27
        ([_pf(x, x, x), Pred("P", (App("g", (x, x)),))], 2, True),  # 2 ** (8 + 4), the cap
        ([_pf(x, x, x), Pred("P", (App("g", (x, x, x)),))], 2, False),  # 2 ** 16
        ([_pf(x, x)], 3, False),  # 3 ** 9
        ([_pf(*[x] * 5)], 2, False),  # 2 ** 32
        ([_pf(*[x] * 40)], 3, False),  # the power is never taken
        ([_pf(*[x] * 40)], 1, True),  # one table at size 1
        ([_pf(*[x] * 40)], 0, True),  # none on the empty carrier
    ]
    for formulas, size, scanned in cases:
        found = scan_symbols(SIG, formulas, size)
        assert found == (structure_symbols(SIG, formulas) if scanned else None), (formulas, size)
    # a declared symbol is scanned whatever its tables
    declared = Signature((("f", 5),), SIG.predicates)
    assert scan_symbols(declared, [_pf(*[x] * 5)], 2) == (declared, [("P", 1), ("Q", 2)])

    real = syntactic.countermodel_search

    def search(s, axioms, signature, size, predicates=None):
        assert ("f", 5) not in signature.functions, "a scan of 2 ** 32 tables"
        return real(s, axioms, signature, size, predicates)

    monkeypatch.setattr(syntactic, "countermodel_search", search)
    oracle = BoundedOracle(EMPTY_THEORY, Budget(4, 2, 100), model_size=2)
    ctx = Context(("x",))
    fx = _pf(*[x] * 5)
    valid, invalid = Sequent(ctx, (fx,), (fx,)), Sequent(ctx, (fx,), (P("x"),))
    assert oracle.refute(valid) is None and oracle.refute(invalid) is None
    assert isinstance(oracle.decide(valid), Proved)
    assert oracle.decide(invalid) == Unknown("budget exhausted")
    phi = FormulaInContext(fx, ctx)
    assert isinstance(completion_leq(EMPTY_THEORY, phi, phi, [Forall("x", Or(P("x"), Not(P("x"))))]), Proved)
    assert isinstance(completion_leq(EMPTY_THEORY, phi, FormulaInContext(P("x"), ctx), [], Budget(4, 2, 100)), Unknown)


def test_the_truth_table_refuses_a_function_at_two_arities():
    # its term model interprets each function symbol at one arity, as every
    # structure does; the CLI's `check_arities` refuses such input first
    x = Var("x")
    s = Sequent(Context(("x",)), (Pred("P", (App("f", (x, x)),)),), (P("x"),))
    assert isinstance(TruthTableOracle(SIG).decide(s), Refuted)
    with pytest.raises(FormulaError, match="function f is used at arity 2 and at arity 1"):
        TruthTableOracle(Signature((("f", 1),), SIG.predicates)).decide(s)


def count_walks(monkeypatch) -> list:
    """The sequents that the relational decision walks from now on, one
    entry for each walk begun."""
    from doctrina import calculus

    walks = []
    walk = calculus._herbrand

    def counting(s, axioms, signature):
        walks.append(s)
        return walk(s, axioms, signature)

    monkeypatch.setattr(calculus, "_herbrand", counting)
    return walks


def test_the_bounded_oracle_decides_each_goal_once(monkeypatch):
    # the decision is kept on the goal, so the oracle's scan and its search
    # walk it once between them, as the sound sweep's search and scan do; a
    # walk that the scan's cap (one split per block) stops waits on the goal
    # and goes on under the search's larger cap
    walks = count_walks(monkeypatch)
    oracle = BoundedOracle(CRITERION_10_THEORY, Budget(4, 2, 100), model_size=2)
    refute, went_on = oracle.refute, []

    def refute_and_look(s):
        found = refute(s)
        if found is None and s._decided[1] is not None:
            went_on.append(s)  # the search goes on from where the scan's cap stopped
        return found

    oracle.refute = refute_and_look
    rng = random.Random(92)
    verdicts = Counter()
    for _ in range(300):
        s = random_sequent(rng, 4)
        del walks[:]
        verdicts[type(oracle.decide(s)).__name__] += 1
        assert walks == [s], s
    assert verdicts["Proved"] >= 50 and verdicts["Refuted"] >= 50, verdicts
    assert went_on
    workloads = bench_workloads()
    sweep = workloads.SoundSweep(5)
    proved = 0
    for _ in range(300):
        s = sweep.next_request().sequent
        del walks[:]
        proved += prove_bounded(s, (), workloads.SWEEP_BUDGET, workloads.SIG) is not None
        countermodel_search(s, (), workloads.SIG, workloads.SWEEP_MODEL_SIZE)
        assert walks == [s], s
    assert proved >= 100, proved


def test_an_entail_goal_is_walked_once_through_the_bounded_oracle(monkeypatch):
    # a goal over the declared symbols leaves the signature object itself to
    # the scan, so the prover finds the decision under the key the scan left
    walks = count_walks(monkeypatch)
    workloads = bench_workloads()
    oracle = BoundedOracle(workloads.UNIVERSAL_THEORY, Budget(workloads.ENTAIL_DEPTH, 2, workloads.ENTAIL_NODES))
    entail = workloads.Entail(7)
    verdicts = Counter()
    for _ in range(100):
        goal = entail.next_request()
        s = Sequent(workloads.inferred_context(goal.phi, goal.psi), (goal.phi,), (goal.psi,))
        formulas = [*s.antecedent, *s.succedent, *oracle.axioms_for(s)]
        assert structure_symbols(workloads.SIG, formulas)[0] is workloads.SIG
        del walks[:]
        verdicts[type(oracle.decide(s)).__name__] += 1
        assert walks == [s], s
    assert verdicts["Proved"] and verdicts["Refuted"], verdicts


def test_the_kept_decision_is_walked_afresh_under_other_axioms_or_signature(monkeypatch):
    walks = count_walks(monkeypatch)
    symmetric = (Forall("x", Forall("y", Imp(Q("x", "y"), Q("y", "x")))),)
    s = Sequent(Context(("x1", "x2")), (Q("x1", "x2"),), (Q("x2", "x1"),))
    assert decide_relational(s, symmetric, SIG) is True
    assert decide_relational(s, list(symmetric), SIG) is True
    assert isinstance(decide_relational(s, (), SIG), OpenBranch)
    assert decide_relational(s, symmetric, SIG) is True
    # a constant declines the walk: the prover may use it as a witness
    assert decide_relational(s, symmetric, Signature((("c", 0),), SIG.predicates)) is None
    assert walks == [s] * 4
    # the oracle proves the goal under symmetry and refutes it without
    assert isinstance(BoundedOracle(Theory(SIG, symmetric)).decide(s), Proved)
    assert isinstance(BoundedOracle(Theory(SIG)).decide(s), Refuted)
    assert isinstance(BoundedOracle(Theory(SIG, symmetric)).decide(s), Proved)


def test_lt_leq_examples():
    oracle = BoundedOracle(EMPTY_THEORY, Budget(max_depth=6))
    ctx = Context(("x",))
    phi = FormulaInContext(P("x"), ctx)
    assert isinstance(lt_leq(oracle, phi, phi), Proved)
    bot = FormulaInContext(Bot(), ctx)
    assert isinstance(lt_leq(oracle, bot, phi), Proved)
    with pytest.raises(Exception):
        lt_leq(oracle, phi, FormulaInContext(Top(), Context(("y",))))


def test_lt_leq_prefix_refutation():
    # the binary atom does not entail the unary atom on the wrong coordinate
    oracle = PrefixOracle()
    ctx = canonical_context(2)
    phi = FormulaInContext(Pred("R2", (Var("x1"), Var("x2"))), ctx)
    psi = FormulaInContext(Pred("R1", (Var("x2"),)), ctx)
    v = lt_leq(oracle, phi, psi)
    assert isinstance(v, Refuted)
    assert eval_in_structure(phi.formula, v.structure, v.assignment)
    assert not eval_in_structure(psi.formula, v.structure, v.assignment)


def test_lt_element_wrapper():
    oracle = BoundedOracle(EMPTY_THEORY, Budget(max_depth=6))
    ctx = Context(("x",))
    a = LTElement(FormulaInContext(P("x"), ctx), oracle)
    b = LTElement(FormulaInContext(And(P("x"), P("x")), ctx), oracle)
    assert a.equivalent(b) is True
    c = LTElement(FormulaInContext(Not(P("x")), ctx), oracle)
    assert a.equivalent(c) is False


# --- interpretation in finite doctrines -------------------------------------------


def one_point_target():
    return DoctrineTarget(subset01(), "U")


def empty_domain_target():
    return DoctrineTarget(subset01(), "E")


def test_interpret_top_and_atoms():
    target = one_point_target()
    fam = {"P": target.doctrine.fiber("U").top}
    ctx = canonical_context(1)
    top = interpret(FormulaInContext(Top(), ctx), target, fam)
    assert top == target.doctrine.fiber(target.ctx_object(1)).top
    atom = interpret(FormulaInContext(P("x1"), ctx), target, fam)
    assert atom == fam["P"]


def test_interpret_forall_display_via_tuples():
    # the tuple-set interpretation realizes the subset-doctrine display
    m = FiniteStructure((0, 1), {}, {"Q": frozenset({(0, 0), (0, 1)})})
    assert satisfying_tuples(Forall("y", Q("x", "y")), Context(("x",)), m) == frozenset({(0,)})


def test_empty_context_existential_fails_in_empty_domain():
    target = empty_domain_target()
    s = Sequent(Context(), (), (Exists("x", Top()),))
    assert not sequent_valid(s, target, {})
    # and the identity sequent is valid in every target
    s2 = Sequent(canonical_context(1), (P("x1"),), (P("x1"),))
    for tgt in (one_point_target(), empty_domain_target()):
        fam = {"P": tgt.doctrine.fiber(tgt.ctx_object(1)).top}
        assert sequent_valid(s2, tgt, fam)


def test_existential_is_the_dual_of_the_universal_tables():
    # exists x. true is the top of every context fiber over the one-point
    # domain U, and the bottom of the terminal fiber over the empty domain E;
    # also with the forced universal tables in place of the carried ones, and
    # in the square of the subset doctrine, two copies of each set
    d1 = subset01()
    for d in (d1, d1.with_tables(forall=None), product_doctrine([d1, d1])[0]):
        for n in range(3):
            ctx = canonical_context(n)
            target = DoctrineTarget(d, "U")
            value = interpret(FormulaInContext(Exists("y", Top()), ctx), target, {})
            assert value == d.fiber(target.ctx_object(n)).top
        target = DoctrineTarget(d, "E")
        assert interpret(FormulaInContext(Exists("y", Top()), Context()), target, {}) == 0


def test_interpretation_naturality_in_doctrine():
    target = one_point_target()
    fam = {"Q": target.doctrine.fiber(target.ctx_object(2)).top, "P": 0}
    ctx2, ctx1 = canonical_context(2), canonical_context(1)
    f = CtxMorphism(ctx1, ctx2, (Var("x1"), Var("x1")))
    for phi in (Q("x1", "x2"), Forall("y", Q("x1", "y")), And(P("x1"), Q("x2", "x1"))):
        fic = FormulaInContext(phi, ctx2)
        assert naturality_of_interpretation(fic, f, target, fam)


def test_interpretation_naturality_in_tuple_semantics():
    # I-nat over carriers up to 3, as the substitution lemma: the formula
    # reindexed along f holds at a iff the formula holds at f evaluated at a
    structures = [
        FiniteStructure((0,), {}, {"Q": frozenset({(0, 0)}), "P": frozenset()}),
        FiniteStructure((0, 1), {}, {"Q": frozenset({(0, 1)}), "P": frozenset({(1,)})}),
        FiniteStructure(
            (0, 1, 2), {}, {"Q": frozenset({(0, 1), (2, 2)}), "P": frozenset({(0,), (2,)})}
        ),
    ]
    ctx2, ctx1 = canonical_context(2), canonical_context(1)
    morphisms = [
        CtxMorphism(ctx1, ctx2, (Var("x1"), Var("x1"))),
        CtxMorphism(ctx2, ctx2, (Var("x2"), Var("x1"))),
    ]
    formulas = [
        Q("x1", "x2"),
        Forall("y", Q("x1", "y")),
        Exists("y", And(Q("x1", "y"), P("x2"))),
        Imp(P("x1"), Q("x2", "x2")),
    ]
    for m in structures:
        for f in morphisms:
            for phi in formulas:
                reindexed = substitute_formula(FormulaInContext(phi, ctx2), f).formula
                for values in itertools.product(m.carrier, repeat=len(f.source)):
                    a = dict(zip(f.source.vars, values))
                    image = {v: eval_term(t, m, a) for v, t in zip(ctx2.vars, f.components)}
                    lhs = eval_in_structure(reindexed, m, a)
                    assert lhs == eval_in_structure(phi, m, image), (phi, f, structure_sexpr(m), values)


def test_morphism_from_family_checks_axioms():
    target = one_point_target()
    theory = Theory(SIG, (Forall("x", P("x")),))
    good = {"P": target.doctrine.fiber(target.ctx_object(1)).top, "Q": 0}
    _, violations = morphism_from_family(theory, target, good)
    assert violations == []
    bad = {"P": target.doctrine.fiber(target.ctx_object(1)).bot, "Q": 0}
    _, violations = morphism_from_family(theory, target, bad)
    assert any(v.kind == "axiom-violated" for v in violations)


def test_morphism_from_family_well_definedness_samples():
    target = one_point_target()
    oracle = BoundedOracle(EMPTY_THEORY, Budget(max_depth=6))
    fam = {"P": target.doctrine.fiber(target.ctx_object(1)).top, "Q": 0}
    ctx = canonical_context(1)
    samples = [
        (FormulaInContext(And(P("x1"), P("x1")), ctx), FormulaInContext(P("x1"), ctx)),
        (FormulaInContext(Bot(), ctx), FormulaInContext(P("x1"), ctx)),
    ]
    _, violations = morphism_from_family(
        EMPTY_THEORY, target, fam, samples=samples, oracle=oracle
    )
    assert violations == []


# --- modulo-theory notions ----------------------------------------------------------


def test_is_quantifier_free_modulo_trivial():
    oracle = BoundedOracle(EMPTY_THEORY)
    fic = FormulaInContext(P("x1"), canonical_context(1))
    res = is_quantifier_free_modulo(oracle, fic, [])
    assert res.kind == "yes" and res.witness == fic.formula


def test_exists_r2_is_quantifier_free_modulo_prefix_theory():
    theory = prefix_theory()
    oracle = BoundedOracle(theory, Budget(max_depth=10), family_up_to=2)
    ctx = canonical_context(1)
    phi = FormulaInContext(
        Exists("x2", Pred("R2", (Var("x1"), Var("x2")))), ctx
    )
    witness = Pred("R1", (Var("x1"),))
    res = is_quantifier_free_modulo(oracle, phi, [witness])
    assert res.kind == "yes"
    assert res.witness == witness


def test_preorder_quantifier_freeness_stays_unknown():
    leq = lambda a, b: Pred("L", (Var(a), Var(b)))
    sig = Signature(predicates=(("L", 2),))
    theory = Theory(
        sig,
        (
            Forall("x", leq("x", "x")),
            Forall("u", Forall("v", Forall("w", Imp(And(leq("u", "v"), leq("v", "w")), leq("u", "w"))))),
        ),
    )
    oracle = BoundedOracle(theory, Budget(max_depth=6, max_nodes=6000), model_size=2)
    ctx = canonical_context(1)
    phi = FormulaInContext(Forall("y", leq("x1", "y")), ctx)
    candidates = [Top(), Bot(), leq("x1", "x1"), Not(leq("x1", "x1"))]
    res = is_quantifier_free_modulo(oracle, phi, candidates)
    assert res.kind == "unknown"


def test_qa_depth_modulo_quantifier_free():
    oracle = BoundedOracle(EMPTY_THEORY)
    fic = FormulaInContext(P("x1"), canonical_context(1))
    assert qa_depth_modulo(oracle, fic, []) == (0, 0)


def test_qa_depth_modulo_prefix_collapse():
    theory = prefix_theory()
    oracle = BoundedOracle(theory, Budget(max_depth=10), family_up_to=2)
    ctx = canonical_context(1)
    phi = FormulaInContext(Exists("x2", Pred("R2", (Var("x1"), Var("x2")))), ctx)
    lower, upper = qa_depth_modulo(oracle, phi, [Pred("R1", (Var("x1"),))])
    assert (lower, upper) == (0, 0)


def test_qa_depth_modulo_genuine_two():
    oracle = BoundedOracle(EMPTY_THEORY, Budget(max_depth=6, max_nodes=6000), model_size=3)
    phi = FormulaInContext(Exists("y", Forall("x", Q("x", "y"))), Context(()))
    candidates = [
        Top(),
        Bot(),
        Forall("x1", Forall("x2", Q("x1", "x2"))),
        Exists("x1", Exists("x2", Q("x1", "x2"))),
        Forall("x1", Q("x1", "x1")),
        Exists("x1", Q("x1", "x1")),
    ]
    lower, upper = qa_depth_modulo(oracle, phi, candidates)
    assert lower >= 1
    assert upper == 2


# --- universal consequences and the completion ----------------------------------------


def _bodies(sig, max_size=3):
    def bodies(ctx: Context):
        atoms = atom_pool(sig, ctx)
        return enumerate_qf(atoms, max_size)

    return bodies


def test_universal_consequences_empty_theory():
    # only logically valid sentences; the tautology class (which contains
    # forall x (P(x) -> P(x))) is enumerated through its representative
    contexts = [canonical_context(n) for n in (0, 1)]
    found = universal_consequences(EMPTY_THEORY, contexts, _bodies(SIG), Budget(max_depth=5))
    sentences = [s for s, _ in found]
    assert sentences

    def is_tautology(body):
        ctx = Context(tuple(sorted(free_vars(body))))
        return isinstance(prove_qf(Sequent(ctx, (), (body,))), ProofTree)

    bodies_found = []
    for s in sentences:
        body = s
        while isinstance(body, Forall):
            body = body.body
        bodies_found.append(body)
    assert all(is_tautology(b) for b in bodies_found)
    assert any(
        b == Top() or is_tautology(Imp(Imp(P("x1"), P("x1")), b)) for b in bodies_found
    )
    for s, proof in found:
        assert check_proof(proof).ok


def test_universal_consequences_are_pinned():
    # sentences and certificates for criterion 10's theory, bodies of size <= 3
    contexts = [canonical_context(n) for n in (0, 1, 2)]
    found = universal_consequences(
        CRITERION_10_THEORY, contexts, _bodies(SIG), Budget(max_depth=6, max_nodes=4000)
    )
    text = "\n".join(formula_sexpr(s) + " " + proof_sexpr(proof) for s, proof in found)
    assert len(found) == 17
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "fd93239c5e9c91f2bbc1a162924eb19edcdd2d69194f39f3a60eb43b61c6ee86"


def test_universal_consequences_contain_the_axioms():
    theory = Theory(SIG, (Forall("x1", P("x1")),))
    contexts = [canonical_context(1)]
    found = universal_consequences(theory, contexts, _bodies(SIG), Budget(max_depth=5))
    from doctrina.formula import alpha_eq

    assert any(alpha_eq(s, theory.axioms[0]) for s, _ in found)


def test_completion_agrees_with_lt_on_universal_theory():
    theory = Theory(
        SIG,
        (
            Forall("x", P("x")),
            Forall("x", Forall("y", Imp(Q("x", "y"), Q("y", "x")))),
        ),
    )
    ctx = canonical_context(2)
    contexts = [canonical_context(n) for n in (0, 1, 2)]
    universal = [
        s
        for s, _ in universal_consequences(
            theory, contexts, _bodies(SIG, 4), Budget(max_depth=6, max_nodes=4000)
        )
    ]
    oracle = BoundedOracle(theory, Budget(max_depth=6), model_size=2)
    pairs = [
        (Q("x1", "x2"), Q("x2", "x1")),
        (Top(), P("x1")),
        (Q("x1", "x1"), P("x1")),
        (And(Q("x1", "x2"), P("x1")), Q("x2", "x1")),
        (P("x1"), Q("x1", "x2")),
    ]
    for a, b in pairs:
        phi, psi = FormulaInContext(a, ctx), FormulaInContext(b, ctx)
        lt = lt_leq(oracle, phi, psi)
        comp = completion_leq(theory, phi, psi, universal_theory=universal, model_size=2)
        if isinstance(lt, Proved):
            assert not isinstance(comp, Refuted), (a, b)
        if isinstance(lt, Refuted):
            assert not isinstance(comp, Proved), (a, b)
        if isinstance(comp, Proved):
            assert check_proof(comp.proof, universal).ok


def test_completion_reflexive():
    theory = Theory(SIG, (Forall("x", P("x")),))
    ctx = canonical_context(1)
    phi = FormulaInContext(Q("x1", "x1"), ctx)
    v = completion_leq(theory, phi, phi, universal_theory=[])
    assert isinstance(v, Proved)


# --- effectively propositional decisions ------------------------------------------------


def test_epr_bound_and_validity():
    s = Sequent(
        Context(),
        (Exists("y", Forall("x", Q("x", "y"))),),
        (Forall("x", Exists("y", Q("x", "y"))),),
    )
    assert decide_relational(s, (), SIG) is True
    invalid = Sequent(
        Context(),
        (Exists("x", P("x")),),
        (Forall("y", P("y")),),
    )
    assert isinstance(decide_relational(invalid, (), SIG), OpenBranch)


def test_epr_detects_fragment_violations():
    # a positive forall-exists hypothesis leaves the fragment: after negation
    # the existential sits inside a universal scope, which the expansion
    # meets once the context gives the universal an instance
    hyp = Forall("x", Exists("y", Q("x", "y")))
    assert decide_relational(Sequent(Context(("x1",)), (hyp,), ()), (), SIG) is None
    # with no context variable the universal has no instance, and the empty
    # structure satisfies the hypothesis and falsifies the empty succedent
    assert isinstance(decide_relational(Sequent(Context(), (hyp,), ()), (), SIG), OpenBranch)
    assert eval_in_structure(hyp, FiniteStructure((), {}, {"Q": frozenset()}))


def test_epr_valid_agrees_with_the_exhaustion():
    # the expansion against the small-model exhaustion it replaced, on
    # criterion 1's goals and on goals with variable equalities, wherever
    # the bound is at most 4
    rng = random.Random(20240901)
    criterion_1 = [(False, random_sequent(rng)) for _ in range(200)]
    rng = random.Random(1930)
    equalities = [(True, random_sequent(rng, 4, equality=True)) for _ in range(200)]
    checked = Counter()
    for with_equality, s in criterion_1 + equalities:
        bound = epr_bound(s)
        if bound is not None and bound <= 4:
            found = decide_relational(s, (), SIG)
            assert found is not None and (found is True) == exhaustive_epr_valid(SIG, s), s
            checked[with_equality, found is True] += 1
    assert min(checked.values()) >= 40 and len(checked) == 4, checked


# --- the one-step layer -------------------------------------------------------------------


def _epr_decider(sig):
    """`a =>_ctx b` by the relational decision: True, False, or None when it declines."""

    def decide(a, b, ctx):
        found = decide_relational(Sequent(ctx, (a,), (b,)), (), sig)
        return None if found is None else found is True

    return decide


def test_one_step_layer_empty_theory_fully_resolved():
    ctx = canonical_context(1)
    gens = [
        LayerGenerator((), P("x1")),
        LayerGenerator(("y",), Q("x1", "y")),
        LayerGenerator(("y",), Top()),
    ]
    decider = _epr_decider(SIG)
    layer = one_step_layer(ctx, [P("x1"), Top(), Bot()], gens, decider, decider)
    assert layer.unresolved == []
    assert layer.violations == []
    # the trivially quantified top generator is the top of the layer
    top_idx = 2
    for j in range(len(gens)):
        assert layer.order[(j, top_idx)] is True
    # adjunction: bottom is below every quantified generator
    assert layer.adjunction[(2, 1)] is True


def test_one_step_layer_prefix_theory_reports_unresolved():
    from doctrina.prefix import qf_entails_modT

    theory = prefix_theory()
    ctx = canonical_context(1)
    r1 = Pred("R1", (Var("x1"),))
    r2 = Pred("R2", (Var("x1"), Var("y")))
    gens = [LayerGenerator((), r1), LayerGenerator(("y",), r2)]
    oracle = BoundedOracle(theory, Budget(max_depth=8), model_size=1, family_up_to=2)

    def decide_combo(a, b, c):
        v = lt_leq(oracle, FormulaInContext(a, c), FormulaInContext(b, c))
        if isinstance(v, Proved):
            return True
        if isinstance(v, Refuted):
            return False
        return None

    def qf_entails(a, b, c):
        return qf_entails_modT(a, b, c)

    layer = one_step_layer(ctx, [r1, Top(), Bot()], gens, qf_entails, decide_combo)
    # every adjunction inequality is decided exactly
    assert len(layer.adjunction) == len(gens) * 3
    assert layer.violations == []
    # the report may leave generator pairs unresolved, never guessed
    for pair, value in layer.order.items():
        assert isinstance(value, bool)


def test_one_step_beck_chevalley_instances():
    ctx = canonical_context(1)
    gens = [LayerGenerator(("y",), Q("x1", "y"))]
    decider = _epr_decider(SIG)
    layer = one_step_layer(ctx, [Top()], gens, decider, decider)
    subs = [CtxMorphism(canonical_context(2), ctx, (Var("x2"),))]
    violations = one_step_beck_chevalley(layer, subs, decider)
    assert violations == []
