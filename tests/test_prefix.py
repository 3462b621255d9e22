import itertools
import random
import time

import pytest

from doctrina.lang import Context, Var, canonical_context, pool_var
from doctrina.formula import (
    And,
    Bot,
    Eq,
    Exists,
    Forall,
    Not,
    Or,
    Pred,
    Top,
    alpha_eq,
    free_vars,
    rectify,
    size,
)
from doctrina.calculus import Sequent, check_proof
from doctrina.semantics import eval_in_structure
from doctrina.syntactic import Proved, Refuted, Theory, Unknown
from doctrina.cli import infer_context, main
from doctrina.sexpr import formula_sexpr, parse_formula, parse_sexpr, parse_structure
from doctrina.prefix import (
    FAMILY,
    PrefixAtom,
    PrefixError,
    PrefixOracle,
    SIGNATURE,
    WordLanguageModel,
    atom_from_formula,
    axiom_alpha,
    does_not_generate_demo,
    intersection_experiment,
    level_atoms,
    p0n_membership,
    prefix_entails,
    prefix_theory,
    qf_entails_modT,
    qf_equivalent_modT,
    verify_T_axioms,
    word_countermodel,
)

from helpers import minterm_candidates, random_prefix_formula, word_refutable


def atom(*positions):
    return PrefixAtom(tuple(positions))


def test_axiom_alpha_shapes():
    a0 = axiom_alpha(0)
    assert free_vars(a0) == frozenset()
    a1 = axiom_alpha(1)
    assert free_vars(a1) == frozenset()
    assert repr(a1).startswith("forall x1")
    for n in range(6):
        assert free_vars(axiom_alpha(n)) == frozenset()
    theory = prefix_theory()
    assert theory.contains_axiom(axiom_alpha(2))
    assert not theory.contains_axiom(Pred("R0"))


def test_contains_axiom_answers_alike_with_the_family_kept():
    # each family sentence is built once and kept; the theory answers as one
    # whose family is rebuilt at every read, on the sentences, on
    # alpha-variants of them and on sentences that are not axioms
    assert axiom_alpha(6) is axiom_alpha(6)
    kept, rebuilt = prefix_theory(), Theory(SIGNATURE, (), axiom_alpha.__wrapped__)
    negated = Pred("R0")
    for _ in range(8):
        negated = Not(negated)
    cases = [(Pred("R0"), False), (negated, False)]
    for n in range(9):
        a = axiom_alpha(n)
        variant = rectify(a, avoid=[pool_var(i) for i in range(1, n + 2)])
        assert variant != a and alpha_eq(variant, a)
        cases += [(a, True), (variant, True), (Not(a), False), (And(a, a), False)]
        if n:
            cases.append((Exists(a.var, a.body), False))
        if n > 1:
            cases.append((Forall(a.body.var, Forall(a.var, a.body.body)), False))
    for phi, expected in cases:
        assert kept.contains_axiom(phi) is rebuilt.contains_axiom(phi) is expected, phi


def balanced_conjunction(depth: int):
    if depth == 0:
        return Pred("R0")
    half = balanced_conjunction(depth - 1)
    return And(half, half)


@pytest.mark.parametrize("depth", [8, 9])
def test_contains_axiom_reads_the_one_family_sentence_the_prefix_names(depth, capsys):
    # a 511- and a 1,023-node conjunction of R0 opens with no ∀, so only
    # the 0th family sentence is read; reading every index up to the size
    # took 0.3 s on the first and overflowed the stack on the second
    phi = balanced_conjunction(depth)
    assert size(phi) == 2 ** (depth + 1) - 1
    read = []

    def family(n):
        read.append(n)
        return axiom_alpha(n)

    start = time.perf_counter()
    assert not Theory(SIGNATURE, (), family).contains_axiom(phi)
    assert not prefix_theory().contains_axiom(phi)
    assert time.perf_counter() - start < 0.1
    assert read == [0]
    # and check-proof rejects it as a leaf, with the usual report
    text = formula_sexpr(phi)
    leaf = f"(proof (rule TheoryAxiom (formula {text})) (concl (seq (ctx) (ants) (sucs {text}))) (premises))"
    assert main(["check-proof", leaf, "--theory", "prefix"]) == 1
    out = capsys.readouterr().out
    assert out == f"VIOLATION rule-check path=root reason={phi!r} is not an axiom of the theory\nVERDICT fail\n"


def test_prefix_entails_examples():
    assert prefix_entails([atom(1, 2)], [atom(1)])
    assert not prefix_entails([atom(1, 2)], [atom(2)])
    assert not prefix_entails([atom(1, 2)], [])
    assert not prefix_entails([], [atom(1)])
    # the nullary atom is a prefix of everything
    assert prefix_entails([atom(1)], [atom()])
    assert prefix_entails([atom()], [atom()])


def test_word_countermodel_construction():
    model, rho = word_countermodel([atom(1)], [atom(1, 1)], 1)
    assert ("x1",) in model.words
    assert ("x1", "c") in model.words
    assert ("x1", "x1") not in model.words
    assert verify_T_axioms(model, 1) == []
    struct = model.as_structure()
    ctx = canonical_context(1)
    assert eval_in_structure(atom(1).formula(ctx), struct, rho)
    assert not eval_in_structure(atom(1, 1).formula(ctx), struct, rho)


def test_word_countermodel_empty_positive_side():
    model, _ = word_countermodel([], [atom()], 0)
    assert model.words == frozenset()
    assert verify_T_axioms(model, 0) == []
    assert not eval_in_structure(Pred("R0"), model.as_structure(), {})


def test_word_countermodel_nothing_to_falsify():
    model, rho = word_countermodel([atom()], [], 0)
    assert () in model.words
    assert verify_T_axioms(model, 0) == []


def test_word_countermodel_refuses_entailed_input():
    with pytest.raises(PrefixError):
        word_countermodel([atom(1, 2)], [atom(1)], 2)


def test_verify_T_axioms_catches_violations():
    bad = WordLanguageModel(("a", "b"), 2, frozenset({("a", "b")}))
    errs = verify_T_axioms(bad, 1)
    kinds = {v.kind for v in errs}
    assert "prefix-closure" in kinds
    stuck = WordLanguageModel(("a",), 2, frozenset({()}))
    errs = verify_T_axioms(stuck, 1)
    assert any(v.kind in ("extendability", "axiom") for v in errs)


def test_full_unary_language_is_a_model():
    words = frozenset({(), ("a",), ("a", "a")})
    m = WordLanguageModel(("a",), 2, words)
    assert verify_T_axioms(m, 1) == []


def test_qf_entails_examples():
    ctx = canonical_context(1)
    r1 = atom(1).formula(ctx)
    r0 = Pred("R0")
    assert qf_entails_modT(r1, r1, ctx)
    assert qf_entails_modT(And(r1, Not(r1)), Bot(), ctx)
    assert qf_entails_modT(r1, r0, ctx)
    assert not qf_entails_modT(r0, r1, ctx)
    assert not word_refutable([atom(1)], [atom()], 1)  # confirms the positive case


def test_qf_entails_rejects_quantifiers():
    from doctrina.formula import Exists

    ctx = canonical_context(1)
    with pytest.raises(PrefixError):
        qf_entails_modT(Exists("y", Pred("R1", (Var("y"),))), Top(), ctx)


def test_qf_entailment_is_a_partial_order_on_classes():
    ctx = canonical_context(1)
    atoms = [atom(), atom(1), atom(1, 1)]
    formulas = [a.formula(ctx) for a in atoms] + [Top(), Bot(), Not(atom(1).formula(ctx))]
    for a in formulas:
        assert qf_entails_modT(a, a, ctx)
    for a, b, c in itertools.product(formulas, repeat=3):
        if qf_entails_modT(a, b, ctx) and qf_entails_modT(b, c, ctx):
            assert qf_entails_modT(a, c, ctx)


def test_prefix_criterion_matches_word_model_search_small():
    # spot block of the full acceptance sweep: k = 2, arities <= 2
    k = 2
    atoms = level_atoms(canonical_context(k), 0, 2)
    singles = [[a] for a in atoms] + [[]]
    for pos in singles:
        for neg in singles:
            assert prefix_entails(pos, neg) == (not word_refutable(pos, neg, k)), (pos, neg)


def test_prefix_oracle_certificates():
    oracle = PrefixOracle()
    ctx = canonical_context(2)
    r2 = atom(1, 2).formula(ctx)
    r1 = atom(1).formula(ctx)
    v = oracle.decide(Sequent(ctx, (r2,), (r1,)))
    assert isinstance(v, Proved)
    assert check_proof(v.proof, prefix_theory(), SIGNATURE).ok
    v2 = oracle.decide(Sequent(ctx, (r2,), (atom(2).formula(ctx),)))
    assert isinstance(v2, Refuted)
    assert eval_in_structure(r2, v2.structure, v2.assignment)
    assert not eval_in_structure(atom(2).formula(ctx), v2.structure, v2.assignment)


def _falsifies(phi, psi, structure, assignment):
    return eval_in_structure(phi, structure, assignment) and not eval_in_structure(
        psi, structure, assignment
    )


@pytest.mark.parametrize(
    "phi, psi",
    [
        # the context is (x2), not (x1)
        ("(R2 x2 x2)", "(R3 x2 x2 x2)"),
        # the refuting clause has no ternary atom, the goal has one
        ("R0", "(and (R3 x1 x1 x1) (R1 x1))"),
    ],
)
def test_prefix_entail_refutation_falsifies_the_goal(phi, psi, capsys):
    assert main(["entail", phi, psi, "--oracle", "prefix"]) == 1
    report = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    structure = parse_structure(parse_sexpr(report["CERTIFICATE"]))
    pairs = report["NOTE"].removeprefix("assignment [").removesuffix("]").split(", ")
    assignment = dict(pair.split("=") for pair in pairs)
    phi_f, psi_f = (parse_formula(parse_sexpr(text)) for text in (phi, psi))
    assert _falsifies(phi_f, psi_f, structure, assignment)


def test_prefix_oracle_refutations_falsify_random_goals():
    # and every entailed goal is proved, with a certificate that checks
    rng = random.Random(20240917)
    oracle = PrefixOracle()
    refuted = proved = 0
    for i in range(300):
        k = i % 3 + 1
        phi = random_prefix_formula(rng, k, rng.randint(1, 4))
        psi = random_prefix_formula(rng, k, rng.randint(1, 3))
        ctx = infer_context(phi, psi)
        v = oracle.decide(Sequent(ctx, (phi,), (psi,)))
        if qf_entails_modT(phi, psi, ctx):
            assert isinstance(v, Proved), (phi, psi, v)
            assert check_proof(v.proof, prefix_theory(), SIGNATURE).ok, (phi, psi)
            proved += 1
            continue
        assert isinstance(v, Refuted), (phi, psi)
        assert _falsifies(phi, psi, v.structure, v.assignment), (phi, psi)
        # a word model truncated at length t satisfies the axioms below t
        t = max(FAMILY.arity_of(name) for name in v.structure.predicates)
        for j in range(t):
            assert eval_in_structure(axiom_alpha(j), v.structure, {}), (phi, psi, j)
        refuted += 1
    assert refuted >= 100 and proved >= 50


def test_prefix_oracle_declines_non_prefix_atoms():
    oracle = PrefixOracle()
    s = Sequent(Context(("x",)), (Pred("S", (Var("x"),)),), (Top(),))
    assert isinstance(oracle.decide(s), Unknown)
    # every equality atom, even one in a contradiction
    e = Eq(Var("x"), Var("x"))
    s = Sequent(Context(("x",)), (And(e, Not(e)),), (Pred("R1", (Var("x"),)),))
    assert isinstance(oracle.decide(s), Unknown)


def test_atom_from_formula_roundtrip():
    ctx = canonical_context(3)
    a = atom(2, 1, 3)
    assert atom_from_formula(a.formula(ctx), ctx) == a
    with pytest.raises(PrefixError):
        atom_from_formula(Pred("R2", (Var("x1"),)), ctx)  # arity mismatch


def test_p0n_membership_examples():
    ctx = canonical_context(1)
    r1 = atom(1).formula(ctx)
    r3 = atom(1, 1, 1).formula(ctx)
    # already over high-arity atoms
    res = p0n_membership(r3, 3, ctx, arity_bound=4)
    assert res.kind == "yes" and res.witness == r3
    # the constants survive every level
    assert p0n_membership(Top(), 5, ctx).kind == "yes"
    assert p0n_membership(Bot(), 5, ctx).kind == "yes"
    # the unary atom falls out of the level-3 fragment
    res = p0n_membership(r1, 3, ctx, arity_bound=4)
    assert res.kind == "no"


def test_p0n_no_matches_exhaustive_candidate_sweep():
    # independent route: try all 16 Boolean functions of the two candidate
    # atoms directly through the exact entailment
    ctx = canonical_context(1)
    r1 = atom(1).formula(ctx)
    candidates = minterm_candidates([atom(1, 1, 1).formula(ctx), atom(1, 1, 1, 1).formula(ctx)])
    assert len(candidates) == 16
    assert not any(qf_equivalent_modT(r1, c, ctx) for c in candidates)
    assert p0n_membership(r1, 3, ctx, arity_bound=4).kind == "no"


def test_p0n_witness_is_verified_both_ways():
    ctx = canonical_context(1)
    # R1 is equivalent to itself viewed at level 1
    r1 = atom(1).formula(ctx)
    res = p0n_membership(r1, 1, ctx, arity_bound=2)
    assert res.kind == "yes"
    assert qf_equivalent_modT(r1, res.witness, ctx)


def test_p0n_monotone_hierarchy():
    ctx = canonical_context(1)
    atoms = level_atoms(ctx, 0, 2)
    for phi in minterm_candidates([a.formula(ctx) for a in atoms[:2]]):
        answers = [p0n_membership(phi, n, ctx, arity_bound=3).kind for n in (0, 1, 2)]
        # once out, never back in
        for i in range(len(answers) - 1):
            if answers[i] == "no":
                assert answers[i + 1] == "no"


def test_intersection_experiment_small():
    report = intersection_experiment(1, 2, 3)
    assert report.ok
    excluded = [l for l in report.lines if l.startswith("EXCLUDED")]
    skipped = [l for l in report.lines if l.startswith("SKIP")]
    assert excluded, "every nontrivial class must be excluded somewhere"
    assert len(skipped) == 2  # exactly top and bottom survive


def test_does_not_generate_demo():
    report = does_not_generate_demo()
    assert report.ok
    assert len([l for l in report.lines if l.startswith("SEPARATED")]) == 4
