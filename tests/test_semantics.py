import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from doctrina.lang import App, Context, CtxMorphism, Signature, Var, canonical_context
from doctrina.formula import (
    And,
    Bot,
    Eq,
    Exists,
    Forall,
    FormulaInContext,
    Imp,
    Not,
    Or,
    Pred,
    Top,
    free_vars,
)
from doctrina.calculus import Sequent
from doctrina import semantics
from doctrina.semantics import (
    FiniteStructure,
    SemanticsError,
    carrier_structures,
    countermodel_search,
    enumerate_structures,
    eval_in_structure,
    falsifying_assignment,
    interpret_tuples,
    reindex_tuples,
    sequent_valid_in_structure,
)

from helpers import random_sequent

SIG = Signature(predicates=(("P", 1), ("Q", 2)))


def P(v):
    return Pred("P", (Var(v),))


def Q(a, b):
    return Pred("Q", (Var(a), Var(b)))


def test_eval_basics():
    m = FiniteStructure((0, 1), {}, {"P": frozenset({(0,)})})
    assert eval_in_structure(Top(), m)
    assert eval_in_structure(P("x"), m, {"x": 0})
    assert not eval_in_structure(P("x"), m, {"x": 1})
    assert eval_in_structure(Exists("x", P("x")), m)
    assert not eval_in_structure(Forall("x", P("x")), m)


def test_empty_structure_quantifiers():
    empty = FiniteStructure((), {}, {"P": frozenset()})
    assert not eval_in_structure(Exists("x", Top()), empty)
    assert eval_in_structure(Forall("x", P("x")), empty)


def test_empty_structure_rejects_constants():
    with pytest.raises(SemanticsError):
        FiniteStructure((), {"c": {(): 0}}, {})


def test_equality_is_identity():
    m = FiniteStructure((0, 1), {}, {})
    assert eval_in_structure(Eq(Var("x"), Var("y")), m, {"x": 0, "y": 0})
    assert not eval_in_structure(Eq(Var("x"), Var("y")), m, {"x": 0, "y": 1})


def test_function_evaluation():
    m = FiniteStructure((0, 1), {"f": {(0,): 1, (1,): 0}}, {"P": frozenset({(1,)})})
    phi = Pred("P", (App("f", (Var("x"),)),))
    assert eval_in_structure(phi, m, {"x": 0})
    assert not eval_in_structure(phi, m, {"x": 1})


def test_interpret_tuples_forall_display():
    # interpret(forall y R(x,y)) as a set is {x : for all y, (x,y) in S}
    m = FiniteStructure(
        (0, 1), {}, {"Q": frozenset({(0, 0), (0, 1), (1, 0)})}
    )
    fic = FormulaInContext(Forall("y", Q("x", "y")), Context(("x",)))
    assert interpret_tuples(fic, m) == frozenset({(0,)})
    fic2 = FormulaInContext(Exists("y", Q("x", "y")), Context(("x",)))
    assert interpret_tuples(fic2, m) == frozenset({(0,), (1,)})


def test_reindex_tuples_is_preimage():
    m = FiniteStructure((0, 1), {}, {"P": frozenset({(1,)})})
    src, dst = Context(("a", "b")), Context(("x",))
    f = CtxMorphism(src, dst, (Var("b"),))
    subset = interpret_tuples(FormulaInContext(P("x"), dst), m)
    pre = reindex_tuples(f, m, subset)
    assert pre == frozenset({(0, 1), (1, 1)})


def test_tuple_interpretation_matches_eval():
    m = FiniteStructure((0, 1, 2), {}, {"Q": frozenset({(0, 1), (1, 2)})})
    ctx = Context(("x", "y"))
    phi = Or(Q("x", "y"), Not(Q("y", "x")))
    fic = FormulaInContext(phi, ctx)
    cells = interpret_tuples(fic, m)
    for vals in itertools.product(m.carrier, repeat=2):
        assert (vals in cells) == eval_in_structure(phi, m, dict(zip(ctx.vars, vals)))


def test_sequent_validity_in_structure():
    m = FiniteStructure((0, 1), {}, {"P": frozenset({(0,), (1,)})})
    s = Sequent(Context(("x",)), (), (P("x"),))
    assert sequent_valid_in_structure(s, m)
    m2 = FiniteStructure((0, 1), {}, {"P": frozenset({(0,)})})
    assert not sequent_valid_in_structure(s, m2)
    assert falsifying_assignment(s, m2) == {"x": 1}


def test_enumerate_structures_counts():
    sig = Signature(predicates=(("P", 1),))
    sizes = {}
    for m in enumerate_structures(sig, 2):
        sizes.setdefault(len(m.carrier), 0)
        sizes[len(m.carrier)] += 1
    # one empty structure, 2 singletons, 4 at size two
    assert sizes == {0: 1, 1: 2, 2: 4}


def test_enumerate_skips_empty_with_constants():
    sig = Signature(functions=(("c", 0),), predicates=(("P", 1),))
    assert all(m.carrier for m in enumerate_structures(sig, 1))


def test_countermodel_for_empty_existential():
    s = Sequent(Context(), (), (Exists("x", Top()),))
    found = countermodel_search(s, (), Signature(), 2)
    assert found is not None
    m, assignment = found
    assert m.carrier == ()
    assert assignment == {}


def test_no_countermodel_for_identity():
    s = Sequent(Context(("x",)), (P("x"),), (P("x"),))
    assert countermodel_search(s, (), SIG, 3) is None


def test_countermodel_respects_axioms():
    # with the axiom forall x P(x), the sequent => P(y) has no countermodel
    ax = Forall("x", P("x"))
    s = Sequent(Context(("y",)), (), (P("y"),))
    assert countermodel_search(s, (ax,), SIG, 2) is None
    found = countermodel_search(s, (), SIG, 2)
    assert found is not None


# --- the compiled sequent evaluator against the tree-walking reference --------


def reference_falsifying_assignment(s, m):
    """The first falsifying assignment by a brute loop over eval_in_structure."""
    for values in itertools.product(m.carrier, repeat=len(s.context)):
        assignment = dict(zip(s.context.vars, values))
        if all(eval_in_structure(a, m, assignment) for a in s.antecedent) and not any(
            eval_in_structure(b, m, assignment) for b in s.succedent
        ):
            return assignment
    return None


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except SemanticsError as exc:
        return "error", str(exc)


DIFF_VARS = ("x", "y", "z")
DIFF_SIG = Signature(functions=(("f", 1), ("c", 0)), predicates=(("P", 1), ("S", 0)))
# Every structure of size <= 2 over f/1, c/0, P/1, S/0; the empty carrier
# cannot interpret c, and one structure has a partial table for f.  No
# structure interprets R, so atoms over R raise when they are evaluated.
DIFF_STRUCTURES = (
    list(enumerate_structures(Signature(functions=(("f", 1),), predicates=DIFF_SIG.predicates), 0))
    + list(enumerate_structures(DIFF_SIG, 2))
    + [FiniteStructure((0, 1), {"f": {(0,): 1}, "c": {(): 0}}, {"P": frozenset({(1,)}), "S": frozenset()})]
)

diff_terms = st.recursive(
    st.sampled_from([Var(v) for v in DIFF_VARS] + [App("c")]),
    lambda inner: st.builds(lambda t: App("f", (t,)), inner),
    max_leaves=3,
)
diff_atoms = st.one_of(
    st.builds(lambda t: Pred("P", (t,)), diff_terms),
    st.builds(Eq, diff_terms, diff_terms),
    st.sampled_from([Top(), Bot(), Pred("S")]),
    st.builds(lambda t: Pred("R", (t,)), diff_terms),
)
diff_formulas = st.recursive(
    diff_atoms,
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Imp, inner, inner),
        st.builds(Forall, st.sampled_from(DIFF_VARS), inner),
        st.builds(Exists, st.sampled_from(DIFF_VARS), inner),
    ),
    max_leaves=6,
)


@st.composite
def diff_sequents(draw):
    ants = tuple(draw(st.lists(diff_formulas, max_size=2)))
    sucs = tuple(draw(st.lists(diff_formulas, max_size=2)))
    used = set().union(*(free_vars(phi) for phi in ants + sucs))
    extra = set(draw(st.lists(st.sampled_from(DIFF_VARS), max_size=1)))
    order = draw(st.permutations(DIFF_VARS))
    return Sequent(Context(tuple(v for v in order if v in used | extra)), ants, sucs)


@settings(max_examples=150, deadline=None)
@given(diff_sequents())
@example(Sequent(Context(("x",)), (), (Or(Top(), Pred("R", (Var("x"),))),)))
@example(Sequent(Context(("x",)), (), (Pred("R", (Var("x"),)),)))
@example(Sequent(Context(("x",)), (Forall("x", Exists("x", P("x"))),), (Pred("S"),)))
@example(Sequent(Context(), (), (Eq(App("f", (App("c"),)), App("c")),)))
def test_compiled_evaluator_matches_reference(s):
    for m in DIFF_STRUCTURES:
        expected = outcome(reference_falsifying_assignment, s, m)
        assert outcome(falsifying_assignment, s, m) == expected, (s, m.describe())
        valid = expected if expected[0] == "error" else ("value", expected[1] is None)
        assert outcome(sequent_valid_in_structure, s, m) == valid, (s, m.describe())


def test_countermodel_certificates_match_reference_loop():
    # Criterion 1's goal shape: the first structure in enumeration order with
    # a falsifying assignment, and the first such assignment in it.
    rng = random.Random(20240901)
    structures = list(enumerate_structures(SIG, 2))
    refuted = 0
    for _ in range(60):
        s = random_sequent(rng)
        expected = None
        for m in structures:
            assignment = reference_falsifying_assignment(s, m)
            if assignment is not None:
                expected = (m, assignment)
                break
        found = countermodel_search(s, (), SIG, 2)
        if expected is None:
            assert found is None, s
            continue
        refuted += 1
        assert found is not None, s
        assert found[0] == expected[0] and found[1] == expected[1], s
    assert refuted >= 20


def test_compiled_evaluator_handles_deep_nesting():
    # Nesting far beyond what one generated Python expression may hold.
    negated, term, chain = P("x"), Var("x"), P("x")
    for i in range(401):
        negated = Not(negated)
    for i in range(151):
        term = App("f", (term,))
    for i in range(300):
        chain = And(Top(), chain) if i % 2 else And(chain, Top())
    m = FiniteStructure((0, 1), {"f": {(0,): 1, (1,): 0}}, {"P": frozenset({(0,)})})
    for phi in (negated, Pred("P", (term,)), Eq(term, Var("x")), chain):
        s = Sequent(Context(("x",)), (), (phi,))
        assert falsifying_assignment(s, m) == reference_falsifying_assignment(s, m), phi


# --- the enumeration order and the block-mask countermodel search -------------


def legacy_enumerate_structures(signature, size, predicates=None):
    """The enumerator as it was written with nested `itertools.product`s,
    kept here to pin the order that certificates depend on."""
    preds = list(signature.predicates) if predicates is None else list(predicates)
    funcs = list(signature.functions)
    start = 0 if not signature.constants() else 1
    for k in range(start, size + 1):
        carrier = tuple(range(k))
        fn_choices = []
        for name, arity in funcs:
            domain = list(itertools.product(carrier, repeat=arity))
            tables = [
                dict(zip(domain, images))
                for images in itertools.product(carrier, repeat=len(domain))
            ]
            if not tables:
                tables = [{}]
            fn_choices.append((name, tables))
        pr_choices = []
        for name, arity in preds:
            domain = list(itertools.product(carrier, repeat=arity))
            subsets = [
                frozenset(t for t, keep in zip(domain, bits) if keep)
                for bits in itertools.product((False, True), repeat=len(domain))
            ]
            pr_choices.append((name, subsets))
        for fn_pick in itertools.product(*(tables for _, tables in fn_choices)):
            for pr_pick in itertools.product(*(subsets for _, subsets in pr_choices)):
                yield FiniteStructure(
                    carrier,
                    {name: table for (name, _), table in zip(fn_choices, fn_pick)},
                    {name: s for (name, _), s in zip(pr_choices, pr_pick)},
                )


FUNC_SIG = Signature(functions=(("f", 1),))
ORDER_CASES = [
    (SIG, 3, None),
    (DIFF_SIG, 2, None),
    (Signature(functions=(("g", 2), ("c", 0))), 2, [("S", 0), ("Q", 2), ("P", 1)]),
]


@pytest.mark.parametrize("signature, size, predicates", ORDER_CASES)
def test_enumeration_order_is_pinned(signature, size, predicates):
    expected = list(legacy_enumerate_structures(signature, size, predicates))
    assert list(enumerate_structures(signature, size, predicates)) == expected
    decoded = []
    for numbered in carrier_structures(signature, size, predicates):
        decoded += [numbered.structure(i) for i in range(numbered.count)]
        with pytest.raises(IndexError):
            numbered.structure(numbered.count)
    assert decoded == expected


def reference_countermodel_search(s, axioms, signature, size, predicates=None, structures=None):
    """The first countermodel by a brute loop over every structure."""
    if structures is None:
        structures = legacy_enumerate_structures(signature, size, predicates)
    for m in structures:
        if all(eval_in_structure(ax, m, {}) for ax in axioms):
            assignment = reference_falsifying_assignment(s, m)
            if assignment is not None:
                return m, assignment
    return None


def fx(t):
    return App("f", (t,))


X, C = Var("x"), App("c")
# Axiom sets over DIFF_SIG.  R is interpreted only where a case lists it, so
# the last two sets end in axioms whose masks fail a lookup (an unknown
# predicate, a free variable), and the search must confirm every structure
# the axioms before them allow, raising the reference's error even for a
# valid sequent.
AXIOM_SETS = (
    (),
    (Forall("x", Eq(fx(X), X)),),
    (
        Exists("x", And(Pred("S"), P("x"))),
        Forall("x", Imp(P("x"), Pred("P", (fx(X),)))),
        Forall("x", Eq(fx(X), X)),
    ),
    (Exists("x", And(Pred("S"), P("x"))), Forall("x", Or(Pred("R", (X,)), P("x"))), Eq(fx(C), C)),
    (Forall("x", Not(P("x"))), P("y")),
)
SEARCH_CASES = (
    (DIFF_SIG, None),
    (Signature(functions=(("f", 1),), predicates=DIFF_SIG.predicates), None),
    (FUNC_SIG, None),
    (DIFF_SIG, [("R", 1), ("P", 1)]),
)


@settings(max_examples=200, deadline=None)
@given(diff_sequents(), st.sampled_from(AXIOM_SETS), st.sampled_from(SEARCH_CASES))
@example(Sequent(Context(("x",)), (), (Pred("R", (Var("x"),)),)), AXIOM_SETS[0], SEARCH_CASES[0])
@example(Sequent(Context(("x",)), (P("x"),), (Eq(Var("x"), App("c")),)), AXIOM_SETS[2], SEARCH_CASES[0])
@example(Sequent(Context(("x",)), (), (P("x"),)), AXIOM_SETS[3], SEARCH_CASES[3])
@example(Sequent(Context(("x",)), (), (Eq(Var("x"), Var("x")),)), AXIOM_SETS[3], SEARCH_CASES[0])
def test_countermodel_search_matches_brute_loop(s, axioms, case):
    signature, predicates = case
    expected = outcome(reference_countermodel_search, s, axioms, signature, 2, predicates)
    assert outcome(countermodel_search, s, axioms, signature, 2, predicates) == expected, s


MANY_SIG = Signature(predicates=(("P", 1), ("Q", 2), ("S", 0), ("T", 0)))


def distinct3():
    x, y, z = Var("x"), Var("y"), Var("z")
    return Exists("x", Exists("y", Exists("z", And(Not(Eq(x, y)), And(Not(Eq(x, z)), Not(Eq(y, z)))))))


@pytest.mark.parametrize(
    "s, axioms",
    [
        # P and Q fill 12 bits at size 3, so S and T make four blocks; P(0)
        # and P(1) are the high bits, constant within a block
        (Sequent(Context(), (distinct3(), Forall("x", P("x"))), (Exists("x", Q("x", "x")),)), ()),
        (Sequent(Context(("x",)), (distinct3(), P("x")), (Pred("S"), Q("x", "x"))), (Pred("T"),)),
        (Sequent(Context(("x", "y")), (distinct3(), Q("x", "y")), (P("y"),)), (Exists("x", And(P("x"), Pred("S"))),)),
        (Sequent(Context(("x",)), (Forall("x", P("x")),), (P("x"),)), ()),
        (Sequent(Context(), (distinct3(),), (Exists("x", And(P("x"), Not(P("x")))),)), (Forall("x", Q("x", "x")),)),
    ],
)
def test_countermodel_search_across_blocks(s, axioms):
    assert [n.bits for n in carrier_structures(MANY_SIG, 3)] == [2, 4, 8, 14]
    expected = reference_countermodel_search(s, axioms, MANY_SIG, 3)
    assert countermodel_search(s, axioms, MANY_SIG, 3) == expected


def test_ternary_predicate_refuted_early():
    # 27 predicate bits at size 3: 2**15 blocks that must not be built
    sig = Signature(predicates=(("T", 3),))
    triple = Pred("T", (Var("x"), Var("y"), Var("z")))
    s = Sequent(Context(), (distinct3(),), (Exists("x", Exists("y", Exists("z", triple))),))
    found = countermodel_search(s, (), sig, 3)
    assert found == (FiniteStructure((0, 1, 2), {}, {"T": frozenset()}), {})
    assert found == reference_countermodel_search(s, (), sig, 3, structures=enumerate_structures(sig, 3))


def test_axiom_mask_keeps_excluded_structures_from_the_confirm_step(monkeypatch):
    seen = []

    def recording(phi, m, assignment=None):
        seen.append(m)
        return eval_in_structure(phi, m, assignment)

    monkeypatch.setattr(semantics, "eval_in_structure", recording)
    axioms = (Forall("x", Eq(fx(X), X)), Exists("x", And(Pred("S"), P("x"))))
    s = Sequent(Context(("x",)), (P("x"),), (Eq(X, C),))
    found = countermodel_search(s, axioms, DIFF_SIG, 2)
    confirmed = {m.describe() for m in seen}
    assert confirmed == {found[0].describe()}
    assert found == reference_countermodel_search(s, axioms, DIFF_SIG, 2)
    seen.clear()
    contradictory = (Forall("x", P("x")), Exists("x", Not(P("x"))))
    assert countermodel_search(s, contradictory, DIFF_SIG, 2) is None
    assert seen == []
