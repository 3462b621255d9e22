import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from doctrina.lang import App, Context, CtxMorphism, Signature, Var, canonical_context
from doctrina.formula import (
    And,
    Bot,
    Eq,
    Exists,
    Forall,
    Imp,
    Not,
    Or,
    Pred,
    Top,
    free_vars,
    structure_symbols,
)
from doctrina.calculus import Sequent, decide_relational
from doctrina import semantics
from doctrina.semantics import (
    FiniteStructure,
    SemanticsError,
    _countermodel_scan,
    carrier_structures,
    countermodel_search,
    enumerate_structures,
    eval_in_structure,
    eval_term,
    falsifying_assignment,
)
from doctrina.sexpr import structure_sexpr

from helpers import (
    bench_workloads,
    epr_bound,
    exhaustive_epr_valid,
    random_sequent,
    record_blocks,
    reference_total,
    satisfying_tuples,
    scanned_predicates,
)

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
    ctx = Context(("x",))
    assert satisfying_tuples(Forall("y", Q("x", "y")), ctx, m) == frozenset({(0,)})
    assert satisfying_tuples(Exists("y", Q("x", "y")), ctx, m) == frozenset({(0,), (1,)})


def test_reindex_tuples_is_preimage():
    # P(x) reindexed along (a, b) |-> b holds at (a, b) iff P holds at b
    m = FiniteStructure((0, 1), {}, {"P": frozenset({(1,)})})
    src, dst = Context(("a", "b")), Context(("x",))
    f = CtxMorphism(src, dst, (Var("b"),))
    pre = frozenset(
        values
        for values in itertools.product(m.carrier, repeat=2)
        if eval_in_structure(
            P("x"), m, {"x": eval_term(f.components[0], m, dict(zip(src.vars, values)))}
        )
    )
    assert pre == frozenset({(0, 1), (1, 1)})


def test_tuple_interpretation_matches_eval():
    m = FiniteStructure((0, 1, 2), {}, {"Q": frozenset({(0, 1), (1, 2)})})
    ctx = Context(("x", "y"))
    phi = Or(Q("x", "y"), Not(Q("y", "x")))
    # the powerset reading, by set algebra on the table of Q: Q union the
    # complement of its transpose
    q = m.pred("Q")
    pairs = itertools.product(m.carrier, repeat=2)
    cells = {(x, y) for x, y in pairs if (x, y) in q or (y, x) not in q}
    for vals in itertools.product(m.carrier, repeat=2):
        assert (vals in cells) == eval_in_structure(phi, m, dict(zip(ctx.vars, vals)))


def test_sequent_validity_in_structure():
    m = FiniteStructure((0, 1), {}, {"P": frozenset({(0,), (1,)})})
    s = Sequent(Context(("x",)), (), (P("x"),))
    assert falsifying_assignment(s, m) is None
    m2 = FiniteStructure((0, 1), {}, {"P": frozenset({(0,)})})
    assert falsifying_assignment(s, m2) is not None
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


# --- the public falsification contract against a brute reference loop ------


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
def test_falsifying_assignment_matches_reference_loop(s):
    # Pins the public contract: the first assignment in product order, and
    # the reference's errors on partial tables, the empty carrier and the
    # uninterpreted R.  `falsifying_assignment` is itself this loop, so the
    # differential check of the block masks lives in the brute-loop
    # `countermodel_search` tests below.
    for m in DIFF_STRUCTURES:
        expected = outcome(reference_falsifying_assignment, s, m)
        assert outcome(falsifying_assignment, s, m) == expected, (s, structure_sexpr(m))


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


def test_countermodel_search_handles_deep_nesting():
    # The block masks recurse once per connective, quantifier and function
    # application; these formulas nest hundreds of levels deep.
    negated, term, chain = P("x"), Var("x"), P("x")
    for i in range(401):
        negated = Not(negated)
    for i in range(151):
        term = App("f", (term,))
    for i in range(300):
        chain = And(Top(), chain) if i % 2 else And(chain, Top())
    sig = Signature(functions=(("f", 1),), predicates=(("P", 1),))
    # on nonempty carriers the axiom leaves only the f that swaps 0 and 1
    swap = (Forall("x", Not(Eq(fx(X), X))),)
    for phi in (negated, Pred("P", (term,)), Eq(term, Var("x")), chain):
        for s in (Sequent(Context(("x",)), (), (phi,)), Sequent(Context(("x",)), (phi,), ())):
            for axioms in ((), swap):
                expected = reference_countermodel_search(s, axioms, sig, 2)
                assert countermodel_search(s, axioms, sig, 2) == expected, phi


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
    assert _countermodel_scan(s, axioms, MANY_SIG, 3) == expected


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
    confirmed = {structure_sexpr(m) for m in seen}
    assert confirmed == {structure_sexpr(found[0])}
    assert found == reference_countermodel_search(s, axioms, DIFF_SIG, 2)
    seen.clear()
    contradictory = (Forall("x", P("x")), Exists("x", Not(P("x"))))
    assert _countermodel_scan(s, contradictory, DIFF_SIG, 2) is None
    assert seen == []


def _block_masks(numbered):
    """Each block with a copy of its atom table, taken as it is yielded."""
    return [
        (first, block.carrier, block.functions, block.full, {name: dict(m) for name, m in block.atoms.items()})
        for pick in range(numbered.picks)
        for first, block in numbered.blocks(pick)
    ]


def test_numberings_are_shared_and_never_change(monkeypatch):
    # searches interleaved over signatures, sizes and predicate lists (among
    # them the lists the bounded oracle passes), each equal to a search over
    # freshly built numberings; a search that wrote into a shared numbering
    # shows in the comparison of every cached one with a fresh build after
    from doctrina.prefix import SIGNATURE as PREFIX_SIG, prefix_theory
    from doctrina.syntactic import BoundedOracle

    oracle = BoundedOracle(prefix_theory(), model_size=2)
    x1, x2 = Var("x1"), Var("x2")
    prefix_goals = [
        Sequent(Context(("x1", "x2")), (Pred("R2", (x1, x2)),), (Pred("R1", (x2,)),)),
        Sequent(Context(), (), (Pred("R0"),)),
        Sequent(Context(("x1",)), (Pred("R1", (x1,)),), (Exists("x2", Pred("R2", (x1, x2))),)),
    ]
    rng = random.Random(7)
    cases = []
    for s in [random_sequent(rng, 4) for _ in range(6)]:
        cases += [
            (s, (), SIG, 3, None),
            (s, (), MANY_SIG, 3, None),
            (s, (), SIG, 2, [("Q", 2), ("P", 1)]),
            (s, (Forall("x", P("x")),), SIG, 2, (("P", 1), ("Q", 2))),
        ]
    for s in prefix_goals:
        axioms = oracle.axioms_for(s)
        cases.append((s, axioms, PREFIX_SIG, 2, structure_symbols(PREFIX_SIG, [*s.antecedent, *s.succedent, *axioms])[1]))
    cases += [
        (Sequent(Context(("x",)), (P("x"),), (Eq(X, C),)), (Forall("x", Eq(fx(X), X)),), DIFF_SIG, 2, None),
        (Sequent(Context(("x",)), (), (Pred("R", (X,)),)), (), DIFF_SIG, 2, [("R", 1), ("P", 1)]),
    ]
    random.Random(8).shuffle(cases)

    def fresh(case):
        with monkeypatch.context() as m:
            m.setattr(semantics, "_numbering", semantics.CarrierStructures)
            return outcome(countermodel_search, *case)

    for case in cases:
        assert outcome(countermodel_search, *case) == fresh(case), case
    for _, _, signature, size, predicates in cases:
        shared = list(carrier_structures(signature, size, predicates))
        again = carrier_structures(signature, size, None if predicates is None else list(predicates))
        assert all(a is b for a, b in zip(shared, again, strict=True))
        preds = signature.predicates if predicates is None else predicates
        for numbered in shared:
            built = semantics.CarrierStructures(len(numbered.carrier), signature.functions, preds)
            assert vars(numbered) == vars(built)
            assert _block_masks(numbered) == _block_masks(built)
            if numbered.bits <= 12:
                assert all(block.atoms is numbered.low for _, block in numbered.blocks(0))
    assert semantics._numbering.cache_info().maxsize is not None


# --- the decision before the scan -----------------------------------------------


def shortcut_goals():
    """Goals with their axioms, signature and interpreted predicates: the
    first 1,000 sound-sweep goals of seeds 1-3, 1,000 entail goals of seed 1
    modulo criterion 10's theory, 200 goals with variable equalities, and 21
    goals with an existential over a universal on the right, both binders
    used, which the walk declines."""
    from doctrina.syntactic import BoundedOracle

    workloads = bench_workloads()
    for seed in (1, 2, 3):
        sweep = workloads.SoundSweep(seed)
        for _ in range(1000):
            yield sweep.next_request().sequent, (), workloads.SIG, None
    oracle = BoundedOracle(workloads.UNIVERSAL_THEORY)
    entail = workloads.Entail(1)
    for _ in range(1000):
        goal = entail.next_request()
        s = Sequent(workloads.inferred_context(goal.phi, goal.psi), (goal.phi,), (goal.psi,))
        axioms = oracle.axioms_for(s)
        yield s, axioms, workloads.SIG, structure_symbols(workloads.SIG, [*s.antecedent, *s.succedent, *axioms])[1]
    rng = random.Random(1930)
    for _ in range(200):
        yield random_sequent(rng, 4, equality=True), (), SIG, None
    bodies = (
        Q("y", "z"),
        Q("z", "y"),
        Not(Q("y", "z")),
        Imp(Q("y", "z"), P("z")),
        And(Q("y", "z"), P("y")),
        Or(Q("y", "z"), P("x1")),
        Or(Q("x1", "z"), Q("y", "y")),
    )
    for antecedent in ((), (P("x1"),), (Q("x1", "x1"),)):
        for body in bodies:
            yield Sequent(Context(("x1",)), antecedent, (Exists("y", Forall("z", body)),)), (), SIG, None


def test_the_structure_symbols_keep_the_bounded_oracles_predicates():
    # the scans read `structure_symbols`; on goals over declared function
    # symbols it returns the signature itself and the predicate list the
    # bounded oracle built for its scan, on 4,221 shortcut goals and on goals
    # over the prefix theory's family with the family sentences they read
    from doctrina.prefix import prefix_theory
    from doctrina.syntactic import BoundedOracle

    cases = [(s, axioms, signature) for s, axioms, signature, _ in shortcut_goals()]
    assert len(cases) == 4221
    oracle = BoundedOracle(prefix_theory())
    workloads = bench_workloads()
    rng = random.Random(31)
    for i in range(300):
        k = i % 3 + 1
        phi, psi = workloads.prefix_formula(rng, k, rng.randint(1, 4)), workloads.prefix_formula(rng, k, 3)
        s = Sequent(workloads.inferred_context(phi, psi), (phi,), (psi,))
        cases.append((s, oracle.axioms_for(s), oracle.theory.signature))
    for s, axioms, signature in cases:
        extended, preds = structure_symbols(signature, [*s.antecedent, *s.succedent, *axioms])
        assert extended is signature
        assert preds == scanned_predicates(signature, s, axioms), s


def test_a_goal_the_decision_proves_valid_is_not_scanned(monkeypatch):
    # the search equals the brute loop on every goal; a goal the decision
    # proves valid enumerates no block, and refuted and declined goals,
    # among them declined ones with a countermodel, are scanned
    scanned = record_blocks(monkeypatch)
    seen = Counter()
    for s, axioms, signature, predicates in shortcut_goals():
        known = decide_relational(s, axioms, signature)
        del scanned[:]
        found = countermodel_search(s, axioms, signature, 2, predicates)
        assert found == reference_countermodel_search(s, axioms, signature, 2, predicates), s
        if known is True:
            assert scanned == [], s
        seen["valid" if known is True else "declined" if known is None else "refuted", found is not None] += 1
    assert seen.keys() == {("valid", False), ("refuted", True), ("declined", False), ("declined", True)}, seen
    assert seen["valid", False] >= 3000 and seen["refuted", True] >= 900 and seen["declined", True] >= 10, seen


def without_vacuous_binders(s):
    """`s` with every binder whose variable its body does not use dropped."""

    def drop(phi):
        if isinstance(phi, (Forall, Exists)):
            body = drop(phi.body)
            return body if phi.var not in free_vars(phi.body) else type(phi)(phi.var, body)
        if isinstance(phi, Not):
            return Not(drop(phi.body))
        if isinstance(phi, (And, Or, Imp)):
            return type(phi)(drop(phi.left), drop(phi.right))
        return phi

    return Sequent(s.context, tuple(map(drop, s.antecedent)), tuple(map(drop, s.succedent)))


def test_a_vacuous_binder_is_read_as_its_body():
    # criterion 1's goals, whose contexts are never empty, each also with
    # every formula under two binders of random kinds that it does not use:
    # the walk answers both alike, declines only goals that keep an
    # existential-strength binder below a universal-strength one once such
    # binders are dropped, and agrees with the small-model exhaustion of
    # that reduced goal and with the brute loop over the wrapped goal
    rng, kinds = random.Random(20240901), random.Random(29)

    def wrap(f):
        return kinds.choice((Forall, Exists))("v", kinds.choice((Forall, Exists))("w", f))

    seen = Counter()
    for _ in range(600):
        s = random_sequent(rng)
        wrapped = Sequent(s.context, tuple(map(wrap, s.antecedent)), tuple(map(wrap, s.succedent)))
        found = decide_relational(wrapped, (), SIG)
        assert found == decide_relational(s, (), SIG), s
        reduced = without_vacuous_binders(s)
        bound = epr_bound(reduced)
        if bound is None:
            continue
        assert found is not None, s
        if bound <= 3:
            assert (found is True) == exhaustive_epr_valid(SIG, reduced), s
        if bound <= 2:
            assert (found is True) == (reference_countermodel_search(wrapped, (), SIG, bound) is None), s
        seen[found is True, bound <= 2, epr_bound(s) is None] += 1
    assert len(seen) == 8 and min(seen.values()) >= 5, seen


def test_the_sweep_declines_only_a_real_alternation():
    # of 3,000 sound-sweep goals at seed 1 the walk declines three, each with
    # an existential-strength binder below a universal-strength one that
    # stays once the binders the bodies do not use are dropped
    workloads = bench_workloads()
    sweep = workloads.SoundSweep(1)
    goals = [sweep.next_request().sequent for _ in range(3000)]
    declined = [s for s in goals if decide_relational(s, (), workloads.SIG) is None]
    assert len(declined) == 3
    assert all(epr_bound(without_vacuous_binders(s)) is None for s in declined), declined


# the decision closes each goal at once, before it reads the lookup that
# fails: a function with no table, an uninterpreted predicate, an axiom that
# is not a sentence
UNEVALUABLE_VALID_GOALS = [
    (Sequent(Context(("x",)), (), (Or(Pred("Q", (fx(X),)), Top()),)), (), SIG, "function f undefined"),
    (Sequent(Context(("x",)), (), (Or(Eq(fx(X), X), Top()),)), (), SIG, "function f undefined"),
    (Sequent(Context(("x",)), (P("x"),), (P("x"),)), (), Signature(predicates=(("Q", 2),)), "predicate P has"),
    (Sequent(Context(), (), (Top(),)), (P("y"),), SIG, "variable y unassigned"),
]


@pytest.mark.parametrize("s, axioms, signature, error", UNEVALUABLE_VALID_GOALS)
def test_a_valid_goal_the_scan_cannot_evaluate_still_raises(s, axioms, signature, error):
    assert decide_relational(s, axioms, signature) is True
    with pytest.raises(SemanticsError, match=error):
        countermodel_search(s, axioms, signature, 2)


def test_the_scan_guard_agrees_with_the_atom_walk():
    # the guard reads the kept symbols; the reference walks every atom.  Each
    # goal is also guarded with Q left uninterpreted
    seen = Counter()
    goals = [(s, axioms, signature, None) for s, axioms, signature, _ in UNEVALUABLE_VALID_GOALS]
    for s, axioms, signature, predicates in [*shortcut_goals(), *goals]:
        interpreted = {name for name, _ in (signature.predicates if predicates is None else predicates)}
        for names in (interpreted, interpreted - {"Q"}):
            total = semantics._total(s, list(axioms), names)
            assert total == reference_total(s, axioms, names), (s, names)
            seen[names == interpreted, total] += 1
    assert seen[True, False] == 4 and seen[True, True] >= 4000 and seen[False, False] >= 1000, seen


def test_the_symbols_are_walked_once_per_formula(monkeypatch):
    # `check_arities` walks each goal and axiom formula once; the oracle's
    # predicate list, the scan guard and the rest of the decision read the
    # symbols kept on the formulas
    from doctrina import formula, sexpr
    from doctrina.syntactic import BoundedOracle, check_arities

    walks = []
    functions_of = formula.functions_of
    monkeypatch.setattr(formula, "functions_of", lambda terms: walks.append(1) or functions_of(terms))
    workloads = bench_workloads()
    theory = sexpr.parse_theory(sexpr.parse_sexpr(sexpr.theory_sexpr(workloads.UNIVERSAL_THEORY)))
    oracle = BoundedOracle(theory)
    entail = workloads.Entail(1)
    valid = 0
    for i in range(100):
        goal = entail.next_request()
        phi, psi = (sexpr.parse_formula(sexpr.parse_sexpr(sexpr.formula_sexpr(f))) for f in (goal.phi, goal.psi))
        del walks[:]
        check_arities(theory, (phi, psi))
        once = 2 + (len(theory.axioms) if i == 0 else 0)
        assert len(walks) == once
        s = Sequent(workloads.inferred_context(phi, psi), (phi,), (psi,))
        axioms = oracle.axioms_for(s)
        signature, preds = structure_symbols(theory.signature, [*s.antecedent, *s.succedent, *axioms])
        countermodel_search(s, axioms, signature, 2, preds)
        oracle.decide(s)
        assert len(walks) == once
        valid += decide_relational(s, axioms, theory.signature) is True
    assert valid >= 50, valid
