import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from doctrina.lang import App, Context, CtxMorphism, Var, canonical_context
from doctrina.formula import (
    And,
    Bot,
    Eq,
    Exists,
    Forall,
    FormulaError,
    FormulaInContext,
    Imp,
    Not,
    Or,
    Pred,
    Top,
    all_vars,
    alpha_eq,
    atoms_of,
    canonical_form,
    dnf_formula,
    eval_prop,
    free_vars,
    is_quantifier_free,
    qa_depth,
    rectify,
    size,
    subformulas,
    substitute,
    substitute_formula,
    symbols_of,
    to_dnf,
)

from doctrina.sexpr import formula_sexpr, parse_formula, parse_sexpr
from doctrina.syntactic import max_pred_arity, predicates_of

from helpers import brute_layer_index, enumerate_formulas, random_formula, random_sequent, rebuilt_canonical_form


def R(*names):
    return Pred("R", tuple(Var(n) for n in names))


def S(*names):
    return Pred("S", tuple(Var(n) for n in names))


def test_free_vars_examples():
    assert free_vars(Top()) == frozenset()
    assert free_vars(Forall("x", R("x", "y"))) == {"y"}
    assert free_vars(And(R("x", "y"), Exists("z", S("z")))) == {"x", "y"}


def test_formula_in_context_requires_cover():
    FormulaInContext(R("x", "y"), Context(("x", "y", "z")))
    with pytest.raises(FormulaError):
        FormulaInContext(R("x", "y"), Context(("x",)))


def test_qa_depth_known_values():
    assert qa_depth(R("x", "y")) == 0
    assert qa_depth(Forall("x", R("x", "y"))) == 1
    assert qa_depth(Exists("y", Forall("x", R("x", "y")))) == 2
    assert qa_depth(Forall("x", Forall("y", R("x", "y")))) == 1


def test_qa_depth_boolean_transparency():
    phi = Not(Forall("x", R("x", "y")))
    assert qa_depth(phi) == 1
    assert qa_depth(Or(phi, Exists("z", S("z")))) == 1
    # an existential block over a universal one alternates
    assert qa_depth(Exists("x", Exists("y", Forall("z", R("z", "z"))))) == 2


def test_in_syntactic_layer_examples():
    # a formula lies in the n-th syntactic layer iff its alternation depth is at most n
    assert qa_depth(Top()) <= 0
    assert not qa_depth(Exists("y", Forall("x", R("x", "y")))) <= 1
    assert qa_depth(Not(Forall("x", R("x", "x")))) <= 1


def test_layers_are_nested():
    phis = [
        R("x", "y"),
        Forall("x", R("x", "y")),
        Exists("y", Forall("x", R("x", "y"))),
        Not(Exists("x", Top())),
    ]
    for phi in phis:
        for n in range(4):
            if qa_depth(phi) <= n:
                assert qa_depth(phi) <= n + 1


def test_qa_depth_agrees_with_brute_force_layers():
    atoms = [Pred("P", (Var("x1"),)), Pred("P", (Var("x2"),))]
    formulas = enumerate_formulas(atoms, ["x1", "x2"], 6)
    cache: dict = {}
    assert len(formulas) > 3000
    for phi in formulas:
        assert qa_depth(phi) == brute_layer_index(phi, cache), repr(phi)


def test_alpha_equivalence():
    a = Forall("x", R("x", "y"))
    b = Forall("z", R("z", "y"))
    assert alpha_eq(a, b)
    assert not alpha_eq(a, Forall("z", R("y", "z")))
    assert canonical_form(a) == canonical_form(b)


def test_rectify_enforces_distinct_binders():
    phi = And(Forall("x", R("x", "x")), Forall("x", S("x")))
    fixed = rectify(phi)
    assert rectify(fixed) == fixed
    assert alpha_eq(phi, fixed)
    # free variables forbid the same name as a binder
    phi2 = And(R("x", "x"), Forall("x", S("x")))
    fixed2 = rectify(phi2)
    assert rectify(fixed2) == fixed2
    assert free_vars(fixed2) == {"x"}


def test_substitute_formula_identity():
    ctx = Context(("x",))
    fic = FormulaInContext(Forall("y", R("x", "y")), ctx)
    out = substitute_formula(fic, CtxMorphism(ctx, ctx, (Var("x"),)))
    assert alpha_eq(out.formula, fic.formula)


def test_substitute_formula_capture_avoidance():
    # (forall y R(x, y)) under x := y must rename the binder
    src, dst = Context(("y",)), Context(("x",))
    f = CtxMorphism(src, dst, (Var("y"),))
    fic = FormulaInContext(Forall("y", R("x", "y")), dst)
    out = substitute_formula(fic, f)
    assert out.context == src
    assert isinstance(out.formula, Forall)
    fresh = out.formula.var
    assert fresh != "y"
    assert alpha_eq(out.formula, Forall("z", R("y", "z")))


def test_substitute_formula_constants():
    src, dst = Context(("z",)), Context(("x",))
    f = CtxMorphism(src, dst, (Var("z"),))
    assert substitute_formula(FormulaInContext(Bot(), dst), f).formula == Bot()


def test_substitution_commutes_with_composition():
    from doctrina.lang import compose_ctx

    x, y, z = Context(("x",)), Context(("y", "y2")), Context(("z",))
    f = CtxMorphism(x, y, (Var("x"), Var("x")))
    g = CtxMorphism(y, z, (Var("y2"),))
    phis = [R("z", "z"), Forall("w", R("w", "z")), Exists("w", And(R("w", "z"), S("w")))]
    for phi in phis:
        fic = FormulaInContext(phi, z)
        once = substitute_formula(fic, compose_ctx(g, f))
        twice = substitute_formula(substitute_formula(fic, g), f)
        assert alpha_eq(once.formula, twice.formula)


def test_substitution_commutes_with_connectives():
    src, dst = Context(("u",)), Context(("x", "y"))
    f = CtxMorphism(src, dst, (Var("u"), Var("u")))
    a, b = R("x", "y"), S("x")
    for ctor in (And, Or, Imp):
        whole = substitute_formula(FormulaInContext(ctor(a, b), dst), f).formula
        parts = ctor(
            substitute_formula(FormulaInContext(a, dst), f).formula,
            substitute_formula(FormulaInContext(b, dst), f).formula,
        )
        assert alpha_eq(whole, parts)


def test_to_dnf_examples():
    P, Q = Pred("P"), Pred("Q")
    assert to_dnf(P) == [((P,), ())]
    assert to_dnf(Not(And(P, Q))) == [((), (P,)), ((), (Q,))]
    assert to_dnf(Imp(P, P)) == [((), ())]
    assert to_dnf(And(P, Not(P))) == []


def test_to_dnf_rejects_quantifiers():
    with pytest.raises(FormulaError):
        to_dnf(Forall("x", R("x", "x")))


def _qf_strategy():
    atoms = st.sampled_from(
        [Pred("P"), Pred("Q"), Pred("T", (Var("x"),)), Pred("T", (Var("y"),))]
    )
    return st.recursive(
        atoms | st.just(Top()) | st.just(Bot()),
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Imp, sub, sub),
        ),
        max_leaves=10,
    )


def truth_equivalent(a, b) -> bool:
    """Whether two quantifier-free formulas agree under every valuation of
    their atoms."""
    atoms = sorted(set(atoms_of(a)) | set(atoms_of(b)), key=repr)
    for bits in itertools.product((False, True), repeat=len(atoms)):
        val = dict(zip(atoms, bits))
        if eval_prop(a, val) != eval_prop(b, val):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(_qf_strategy())
def test_to_dnf_is_truth_table_equivalent(phi):
    assert truth_equivalent(phi, dnf_formula(to_dnf(phi)))


def test_to_dnf_exhaustive_three_atoms():
    # every Boolean function of 3 atoms round-trips through the DNF
    atoms = [Pred("P"), Pred("Q"), Pred("T")]
    from doctrina.formula import conj, disj

    for rows in range(1 << 8):
        minterms = []
        for m in range(8):
            if (rows >> m) & 1:
                bits = [(m >> j) & 1 for j in range(3)]
                minterms.append(conj([a if b else Not(a) for a, b in zip(atoms, bits)]))
        phi = disj(minterms)
        clauses = to_dnf(phi)
        assert truth_equivalent(phi, dnf_formula(clauses))
        # prime implicant lists are canonical per function
        assert clauses == to_dnf(dnf_formula(clauses))


def test_to_dnf_four_atoms_sampled():
    atoms = [Pred("P"), Pred("Q"), Pred("T"), Pred("U")]
    from doctrina.formula import conj, disj

    import random

    rng = random.Random(3)
    for _ in range(60):
        rows = rng.getrandbits(16)
        minterms = []
        for m in range(16):
            if (rows >> m) & 1:
                bits = [(m >> j) & 1 for j in range(4)]
                minterms.append(conj([a if b else Not(a) for a, b in zip(atoms, bits)]))
        phi = disj(minterms)
        assert truth_equivalent(phi, dnf_formula(to_dnf(phi)))


def test_size_counts_nodes():
    assert size(Top()) == 1
    assert size(Forall("x", Not(R("x", "x")))) == 3


def test_subformulas_is_pre_order_left_to_right():
    phi = And(Forall("x", Not(R("x", "y"))), Or(Top(), R("y", "y")))
    assert list(subformulas(phi)) == [
        phi, phi.left, phi.left.body, phi.left.body.body, phi.right, Top(), R("y", "y"),
    ]
    with pytest.raises(FormulaError, match="not a formula"):
        list(subformulas(Not("P")))
    # the first quantifier from the left is the one reported
    with pytest.raises(FormulaError, match="not quantifier-free: forall x"):
        atoms_of(Or(Not(Forall("x", R("x", "x"))), Exists("y", R("y", "y"))))


def test_folds_do_not_recurse_on_deep_formulas():
    # far deeper than the interpreter's frame limit
    deep = R("x", "y")
    for _ in range(5000):
        deep = Not(deep)
    assert size(deep) == 5001
    assert all_vars(deep) == {"x", "y"}
    assert is_quantifier_free(deep)
    assert atoms_of(deep) == [R("x", "y")]
    assert predicates_of(deep) == {("R", 2)}
    assert max_pred_arity(deep) == 2


def test_symbols_of_keeps_predicates_functions_and_equality():
    x, y = Var("x"), Var("y")
    eq = Eq(x, y)
    assert symbols_of(eq) == (frozenset(), frozenset(), True)
    assert symbols_of(eq) is symbols_of(eq)
    assert max_pred_arity(eq) == 2
    assert max_pred_arity(And(eq, Pred("R3", (x, y, Var("z"))))) == 3
    assert max_pred_arity(Or(Pred("P", (x,)), Not(eq))) == 2
    assert max_pred_arity(Imp(Top(), Bot())) == 0
    fx = App("f", (x,))
    phi = Forall("x", And(Pred("P", (fx,)), Eq(App("c", ()), App("g", (fx, y)))))
    assert symbols_of(phi) == ({("P", 1)}, {("f", 1), ("c", 0), ("g", 2)}, True)
    assert predicates_of(phi) == {("P", 1)}


def test_qa_depth_is_alpha_invariant():
    pairs = [
        (Forall("x", R("x", "y")), Forall("z", R("z", "y"))),
        (
            Exists("a", Forall("b", R("a", "b"))),
            Exists("u", Forall("v", R("u", "v"))),
        ),
        (
            Not(Forall("x", Exists("w", R("x", "w")))),
            Not(Forall("p", Exists("q", R("p", "q")))),
        ),
    ]
    for a, b in pairs:
        assert alpha_eq(a, b)
        assert qa_depth(a) == qa_depth(b)
    # and canonical renaming never changes the depth
    for phi, _ in pairs:
        assert qa_depth(canonical_form(phi)) == qa_depth(phi)
        assert qa_depth(rectify(phi)) == qa_depth(phi)


def _fill_caches(phi):
    hash(phi)
    free_vars(phi)
    canonical_form(phi)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.booleans())
def test_cached_node_data_matches_an_uncached_twin(seed, size, fill_original):
    rng = random.Random(seed)
    variables = ("x1", "x2")
    phi = random_formula(rng, variables, size)
    other = random_formula(rng, variables, size)

    def twin():
        # rebuilt from text, so no node is shared and no cache is filled
        return parse_formula(parse_sexpr(formula_sexpr(phi)))

    before = twin()
    assert before is not phi and before == phi and phi == before
    _fill_caches(phi if fill_original else before)
    after = twin()
    for t in (before, after):
        assert t == phi and phi == t
        assert hash(t) == hash(phi)
        assert free_vars(t) == free_vars(phi)
        assert canonical_form(t) == canonical_form(phi)
    assert len({phi, before, after}) == 1

    variant = rectify(phi, avoid=("x4", "x5", "x6"))
    for a, b in ((phi, other), (phi, after), (phi, variant), (other, variant)):
        same = canonical_form(a) == canonical_form(b)
        assert alpha_eq(a, b) == alpha_eq(b, a) == same
    assert alpha_eq(phi, variant)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9))
def test_canonical_form_equals_the_rebuilding_walk(seed, size):
    phi = random_formula(random.Random(seed), ("x1", "x2"), size)
    for f in subformulas(phi):
        assert canonical_form(f) == rebuilt_canonical_form(f), f


def test_canonical_forms_of_the_seeded_sweep_goals_equal_the_rebuilding_walk():
    rng = random.Random(20240901)
    checked = 0
    for _ in range(100):
        s = random_sequent(rng, 5)
        for phi in s.antecedent + s.succedent:
            for f in subformulas(phi):
                assert canonical_form(f) == rebuilt_canonical_form(f), f
                checked += 1
    assert checked > 500


def test_a_binder_free_formula_is_its_own_canonical_form_and_no_cycle():
    phi = And(Pred("P", (Var("x1"),)), Not(Eq(Var("x1"), Var("x2"))))
    quantified = Forall("x3", Imp(phi, Pred("Q", (Var("x3"), Var("x1")))))
    for f in subformulas(quantified):
        canonical_form(f)
    assert canonical_form(phi) is phi and canonical_form(phi.left) is phi.left
    assert canonical_form(quantified) is not quantified
    # freed by reference counting alone: neither node is in a reference cycle
    refs = [weakref.ref(phi), weakref.ref(phi.left), weakref.ref(quantified)]
    gc.disable()
    try:
        del phi, quantified, f
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()
