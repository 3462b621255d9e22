import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from doctrina.lang import Context, CtxMorphism, Var, canonical_context
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
    alpha_eq,
    canonical_form,
    dnf_formula,
    free_vars,
    in_syntactic_layer,
    is_rectified,
    prop_equivalent,
    qa_depth,
    rectify,
    size,
    substitute,
    substitute_formula,
    to_dnf,
)

from doctrina.sexpr import formula_sexpr, parse_formula, parse_sexpr

from helpers import brute_layer_index, enumerate_formulas, random_formula


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
    assert in_syntactic_layer(Top(), 0)
    assert not in_syntactic_layer(Exists("y", Forall("x", R("x", "y"))), 1)
    assert in_syntactic_layer(Not(Forall("x", R("x", "x"))), 1)


def test_layers_are_nested():
    phis = [
        R("x", "y"),
        Forall("x", R("x", "y")),
        Exists("y", Forall("x", R("x", "y"))),
        Not(Exists("x", Top())),
    ]
    for phi in phis:
        for n in range(4):
            if in_syntactic_layer(phi, n):
                assert in_syntactic_layer(phi, n + 1)


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
    assert is_rectified(fixed)
    assert alpha_eq(phi, fixed)
    # free variables forbid the same name as a binder
    phi2 = And(R("x", "x"), Forall("x", S("x")))
    fixed2 = rectify(phi2)
    assert is_rectified(fixed2)
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


@settings(max_examples=150, deadline=None)
@given(_qf_strategy())
def test_to_dnf_is_truth_table_equivalent(phi):
    assert prop_equivalent(phi, dnf_formula(to_dnf(phi)))


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
        assert prop_equivalent(phi, dnf_formula(clauses))
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
        assert prop_equivalent(phi, dnf_formula(to_dnf(phi)))


def test_size_counts_nodes():
    assert size(Top()) == 1
    assert size(Forall("x", Not(R("x", "x")))) == 3


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
