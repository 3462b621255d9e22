import itertools

import pytest

from doctrina.lang import (
    App,
    Context,
    CtxMorphism,
    LangError,
    PredicateFamily,
    Signature,
    Var,
    canonical_context,
    compose_ctx,
    identity_morphism,
    pairing,
    product_ctx,
    substitute_term,
)

from helpers import naive_subst


def t(name, *args):
    return App(name, tuple(args))


def test_context_rejects_duplicates():
    with pytest.raises(LangError):
        Context(("x", "x"))


def test_predicate_family_generates_deterministically():
    fam = PredicateFamily("R")
    assert fam.name(3) == "R3"
    assert fam.arity_of("R3") == 3
    assert fam.arity_of("R03") is None
    sig = Signature(families=(fam,))
    assert dict(sig.predicates).get("R7", fam.arity_of("R7")) == 7
    assert dict(sig.predicates).get("S1", fam.arity_of("S1")) is None


def test_signature_rejects_duplicate_names():
    with pytest.raises(LangError):
        Signature(functions=(("f", 1), ("f", 2)))


def test_compose_identity_law():
    x = Context(("x",))
    y = Context(("y",))
    f = CtxMorphism(x, y, (t("t", Var("x")),))
    assert compose_ctx(identity_morphism(y), f) == f
    assert compose_ctx(f, identity_morphism(x)) == f


def test_compose_matches_naive_substitution():
    x, y, z = Context(("x",)), Context(("y",)), Context(("z",))
    f = CtxMorphism(x, y, (t("f", Var("x")),))
    g = CtxMorphism(y, z, (t("h", Var("y")),))
    composed = compose_ctx(g, f)
    assert composed.source == x and composed.target == z
    expected = naive_subst(t("h", Var("y")), {"y": t("f", Var("x"))})
    assert composed.components == (expected,)
    assert composed.components == (t("h", t("f", Var("x"))),)


def _morphisms_up_to_depth2(sig: Signature, src: Context, dst: Context):
    """All morphisms src -> dst with components of depth <= 2 over one unary
    and one binary function symbol (capped for the exhaustive law check)."""
    base = [Var(v) for v in src.vars]
    depth1 = [App("u", (x,)) for x in base] + [
        App("b", pair) for pair in itertools.product(base, repeat=2)
    ]
    pool = base + depth1
    depth2 = [App("u", (p,)) for p in depth1]
    pool = pool + depth2
    for combo in itertools.product(pool, repeat=len(dst)):
        yield CtxMorphism(src, dst, combo)


def test_category_laws_exhaustive_small():
    sig = Signature(functions=(("u", 1), ("b", 2)))
    a, b, c, d = Context(("x",)), Context(("y",)), Context(("z",)), Context(("w",))
    fs = list(_morphisms_up_to_depth2(sig, a, b))
    gs = list(_morphisms_up_to_depth2(sig, b, c))
    hs = list(_morphisms_up_to_depth2(sig, c, d))
    assert len(fs) >= 4
    for f in fs:
        assert compose_ctx(identity_morphism(b), f) == f
        assert compose_ctx(f, identity_morphism(a)) == f
    for f, g, h in itertools.product(fs, gs, hs):
        assert compose_ctx(h, compose_ctx(g, f)) == compose_ctx(compose_ctx(h, g), f)


def test_product_with_empty_context():
    a = Context(("x1",))
    p, pr1, pr2 = product_ctx(a, Context(()))
    assert p == a
    assert pr1 == identity_morphism(a)
    assert pr2.components == ()
    p2, q1, q2 = product_ctx(Context(()), Context(()))
    assert p2 == Context(())
    assert q1.components == () == q2.components


def test_product_renames_clash_from_pool():
    a = Context(("x1",))
    p, pr1, pr2 = product_ctx(a, a)
    assert p.vars == ("x1", "x2")
    assert pr1.components == (Var("x1"),)
    assert pr2.components == (Var("x2"),)


def test_product_renaming_is_deterministic():
    a, b = Context(("x1", "y")), Context(("y", "x2"))
    assert product_ctx(a, b) == product_ctx(a, b)


def test_pairing_diagonal():
    x = Context(("x",))
    i = identity_morphism(x)
    d = pairing(i, i)
    assert d.components == (Var("x"), Var("x"))
    assert len(d.target) == 2


def test_pairing_projection_equations():
    sig = Signature(functions=(("u", 1), ("b", 2)))
    w, a, b = Context(("x", "y")), Context(("z",)), Context(("v",))
    fs = list(_morphisms_up_to_depth2(sig, w, a))[:6]
    gs = list(_morphisms_up_to_depth2(sig, w, b))[:6]
    for f, g in itertools.product(fs, gs):
        p, pr1, pr2 = product_ctx(f.target, g.target)
        fg = pairing(f, g)
        assert compose_ctx(pr1, fg) == f
        assert compose_ctx(pr2, fg) == g


def test_pairing_of_projections_is_identity():
    a, b = Context(("x",)), Context(("y",))
    p, pr1, pr2 = product_ctx(a, b)
    assert pairing(pr1, pr2) == identity_morphism(p)


def test_pairing_uniqueness_against_composites():
    # <pr1 o h, pr2 o h> = h for every morphism h into the product
    sig = Signature(functions=(("u", 1),))
    w = Context(("x",))
    a, b = Context(("y",)), Context(("z",))
    p, pr1, pr2 = product_ctx(a, b)
    for h in _morphisms_up_to_depth2(sig, w, p):
        assert pairing(compose_ctx(pr1, h), compose_ctx(pr2, h)) == h


def test_substitute_term_examples():
    x = Context(("x",))
    assert substitute_term(Var("x"), identity_morphism(x)) == Var("x")
    f = CtxMorphism(
        Context(("z",)), Context(("x", "y")), (t("g", Var("z")), Var("z"))
    )
    assert substitute_term(t("f", Var("x"), Var("y")), f) == t("f", t("g", Var("z")), Var("z"))
    const = t("c")
    sig = Signature(functions=(("c", 0),))
    assert substitute_term(const, f) == const


def test_substitute_unbound_variable_errors():
    f = identity_morphism(Context(("x",)))
    with pytest.raises(LangError):
        substitute_term(Var("y"), f)


def test_compose_context_mismatch_errors():
    f = identity_morphism(Context(("x",)))
    g = identity_morphism(Context(("y",)))
    with pytest.raises(LangError):
        compose_ctx(g, f)


def test_canonical_context():
    assert canonical_context(3).vars == ("x1", "x2", "x3")
    assert canonical_context(0).vars == ()
