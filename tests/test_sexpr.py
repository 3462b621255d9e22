import random

import pytest
from hypothesis import given, settings, strategies as st

from doctrina.lang import App, Context, PredicateFamily, Signature, Var
from doctrina.formula import And, Bot, Eq, Exists, Forall, Imp, Not, Or, Pred, Top
from doctrina.calculus import Budget, ProofTree, Rule, Sequent, prove_bounded
from doctrina.boolalg import BoolAlg
from doctrina.category import chain_category
from doctrina.doctrine import full_marking, hbx_doctrine, subset_doctrine
from doctrina.semantics import FiniteStructure, carrier_structures
from doctrina.syntactic import Theory
from doctrina import sexpr
from doctrina.sexpr import ParseError

from helpers import random_formula


def roundtrip_formula(phi):
    text = sexpr.formula_sexpr(phi)
    return sexpr.parse_formula(sexpr.parse_sexpr(text))


def test_formula_roundtrips():
    samples = [
        Top(),
        Bot(),
        Pred("R0"),
        Pred("R", (Var("x"), App("f", (Var("y"),)))),
        Eq(Var("x"), App("c")),
        Not(And(Pred("P"), Or(Pred("Q"), Imp(Top(), Bot())))),
        Forall("x", Exists("y", Pred("Q", (Var("x"), Var("y"))))),
    ]
    for phi in samples:
        assert roundtrip_formula(phi) == phi


def test_parse_formula_basics():
    assert sexpr.parse_formula(sexpr.parse_sexpr("(and true false)")) == And(Top(), Bot())
    phi = sexpr.parse_formula(sexpr.parse_sexpr("(forall x (R x))"))
    assert phi == Forall("x", Pred("R", (Var("x"),)))
    # n-ary connectives fold to the right
    assert sexpr.parse_formula(sexpr.parse_sexpr("(and true true false)")) == And(
        Top(), And(Top(), Bot())
    )


def test_parse_error_positions():
    with pytest.raises(ParseError):
        sexpr.parse_sexpr("(and true")
    with pytest.raises(ParseError):
        sexpr.parse_sexpr("(a))")
    with pytest.raises(ParseError):
        sexpr.parse_formula(sexpr.parse_sexpr("(not)"))
    # what the signature, theory and structure constructors refuse
    for parse, text, where in [
        (sexpr.parse_signature, "(signature (functions (f 1) (f 2)))", "1:1"),
        (sexpr.parse_signature, "(signature (predicates (P -1)))", "1:1"),
        (sexpr.parse_theory, "(theory (signature (predicates (P 1)))\n (axioms (P x)))", "2:2"),
        (sexpr.parse_structure, "(structure (carrier) (fun c (() 0)))", "1:1"),
    ]:
        with pytest.raises(ParseError, match=f"at {where}:"):
            parse(sexpr.parse_sexpr(text))


def test_sequent_roundtrip_and_duplicate_context():
    s = Sequent(
        Context(("x", "y")),
        (Pred("P", (Var("x"),)),),
        (Pred("Q", (Var("x"), Var("y"))), Top()),
    )
    text = sexpr.sequent_sexpr(s)
    assert sexpr.parse_sequent(sexpr.parse_sexpr(text)) == s
    with pytest.raises(ParseError):
        sexpr.parse_sequent(sexpr.parse_sexpr("(seq (ctx x x) (ants) (sucs))"))


def test_signature_and_theory_roundtrip():
    sig = Signature(
        functions=(("f", 2), ("c", 0)),
        predicates=(("P", 1),),
        has_equality=True,
        families=(PredicateFamily("R"),),
    )
    sig2 = sexpr.parse_signature(sexpr.parse_sexpr(sexpr.signature_sexpr(sig)))
    assert sig2 == sig
    theory = Theory(sig, (Forall("x", Pred("P", (Var("x"),))),))
    text = sexpr.theory_sexpr(theory)
    theory2 = sexpr.parse_theory(sexpr.parse_sexpr(text))
    assert theory2.signature == sig
    assert theory2.axioms == theory.axioms


def test_structure_roundtrip():
    m = FiniteStructure(
        ("0", "1"),
        {"f": {("0",): "1", ("1",): "1"}},
        {"P": frozenset({("0",)}), "R0": frozenset({()})},
    )
    text = sexpr.structure_sexpr(m)
    m2 = sexpr.parse_structure(sexpr.parse_sexpr(text))
    assert m2.carrier == m.carrier
    assert m2.functions == m.functions
    assert m2.predicates == m.predicates


ROUNDTRIP_SIGS = (
    Signature(predicates=(("P", 1), ("Q", 2))),
    Signature(functions=(("f", 1), ("c", 0)), predicates=(("P", 1), ("S", 0))),
    Signature(functions=(("g", 2),), predicates=(("R0", 0), ("R2", 2))),
)


@st.composite
def decoded_structures(draw):
    signature = draw(st.sampled_from(ROUNDTRIP_SIGS))
    numbered = draw(st.sampled_from(list(carrier_structures(signature, 2))))
    return numbered.structure(draw(st.integers(0, numbered.count - 1)))


def as_text(m):
    """The structure with every element replaced by its printed text, which
    is how the reader returns it."""
    return FiniteStructure(
        tuple(map(str, m.carrier)),
        {name: {tuple(map(str, a)): str(v) for a, v in table.items()} for name, table in m.functions.items()},
        {name: frozenset(tuple(map(str, t)) for t in ts) for name, ts in m.predicates.items()},
    )


@settings(max_examples=150, deadline=None)
@given(decoded_structures())
def test_structure_sexpr_roundtrips_decoded_structures(m):
    text = sexpr.structure_sexpr(m)
    back = sexpr.parse_structure(sexpr.parse_sexpr(text))
    assert back == as_text(m)
    assert sexpr.structure_sexpr(back) == text


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 12))
def test_formula_sexpr_roundtrips_random_formulas(seed, arity, size):
    rng = random.Random(seed)
    phi = random_formula(rng, tuple(f"x{i}" for i in range(1, arity + 1)), size)
    assert sexpr.parse_formula(sexpr.parse_sexpr(sexpr.formula_sexpr(phi))) == phi


def test_proof_roundtrip():
    s = Sequent(Context(("x",)), (Pred("P", (Var("x"),)),), (Pred("P", (Var("x"),)),))
    tree = prove_bounded(s, budget=Budget(max_depth=4))
    text = sexpr.proof_sexpr(tree)
    tree2 = sexpr.parse_proof(sexpr.parse_sexpr(text))
    assert tree2 == tree
    # a proof with a quantifier witness and a theory leaf
    ax = Forall("y", Pred("P", (Var("y"),)))
    s2 = Sequent(Context(("x",)), (), (Pred("P", (Var("x"),)),))
    tree3 = prove_bounded(s2, [ax], Budget(max_depth=6))
    text3 = sexpr.proof_sexpr(tree3)
    assert sexpr.parse_proof(sexpr.parse_sexpr(text3)) == tree3


def test_doctrine_roundtrip():
    d = subset_doctrine({"E": (), "U": ("*",)})
    text = sexpr.doctrine_sexpr(d)
    d2 = sexpr.parse_doctrine(sexpr.parse_sexpr(text))
    assert d2.base.objects == d.base.objects
    assert d2.base.morphisms == d.base.morphisms
    assert d2.base.comp == d.base.comp
    assert d2.base.products == d.base.products
    assert d2.base.pairings == d.base.pairings
    assert d2.fibers == d.fibers
    assert d2.reindex == d.reindex
    assert d2.forall == d.forall
    assert d2.delta == d.delta
    # and printing again is byte-identical
    assert sexpr.doctrine_sexpr(d2) == text


def test_marking_roundtrip():
    # objects the doctrine lacks are kept unchecked
    marking = {"A": frozenset({0, 1, 3}), "B": frozenset()}
    text = sexpr.marking_sexpr(marking)
    d = subset_doctrine({"E": (), "U": ("*",)})
    assert sexpr.parse_marking(sexpr.parse_sexpr(text), d) == marking


def test_comments_and_whitespace():
    text = "; a comment\n( and   true\n; another\n  false )"
    assert sexpr.parse_formula(sexpr.parse_sexpr(text)) == And(Top(), Bot())


def tokenize_by_characters(text):
    """The reference: the character loop the tokenizer once was."""
    line, col = 1, 0
    i = 0
    while i < len(text):
        c = text[i]
        col += 1
        if c == "\n":
            line += 1
            col = 0
            i += 1
            continue
        if c in " \t\r":
            i += 1
            continue
        if c == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if c in "()":
            yield (c, line, col)
            i += 1
            continue
        start = i
        start_col = col
        while i < len(text) and text[i] not in "(); \t\r\n":
            i += 1
            col += 1
        col -= 1
        yield (text[start:i], line, start_col)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(st.text(alphabet="();\t\r\n ab1\u00e9\x0b\x00", max_size=60))
def test_tokenize_matches_the_character_loop(text):
    assert list(sexpr.tokenize(text)) == list(tokenize_by_characters(text))


# --- mutated documents ------------------------------------------------------------


def _fuzz_documents():
    d = subset_doctrine({"E": (), "U": ("*",)})
    hbx = hbx_doctrine(chain_category(2), "c1", BoolAlg(1))
    x = Pred("P", (Var("x"),))
    s = Sequent(Context(("x",)), (Forall("y", Pred("P", (Var("y"),))),), (And(x, x),))
    proof = sexpr.proof_sexpr(prove_bounded(s, budget=Budget(max_depth=8)))
    marking = sexpr.marking_sexpr(full_marking(d))
    y, fx = Var("y"), App("f", (Var("x"),))
    phi = Forall("x", Imp(Pred("P", (fx,)), Or(Eq(Var("x"), App("c")), Not(Pred("Q", (Var("x"), y))))))
    sig = Signature((("f", 1), ("c", 0)), (("P", 1), ("Q", 2)), True, (PredicateFamily("R"),))
    theory = Theory(sig, (Forall("x", Pred("P", (fx,))), Forall("x", Eq(Var("x"), Var("x")))))
    m = FiniteStructure(
        ("0", "1"),
        {"c": {(): "0"}, "f": {("0",): "1", ("1",): "0"}},
        {"P": frozenset({("0",)}), "R0": frozenset({()})},
    )
    return [
        (sexpr.parse_formula, sexpr.formula_sexpr(phi)),
        (sexpr.parse_sequent, sexpr.sequent_sexpr(s)),
        (sexpr.parse_signature, sexpr.signature_sexpr(sig)),
        (sexpr.parse_theory, sexpr.theory_sexpr(theory)),
        (sexpr.parse_structure, sexpr.structure_sexpr(m)),
        (sexpr.parse_doctrine, sexpr.doctrine_sexpr(d)),
        (sexpr.parse_doctrine, sexpr.doctrine_sexpr(hbx)),
        (lambda node: sexpr.parse_marking(node, d), marking),
        (sexpr.parse_proof, proof),
    ]


FUZZ_DOCUMENTS = _fuzz_documents()
FUZZ_TOKENS = ["(", ")", "-1", "0", "1", "5", "x", "U", "c1", "rule", "concl", "exists"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_parsers_refuse_mutated_documents_with_parse_errors(data):
    # delete, duplicate or replace one token of a printed document: the
    # parser returns or raises ParseError, never anything else
    parse, text = data.draw(st.sampled_from(FUZZ_DOCUMENTS))
    tokens = [tok for tok, _, _ in sexpr.tokenize(text)]
    i = data.draw(st.integers(0, len(tokens) - 1))
    edit = data.draw(st.sampled_from(["delete", "duplicate", "replace"]))
    if edit == "delete":
        del tokens[i]
    elif edit == "duplicate":
        tokens.insert(i, tokens[i])
    else:
        tokens[i] = data.draw(st.sampled_from(FUZZ_TOKENS + tokens))
    try:
        parse(sexpr.parse_sexpr(" ".join(tokens)))
    except ParseError:
        pass
