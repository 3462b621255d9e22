import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from doctrina.lang import App, Context, PredicateFamily, Signature, Var
from doctrina.formula import And, Bot, Eq, Exists, Forall, Imp, Not, Or, Pred, Top, subformulas
from doctrina.calculus import Budget, ProofTree, Rule, Sequent, prove_bounded
from doctrina.boolalg import BoolAlg
from doctrina.category import chain_category
from doctrina.doctrine import full_marking, hbx_doctrine, subset_doctrine
from doctrina.semantics import FiniteStructure, carrier_structures
from doctrina.syntactic import Theory
from doctrina import sexpr
from doctrina.sexpr import ParseError

from helpers import (
    random_formula,
    random_qf_formula,
    random_sequent,
    reference_formula_text,
    reference_proof_text,
)


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


def seeded_formulas(seed: int, n: int) -> list:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        variables = tuple(f"x{i}" for i in range(1, rng.randint(1, 3) + 1))
        size = rng.randint(1, 14)
        if rng.random() < 0.5:
            out.append(random_formula(rng, variables, size, equality=True))
        else:
            out.append(random_qf_formula(rng, variables, size, equality=True))
    return out


def test_kept_text_equals_the_plain_printer_on_seeded_formulas():
    # the first call prints and keeps the text on every node it reaches; the
    # next call hands back the kept string itself, and each subformula keeps
    # the text the plain printer gives it
    for phi in seeded_formulas(30, 400):
        expected = reference_formula_text(phi)
        text = sexpr.formula_sexpr(phi)
        assert text == expected
        assert sexpr.formula_sexpr(phi) is text
        for sub in subformulas(phi):
            assert sexpr.formula_sexpr(sub) == reference_formula_text(sub)


def test_a_subformula_printed_before_its_parent_keeps_the_parents_text():
    x, y = Var("x"), Var("y")
    inner = And(Pred("P", (x,)), Eq(App("f", (x,)), y))
    assert sexpr.formula_sexpr(inner) == "(and (P x) (= (f x) y))"
    phi = Forall("y", Or(inner, Not(inner)))
    assert sexpr.formula_sexpr(phi) == reference_formula_text(phi) == (
        "(forall y (or (and (P x) (= (f x) y)) (not (and (P x) (= (f x) y)))))"
    )
    # seeded formulas whose subformulas, some of them, were printed first,
    # in a random order
    rng = random.Random(31)
    for phi in seeded_formulas(32, 300):
        subs = list(subformulas(phi))
        for sub in rng.sample(subs, rng.randint(1, len(subs))):
            sexpr.formula_sexpr(sub)
        assert sexpr.formula_sexpr(phi) == reference_formula_text(phi)


def test_kept_text_equals_the_plain_printer_on_seeded_certificates():
    # certificates repeat their formula objects at many nodes; modulo an
    # axiom set, they carry TheoryAxiom leaves with a formula argument too
    sig = Signature(predicates=(("P", 1), ("Q", 2)))
    symmetric = Forall("x", Forall("y", Imp(Pred("Q", (Var("x"), Var("y"))), Pred("Q", (Var("y"), Var("x"))))))
    rng = random.Random(33)
    proved = 0
    for k in range(80):
        axioms = () if k % 2 else (Forall("x", Pred("P", (Var("x"),))), symmetric)
        tree = prove_bounded(random_sequent(rng, 5), axioms, Budget(6, 2, 2000), sig)
        if tree is None:
            continue
        proved += 1
        expected = reference_proof_text(tree)
        assert sexpr.proof_sexpr(tree) == expected
        assert sexpr.proof_sexpr(tree) == expected
        assert sexpr.proof_sexpr(sexpr.parse_proof(sexpr.parse_sexpr(expected))) == expected
    assert proved >= 40


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
    sig = Signature((("f", 1), ("c", 0)), (("P", 1), ("Q", 2)), (PredicateFamily("R"),))
    theory = Theory(sig, (Forall("x", Pred("P", (fx,))), Forall("x", Eq(Var("x"), Var("x")))))
    m = FiniteStructure(
        ("0", "1"),
        {"c": {(): "0"}, "f": {("0",): "1", ("1",): "0"}},
        {"P": frozenset({("0",)}), "R0": frozenset({()})},
    )
    # the signature names `equality`, an item the parser still reads though
    # it means nothing, so the documents are those the digests were taken on
    sig_text = sexpr.signature_sexpr(sig)[:-1] + " equality)"
    theory_text = sexpr.theory_sexpr(theory).replace(sexpr.signature_sexpr(sig), sig_text)
    return [
        (sexpr.parse_formula, sexpr.formula_sexpr(phi)),
        (sexpr.parse_sequent, sexpr.sequent_sexpr(s)),
        (sexpr.parse_signature, sig_text),
        (sexpr.parse_theory, theory_text),
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


# --- pinned error messages and positions ------------------------------------------

FUZZ_SEPARATORS = (" ", "\n  ", " ; c\n", "\t")


def _edited_documents(rng, per_document):
    """Single-token edits of each fuzz document, joined with mixed
    separators so that the error positions fall on many lines and columns,
    some after comments."""
    for parse, text in FUZZ_DOCUMENTS:
        base = [tok for tok, _, _ in sexpr.tokenize(text)]
        for _ in range(per_document):
            tokens = list(base)
            i = rng.randrange(len(tokens))
            edit = rng.choice(("delete", "duplicate", "replace"))
            if edit == "delete":
                del tokens[i]
            elif edit == "duplicate":
                tokens.insert(i, tokens[i])
            else:
                tokens[i] = rng.choice(FUZZ_TOKENS + base)
            yield parse, "".join(rng.choice(FUZZ_SEPARATORS) + tok for tok in tokens)


def _outcome(parse, text):
    try:
        parse(sexpr.parse_sexpr(text))
    except ParseError as e:
        return str(e)
    return "ok"


def test_parse_error_messages_and_positions_are_pinned():
    # the digest of every message (or "ok") over 2,007 edited documents,
    # taken before the tree builder kept token indices instead of positions
    outcomes = [_outcome(parse, text) for parse, text in _edited_documents(random.Random(16), 223)]
    assert sum(o != "ok" for o in outcomes) > 1000
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "032803c9a27450f5478e01828c87e8897c2cad2baacf7e50ecfede6643d1ab76"


TABLE_DOCTRINE = sexpr.doctrine_sexpr(subset_doctrine({"E": (), "U": ("*",)}))


@pytest.mark.parametrize("section, edited, message", [
    ("(reindex U->U[0] 0 1)", "(reindex U->U[0] 0 a)", "26:22: expected an integer table entry, got 'a'"),
    ("(reindex U->U[0] 0 1)", "(reindex U->U[0] 0 -1)",
     "26:22: table entry -1 is not an element of a fiber with 1 atoms"),
    ("(reindex U->U[0] 0 1)", "(reindex U->U[0] 0 2)",
     "26:22: table entry 2 is not an element of a fiber with 1 atoms"),
    ("(reindex U->U[0] 0 1)", "(reindex U->U[0] 0 (1))", "26:22: expected table entry"),
    ("(reindex U->U[0] 0 1)", "(reindex U->U[0] 0 1 1)", "26:3: table has 3 entries for a fiber with 1 atoms"),
    ("(reindex U->U[0] 0 1)", "(reindex U->U[0] 2 a)",
     "26:20: table entry 2 is not an element of a fiber with 1 atoms"),
    ("(reindex U->U[0] 0 1)", "(reindex U->U[0] 1_0 -0)", "26:20: expected an integer table entry, got '1_0'"),
    ("(forall U U 0 1)", "(forall U U 0 x1)", "30:17: expected an integer table entry, got 'x1'"),
    ("(forall U E 1)", "(forall U E 3)", "29:15: table entry 3 is not an element of a fiber with 1 atoms"),
    ("(delta U 1)", "(delta U 2)", "32:12: element 2 is not an element of a fiber with 1 atoms"),
    ("(delta U 1)", "(delta U (1))", "32:12: expected element"),
])
def test_table_entries_keep_their_messages_and_positions(section, edited, message):
    assert TABLE_DOCTRINE.count(section) == 1
    text = TABLE_DOCTRINE.replace(section, edited)
    with pytest.raises(ParseError) as e:
        sexpr.parse_doctrine(sexpr.parse_sexpr(text))
    assert str(e.value) == "parse error at " + message


@pytest.mark.parametrize("text, message", [
    ("(marking (E 0)\n (U 0 x))", "2:7: expected an integer element, got 'x'"),
    ("(marking (E 0)\n (U 0 -1))", "2:7: element -1 is not an element of a fiber with 1 atoms"),
    ("(marking (E 0)\n (U 2 0))", "2:5: element 2 is not an element of a fiber with 1 atoms"),
    ("(marking (E 0)\n (U 0 (1)))", "2:7: expected element"),
    ("(marking (E 0)\n (W 7 x))", "2:7: expected an integer element, got 'x'"),
])
def test_marking_entries_keep_their_messages_and_positions(text, message):
    d = subset_doctrine({"E": (), "U": ("*",)})
    with pytest.raises(ParseError) as e:
        sexpr.parse_marking(sexpr.parse_sexpr(text), d)
    assert str(e.value) == "parse error at " + message


def test_markings_of_objects_the_doctrine_lacks_keep_any_integer():
    d = subset_doctrine({"E": (), "U": ("*",)})
    node = sexpr.parse_sexpr("(marking (U 1 0 1) (W -5 99) (E))")
    assert sexpr.parse_marking(node, d) == {
        "U": frozenset({0, 1}), "W": frozenset({-5, 99}), "E": frozenset()}


# --- the tree and its positions --------------------------------------------------


def _tokens_of_tree(nodes):
    """(token, token index, positioned item) for every token of a parse, in
    tree order: each atom as the view `_at` gives, each list at its `(` and
    again at its `)`."""
    out = []

    def walk(parent, items):
        for k, item in enumerate(items):
            node = item if parent is None else sexpr._at(parent, k)
            if isinstance(node, sexpr.SList):
                out.append(("(", node.index, node))
                walk(node, node.items)
                out.append((")", node.close, node))
            else:
                out.append((str(node), node.index, node))

    walk(None, nodes)
    return out


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(st.text(alphabet="();\t\r\n ab1é\x0b\x00", max_size=60))
def test_the_tree_is_the_token_sequence(text):
    try:
        nodes = sexpr.parse_many(text)
    except ParseError:
        return
    tokens = list(sexpr.tokenize(text))
    flat = _tokens_of_tree(nodes)
    assert [tok for tok, _, _ in flat] == [tok for tok, _, _ in tokens]
    for k, ((tok, index, node), (_, line, col)) in enumerate(zip(flat, tokens)):
        assert index == k
        assert node.source.position(index) == (line, col)


def test_table_entries_are_plain_strings():
    # no node per table entry: the items of table and marking sections are str
    tree = sexpr.parse_sexpr(TABLE_DOCTRINE)
    sections = [item for item in tree.items if sexpr._head(item) in ("reindex", "forall", "delta")]
    marking = sexpr.parse_sexpr("(marking (E 0) (U 0 1))")
    assert len(sections) > 5
    for item in sections + marking.items[1:]:
        assert all(type(entry) is str for entry in item.items)


SEQ = "(seq (ctx) (ants) (sucs))"


@pytest.mark.parametrize("reader, text, message", [
    # lone-atom documents after whitespace, a comment or CR LF
    ("doctrine", "  foo", "1:3: expected (doctrine ...)"),
    ("doctrine", "; a comment\nfoo", "2:1: expected (doctrine ...)"),
    ("sequent", "\r\n  x", "2:3: expected (seq (ctx ...) (ants ...) (sucs ...))"),
    # an atom after nested lists among its siblings
    ("sequent", "(seq (ctx x) (ants (P (f (g x)))) junk)", "1:35: expected a ctx, ants, or sucs section"),
    ("structure", "(structure (carrier a) (fun f ((a) a) zz))", "1:39: expected ((args...) value)"),
    ("structure", "(structure (carrier a) (pred P (a) zz))", "1:36: expected a tuple"),
    ("theory", "(theory (signature (predicates (P 1))) junk)", "1:40: unknown theory section"),
    ("doctrine", "(doctrine (objects A) junk)", "1:23: unknown doctrine section"),
    # atom children of concl, premises, ants, rule, signature and marking
    ("proof", "(proof (rule Id) (concl x) (premises))", "1:25: expected (seq (ctx ...) (ants ...) (sucs ...))"),
    ("proof", f"(proof (rule Id) (concl {SEQ}) (premises x))",
     "1:62: expected (proof (rule ...) (concl ...) (premises ...))"),
    ("sequent", "(seq (ctx x) (ants P Q) (sucs R) junk)", "1:34: expected a ctx, ants, or sucs section"),
    ("sequent", "(seq (ctx x) ants (sucs))", "1:14: expected a ctx, ants, or sucs section"),
    ("proof", f"(proof (rule Id zz) (concl {SEQ}) (premises))", "1:17: expected (key value) rule argument"),
    ("proof", f"(proof (rule LW (pos 0) zz) (concl {SEQ}) (premises))", "1:25: expected (key value) rule argument"),
    ("proof", f"(proof (rule LW (pos a)) (concl {SEQ}) (premises))", "1:22: expected an integer pos, got 'a'"),
    ("signature", "(signature (predicates (P 1) Q))", "1:30: expected (name arity)"),
    ("signature", "(signature (functions (f x)))", "1:26: expected an integer arity, got 'x'"),
    ("signature", "(signature (functions (f 1)) junk)", "1:30: unknown signature section"),
    ("marking", "(marking (U 0) x)", "1:16: expected (object elems...)"),
    ("marking", "(marking (E 0)\n (U 1 y))", "2:7: expected an integer element, got 'y'"),
    # \xa0 and \x0b do not separate atoms
    ("marking", "(marking (U 0\xa01))", "1:13: expected an integer element, got '0\\xa01'"),
    ("marking", "(marking (U 1\x0b0))", "1:13: expected an integer element, got '1\\x0b0'"),
    ("doctrine", "a\x0bb", "1:1: expected (doctrine ...)"),
    ("doctrine", "a\xa0b c", "1:1: expected one document, found 2"),
    # the nesting limit, and brackets that do not match
    ("sexpr", "(" * 200 + ")" * 200, None),
    ("sexpr", "(" * 201 + ")" * 201, "1:201: nesting deeper than 200 brackets"),
    ("sexpr", "\n" + "(" * 201 + ")" * 201, "2:201: nesting deeper than 200 brackets"),
    ("sexpr", "(a ((b) c) d) )", "1:15: unmatched ')'"),
    ("sexpr", "(a ((b) c)\n (d", "2:2: unclosed '('"),
])
def test_positions_that_only_the_parent_knows(reader, text, message):
    d = subset_doctrine({"E": (), "U": ("*",)})
    parse = {
        "doctrine": sexpr.parse_doctrine, "sequent": sexpr.parse_sequent, "proof": sexpr.parse_proof,
        "signature": sexpr.parse_signature, "theory": sexpr.parse_theory,
        "structure": sexpr.parse_structure, "marking": lambda node: sexpr.parse_marking(node, d),
        "sexpr": lambda node: node,
    }[reader]
    if message is None:
        parse(sexpr.parse_sexpr(text))
        return
    with pytest.raises(ParseError) as e:
        parse(sexpr.parse_sexpr(text))
    assert str(e.value) == "parse error at " + message


@pytest.mark.parametrize("parse, text, message", [
    # `int` reads each of these atoms as a number; an integer is `-?[0-9]+`
    ("doctrine", TABLE_DOCTRINE.replace("(reindex U->U[0] 0 1)", "(reindex U->U[0] 0 1\x0b)"),
     "26:22: expected an integer table entry, got '1\\x0b'"),
    ("doctrine", TABLE_DOCTRINE.replace("(reindex U->U[0] 0 1)", "(reindex U->U[0] ١ 1)"),
     "26:20: expected an integer table entry, got '١'"),
    ("doctrine", TABLE_DOCTRINE.replace("(reindex U->U[0] 0 1)", "(reindex U->U[0] +0 1)"),
     "26:20: expected an integer table entry, got '+0'"),
    ("doctrine", TABLE_DOCTRINE.replace("(forall U U 0 1)", "(forall U U 0 1\xa0)"),
     "30:17: expected an integer table entry, got '1\\xa0'"),
    ("doctrine", TABLE_DOCTRINE.replace("(delta U 1)", "(delta U 0_1)"), "32:12: expected an integer element, got '0_1'"),
    ("doctrine", TABLE_DOCTRINE.replace("(fiber U 1)", "(fiber U ١)"),
     "23:12: expected an integer atom count, got '١'"),
    ("marking", "(marking (E 0)\n (U 0 ١\x0b))", "2:7: expected an integer element, got '١\\x0b'"),
    ("marking", "(marking (E 0_0)\n (U 0 1))", "1:13: expected an integer element, got '0_0'"),
    ("signature", "(signature (predicates (P 1_0)))", "1:27: expected an integer arity, got '1_0'"),
])
def test_integers_are_ascii_decimal(parse, text, message):
    readers = {
        "doctrine": sexpr.parse_doctrine,
        "marking": lambda node: sexpr.parse_marking(node, subset_doctrine({"E": (), "U": ("*",)})),
        "signature": sexpr.parse_signature,
    }
    with pytest.raises(ParseError) as e:
        readers[parse](sexpr.parse_sexpr(text))
    assert str(e.value) == "parse error at " + message
