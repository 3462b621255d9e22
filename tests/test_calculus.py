import ast
import inspect
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from doctrina import calculus
from doctrina.lang import Context, Signature, Var, canonical_context
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
    prop_tautology,
)
from doctrina.calculus import (
    Budget,
    ProofError,
    ProofTree,
    Rule,
    Sequent,
    check_proof,
    enlarge_context,
    prove_bounded,
)
from doctrina.semantics import enumerate_structures, sequent_valid_in_structure

from helpers import random_sequent

SIG = Signature(predicates=(("P", 1), ("Q", 2)))


def P(v):
    return Pred("P", (Var(v),))


def Q(a, b):
    return Pred("Q", (Var(a), Var(b)))


def test_sequent_requires_context_cover():
    with pytest.raises(ProofError):
        Sequent(Context(("x",)), (Q("x", "y"),), ())


def test_enlarge_context():
    s = Sequent(Context(("y",)), (P("y"),), (P("y"),))
    s2 = enlarge_context(s, "x")
    assert s2.context.vars == ("y", "x")
    s3 = enlarge_context(s2, "z")
    assert s3.context.vars == ("y", "x", "z")
    with pytest.raises(Exception):
        enlarge_context(s2, "x")


def test_identity_axiom_checks():
    s = Sequent(Context(("x",)), (P("x"),), (P("x"),))
    assert check_proof(ProofTree(s, Rule("Id"))).ok


def test_identity_axiom_up_to_alpha():
    a = Forall("y", Q("x", "y"))
    b = Forall("z", Q("x", "z"))
    s = Sequent(Context(("x",)), (a,), (b,))
    assert check_proof(ProofTree(s, Rule("Id"))).ok


def test_two_node_example():
    # top on the right, then the existential with witness x
    ctx = Context(("x",))
    leaf = ProofTree(Sequent(ctx, (), (Top(),)), Rule("RTop", pos=0))
    tree = ProofTree(
        Sequent(ctx, (), (Exists("y", Top()),)),
        Rule("RExists", pos=0, term=Var("x")),
        (leaf,),
    )
    assert check_proof(tree).ok


def test_rforall_clashing_bound_variable_is_error():
    ctx = Context(("x",))
    concl = Sequent(ctx, (), (Forall("x", P("x")),))
    prem = ProofTree(Sequent(ctx, (), (P("x"),)), Rule("Id"))
    result = check_proof(ProofTree(concl, Rule("RForall", pos=0), (prem,)))
    assert not result.ok
    assert "context" in result.reason


def test_check_reports_failing_path():
    ctx = Context(("x",))
    good = ProofTree(Sequent(ctx, (P("x"),), (P("x"),)), Rule("Id"))
    bad = ProofTree(Sequent(ctx, (P("x"),), (Top(),)), Rule("Id"))
    tree = ProofTree(
        Sequent(ctx, (P("x"),), (And(P("x"), Top()),)),
        Rule("RAnd", pos=0),
        (good, bad),
    )
    result = check_proof(tree)
    assert not result.ok
    assert result.path == (1,)


def test_cut_rule_checks():
    ctx = Context(("x",))
    p1 = ProofTree(Sequent(ctx, (P("x"),), (P("x"),)), Rule("Id"))
    p2 = ProofTree(Sequent(ctx, (P("x"),), (P("x"),)), Rule("Id"))
    concl = Sequent(ctx, (P("x"), P("x")), (P("x"),))
    # wrong conclusion shape is rejected
    assert not check_proof(ProofTree(concl, Rule("Cut"), (p1,))).ok
    good = ProofTree(Sequent(ctx, (P("x"),), (P("x"),)), Rule("Cut"), (p1, p2))
    assert check_proof(good).ok


def test_theory_axiom_leaf_requires_empty_context():
    ax = Forall("x", P("x"))
    leaf = ProofTree(Sequent(Context(), (), (ax,)), Rule("TheoryAxiom", formula=ax))
    assert check_proof(leaf, [ax]).ok
    assert not check_proof(leaf, []).ok
    bad = ProofTree(Sequent(Context(("x",)), (), (ax,)), Rule("TheoryAxiom", formula=ax))
    assert not check_proof(bad, [ax]).ok


def test_equality_rules():
    sig = Signature(functions=(("f", 1),), has_equality=True)
    ctx = Context(("x",))
    fx = Var("x")
    refl = ProofTree(Sequent(ctx, (), (Eq(fx, fx),)), Rule("EqRefl", term=fx))
    assert check_proof(refl, signature=sig).ok
    nosig = Signature(functions=(("f", 1),), has_equality=False)
    assert not check_proof(refl, signature=nosig).ok
    zeta = Pred("P", (Var("z"),))
    subst = ProofTree(
        Sequent(
            Context(("x", "y")),
            (Eq(Var("x"), Var("y")), Pred("P", (Var("x"),))),
            (Pred("P", (Var("y"),)),),
        ),
        Rule("EqSubst", term=Var("x"), term2=Var("y"), formula=zeta, var="z"),
    )
    assert check_proof(subst, signature=sig).ok


def test_prove_identity():
    s = Sequent(Context(("x",)), (P("x"),), (P("x"),))
    tree = prove_bounded(s)
    assert tree is not None and check_proof(tree).ok


def test_prove_excluded_middle():
    phi = Or(Pred("A"), Not(Pred("A")))
    assert prop_tautology(phi)
    s = Sequent(Context(), (), (phi,))
    tree = prove_bounded(s)
    assert tree is not None and check_proof(tree).ok


def test_prove_does_not_prove_empty_existential():
    s = Sequent(Context(), (), (Exists("x", Top()),))
    for depth in (4, 8, 12):
        assert prove_bounded(s, budget=Budget(max_depth=depth)) is None


def test_prove_quantifier_alternation():
    # exists y forall x Q(x,y)  entails  forall x exists y Q(x,y)
    s = Sequent(
        Context(),
        (Exists("y", Forall("x", Q("x", "y"))),),
        (Forall("v", Exists("w", Q("v", "w"))),),
    )
    tree = prove_bounded(s, budget=Budget(max_depth=8))
    assert tree is not None and check_proof(tree).ok


def test_prove_with_theory_axiom_splices_cuts():
    ax = Forall("x", P("x"))
    s = Sequent(Context(("y",)), (), (P("y"),))
    tree = prove_bounded(s, [ax], Budget(max_depth=6))
    assert tree is not None
    assert tree.conclusion == s
    assert check_proof(tree, [ax]).ok
    # the theory leaf must be in the empty context
    leaves = []

    def walk(t):
        if t.rule.tag == "TheoryAxiom":
            leaves.append(t)
        for p in t.premises:
            walk(p)

    walk(tree)
    assert leaves and all(len(l.conclusion.context) == 0 for l in leaves)


def test_prove_rejects_open_theory_axiom():
    with pytest.raises(ProofError):
        prove_bounded(Sequent(Context(), (), (Top(),)), [P("x")])


def test_prover_checker_roundtrip_on_random_goals():
    rng = random.Random(7)
    proved = 0
    for _ in range(60):
        s = random_sequent(rng)
        tree = prove_bounded(s, budget=Budget(max_depth=6, max_nodes=4000))
        if tree is None:
            continue
        proved += 1
        assert tree.conclusion == s
        assert check_proof(tree).ok
    assert proved >= 10


def test_random_sequents_do_not_depend_on_hash_seed():
    # The seeded goal lists of the soundness sweeps must be the same in every
    # interpreter run, whatever order sets and dicts of strings iterate in.
    script = (
        "import random\n"
        "from helpers import random_sequent\n"
        "rng = random.Random(20240901)\n"
        "for _ in range(200):\n"
        "    print(repr(random_sequent(rng)))\n"
    )
    tests_dir = pathlib.Path(__file__).resolve().parent
    path = [str(tests_dir.parent / "src"), str(tests_dir)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(path)}
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout.splitlines())
    assert len(outputs[0]) == 200
    assert outputs[0] == outputs[1]


def test_proofs_are_sound_in_finite_structures():
    rng = random.Random(11)
    structures = list(enumerate_structures(SIG, 2))
    checked = 0
    for _ in range(40):
        s = random_sequent(rng, max_size=4)
        tree = prove_bounded(s, budget=Budget(max_depth=6, max_nodes=4000))
        if tree is None:
            continue
        checked += 1
        for m in structures:
            assert sequent_valid_in_structure(s, m), (s, m.describe())
    assert checked >= 8


def test_alpha_rename_node_checks():
    ctx = Context(("x",))
    a = Forall("y", Q("x", "y"))
    b = Forall("z", Q("x", "z"))
    prem = ProofTree(Sequent(ctx, (a,), (a,)), Rule("Id"))
    tree = ProofTree(Sequent(ctx, (b,), (a,)), Rule("AlphaRename"), (prem,))
    assert check_proof(tree).ok
    bad = ProofTree(Sequent(ctx, (Not(a),), (a,)), Rule("AlphaRename"), (prem,))
    assert not check_proof(bad).ok


def test_prover_renames_clashing_binder():
    # proving forall x ... in a context already using x forces a rename
    s = Sequent(
        Context(("x",)),
        (Forall("y", P("y")),),
        (Forall("x", And(P("x"), P("x"))),),
    )
    tree = prove_bounded(s, budget=Budget(max_depth=6))
    assert tree is not None and check_proof(tree).ok
    tags = set()

    def walk(t):
        tags.add(t.rule.tag)
        for p in t.premises:
            walk(p)

    walk(tree)
    assert "AlphaRename" in tags


# --- one hand-written instance of every rule ----------------------------------
#
# Written from the textbook rules, independently of `calculus.premises`, which
# both the checker and the prover read.  Premises are closed by RTop or LBot,
# so each side formula ⊤ (for rules acting on the antecedent) or ⊥ (for rules
# acting on the succedent) is carried through.

X = Context(("x",))
XY = Context(("x", "y"))
F, G, H = P("x"), Q("x", "x"), Pred("R", (Var("x"),))
T, B = Top(), Bot()
EQ_SIG = Signature(predicates=(("P", 1),), has_equality=True)
AXIOM = Forall("x", P("x"))


def seq(ctx, ants, sucs):
    return Sequent(ctx, tuple(ants), tuple(sucs))


# tag -> (conclusion, rule, premise conclusions)
RULE_TABLE = {
    "Id": (seq(X, [F], [F]), Rule("Id"), []),
    "RTop": (seq(X, [], [F, T]), Rule("RTop", pos=1), []),
    "LBot": (seq(X, [F, B], []), Rule("LBot", pos=1), []),
    "EqRefl": (seq(X, [], [Eq(Var("x"), Var("x"))]), Rule("EqRefl", term=Var("x")), []),
    "EqSubst": (
        seq(XY, [Eq(Var("x"), Var("y")), P("x")], [P("y")]),
        Rule("EqSubst", term=Var("x"), term2=Var("y"), formula=P("z"), var="z"),
        [],
    ),
    "TheoryAxiom": (seq(Context(), [], [AXIOM]), Rule("TheoryAxiom", formula=AXIOM), []),
    "Cut": (
        seq(X, [F, B], [T, F]),
        Rule("Cut"),
        [seq(X, [F], [T, H]), seq(X, [H, B], [F])],
    ),
    "CtxEnlarge": (seq(XY, [F], [T]), Rule("CtxEnlarge", var="y"), [seq(X, [F], [T])]),
    "AlphaRename": (
        seq(X, [Forall("y", Q("x", "y"))], [T]),
        Rule("AlphaRename"),
        [seq(X, [Forall("z", Q("x", "z"))], [T])],
    ),
    "LW": (seq(X, [F, G], [T]), Rule("LW", pos=1), [seq(X, [F], [T])]),
    "RW": (seq(X, [B], [G, F]), Rule("RW", pos=0), [seq(X, [B], [F])]),
    "LC": (seq(X, [F, G], [T]), Rule("LC", pos=0), [seq(X, [F, F, G], [T])]),
    "RC": (seq(X, [B], [F, G]), Rule("RC", pos=1), [seq(X, [B], [F, G, G])]),
    "LE": (seq(X, [F, G], [T]), Rule("LE", pos=0), [seq(X, [G, F], [T])]),
    "RE": (seq(X, [B], [F, G]), Rule("RE", pos=0), [seq(X, [B], [G, F])]),
    "LAnd": (seq(X, [And(F, G), H], [T]), Rule("LAnd", pos=0, which=1), [seq(X, [G, H], [T])]),
    "ROr": (seq(X, [B], [H, Or(F, G)]), Rule("ROr", pos=1, which=0), [seq(X, [B], [H, F])]),
    "RAnd": (
        seq(X, [B], [And(F, G), H]),
        Rule("RAnd", pos=0),
        [seq(X, [B], [F, H]), seq(X, [B], [G, H])],
    ),
    "LOr": (
        seq(X, [H, Or(F, G)], [T]),
        Rule("LOr", pos=1),
        [seq(X, [H, F], [T]), seq(X, [H, G], [T])],
    ),
    "LNeg": (seq(X, [Not(F), H], [T]), Rule("LNeg", pos=0), [seq(X, [H], [T, F])]),
    "RNeg": (seq(X, [B], [Not(F), H]), Rule("RNeg", pos=0), [seq(X, [F, B], [H])]),
    "LImp": (
        seq(X, [H, Imp(F, G)], [T]),
        Rule("LImp", pos=1),
        [seq(X, [H], [T, F]), seq(X, [G, H], [T])],
    ),
    "RImp": (seq(X, [B], [Imp(F, G), H]), Rule("RImp", pos=0), [seq(X, [F, B], [H, G])]),
    "LForall": (
        seq(X, [Forall("y", Q("x", "y"))], [T]),
        Rule("LForall", pos=0, term=Var("x")),
        [seq(X, [G], [T])],
    ),
    "RExists": (
        seq(X, [B], [H, Exists("y", Q("y", "x"))]),
        Rule("RExists", pos=1, term=Var("x")),
        [seq(X, [B], [H, G])],
    ),
    "RForall": (seq(X, [B], [Forall("y", Q("x", "y"))]), Rule("RForall", pos=0), [seq(XY, [B], [Q("x", "y")])]),
    "LExists": (seq(X, [Exists("y", Q("x", "y"))], [T]), Rule("LExists", pos=0), [seq(XY, [Q("x", "y")], [T])]),
}

LOGICAL = {"LAnd", "RAnd", "LOr", "ROr", "LNeg", "RNeg", "LImp", "RImp",
           "LForall", "RForall", "LExists", "RExists"}
STRUCTURAL = {"LW", "RW", "LC", "RC", "LE", "RE"}


def closed(s):
    """A leaf for a premise that carries ⊤ in its succedent or ⊥ in its antecedent."""
    if T in s.succedent:
        return ProofTree(s, Rule("RTop", pos=s.succedent.index(T)))
    return ProofTree(s, Rule("LBot", pos=s.antecedent.index(B)))


def instance(tag, conclusion=None, rule=None, prems=None):
    c, r, ps = RULE_TABLE[tag]
    return ProofTree(
        conclusion or c, rule or r, tuple(closed(p) for p in (ps if prems is None else prems))
    )


def check(tree):
    return check_proof(tree, theory=[AXIOM], signature=EQ_SIG)


def other_connective(phi):
    if isinstance(phi, And):
        return Or(phi.left, phi.right)
    if isinstance(phi, (Or, Imp)):
        return And(phi.left, phi.right)
    if isinstance(phi, Not):
        return phi.body
    if isinstance(phi, Forall):
        return Exists(phi.var, phi.body)
    return Forall(phi.var, phi.body)


def changed(s):
    """`s` with its first formula other than ⊤ and ⊥ negated."""
    ants, sucs = list(s.antecedent), list(s.succedent)
    for lst in (ants, sucs):
        for k, phi in enumerate(lst):
            if phi not in (T, B):
                lst[k] = Not(phi)
                return seq(s.context, ants, sucs)
    raise AssertionError(s)


@pytest.mark.parametrize("tag", sorted(RULE_TABLE))
def test_rule_table_instance_checks(tag):
    result = check(instance(tag))
    assert result.ok, result


VARIANT_WORDS = {
    "connective": "connective",
    "position": "out of range",
    "context": "context",
    "witness": "witness",
    "eigenvariable": "already occurs",
    "variable": "variable",
}


def broken_variants(tag):
    c, r, ps = RULE_TABLE[tag]
    side = c.antecedent if tag[0] == "L" else c.succedent
    out = {}
    if tag in LOGICAL:
        wrong = side[:r.pos] + (other_connective(side[r.pos]),) + side[r.pos + 1:]
        if tag[0] == "L":
            concl = Sequent(c.context, wrong, c.succedent)
        else:
            concl = Sequent(c.context, c.antecedent, wrong)
        out["connective"] = instance(tag, conclusion=concl)
    if tag in LOGICAL | STRUCTURAL:
        out["position"] = instance(tag, rule=Rule(tag, pos=len(side), which=r.which, term=r.term))
    if tag in ("LForall", "RExists"):
        out["witness"] = instance(tag, rule=Rule(tag, pos=r.pos, term=Var("w")))
    if tag in ("RForall", "LExists"):
        # the bound variable y is already in the conclusion's context
        out["eigenvariable"] = instance(tag, conclusion=Sequent(XY, c.antecedent, c.succedent))
    if tag == "CtxEnlarge":
        out["variable"] = instance(tag, rule=Rule(tag, var="w"))
    out["formula"] = instance(tag, prems=[changed(ps[0])] + ps[1:])
    wider = Context(ps[0].context.vars + ("w",))
    out["context"] = instance(tag, prems=[Sequent(wider, ps[0].antecedent, ps[0].succedent)] + ps[1:])
    return out


@pytest.mark.parametrize("tag", sorted(set(RULE_TABLE) - {"Id", "RTop", "LBot", "EqRefl", "EqSubst", "TheoryAxiom"}))
def test_rule_table_broken_variants_fail_at_the_node(tag):
    variants = broken_variants(tag)
    assert {"formula", "context"} <= set(variants)
    for what, tree in variants.items():
        result = check(tree)
        assert not result.ok, (what, tree.rule)
        assert result.path == (), (what, result)
        assert tag in result.reason, (what, result.reason)
        assert VARIANT_WORDS.get(what, "") in result.reason, (what, result.reason)


def test_rule_table_covers_every_tag_the_checker_accepts():
    # Every capitalised string constant in calculus.py that the checker does
    # not reject as an unknown rule is a rule tag, and has a table entry.
    words = {
        node.value
        for node in ast.walk(ast.parse(inspect.getsource(calculus)))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and re.fullmatch(r"[A-Z][A-Za-z]+", node.value)
    }
    probe = Sequent(Context(), (), ())
    accepted = {w for w in words if "unknown rule" not in check(ProofTree(probe, Rule(w))).reason}
    assert len(RULE_TABLE) == 27
    assert accepted == set(RULE_TABLE)
    assert check(ProofTree(probe, Rule("Bogus"))).reason == "unknown rule Bogus"
