import ast
import hashlib
import inspect
import itertools
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from doctrina import calculus
from doctrina.lang import App, Context, LangError, Signature, Var, canonical_context
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
    canonical_form,
    subformulas,
    substitute,
)
from doctrina.calculus import (
    Budget,
    ProofError,
    ProofTree,
    Rule,
    Sequent,
    check_proof,
    prove_bounded,
    prove_qf,
)
from doctrina.semantics import (
    FiniteStructure,
    _countermodel_scan,
    enumerate_structures,
    eval_in_structure,
    falsifying_assignment,
)
from doctrina.sexpr import proof_sexpr, structure_sexpr

from helpers import bench_workloads, epr_bound, random_qf_formula, random_sequent, rebuilt_canonical_form

SIG = Signature(predicates=(("P", 1), ("Q", 2)))


def P(v):
    return Pred("P", (Var(v),))


def Q(a, b):
    return Pred("Q", (Var(a), Var(b)))


def test_sequent_requires_context_cover():
    with pytest.raises(ProofError):
        Sequent(Context(("x",)), (Q("x", "y"),), ())


def test_only_premises_skip_the_context_check(monkeypatch):
    # a sequent from a caller or a document is checked; a premise that
    # `premises` builds from a checked conclusion is not checked again
    from doctrina.sexpr import ParseError, parse_sequent, parse_sexpr

    with pytest.raises(ParseError, match="outside sequent context"):
        parse_sequent(parse_sexpr("(seq (ctx x) (ants (P y)) (sucs))"))
    s = Sequent(Context(("x",)), (Forall("y", Q("x", "y")),), (Exists("y", P("y")),))
    checked = []
    monkeypatch.setattr(Sequent, "__post_init__", lambda self: checked.append(self))
    (premise,) = calculus.premises(s, Rule("LForall", pos=0, term=Var("x")))
    (enlarged,) = calculus.premises(s, Rule("RExists", pos=0, term=Var("x")))
    assert checked == []
    assert premise == Sequent(s.context, (Q("x", "x"),), s.succedent) and len(checked) == 1
    assert enlarged == Sequent(s.context, s.antecedent, (P("x"),))
    with pytest.raises(ProofError, match="witness term"):
        calculus.premises(s, Rule("LForall", pos=0, term=Var("z")))


def test_enlarge_context():
    s = Sequent(Context(("y",)), (P("y"),), (P("y"),))
    s2 = Sequent(s.context.extended("x"), s.antecedent, s.succedent)
    assert s2.context.vars == ("y", "x")
    s3 = Sequent(s2.context.extended("z"), s2.antecedent, s2.succedent)
    assert s3.context.vars == ("y", "x", "z")
    with pytest.raises(LangError):
        Sequent(s2.context.extended("x"), s2.antecedent, s2.succedent)


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
    # `=` is identity in every signature, so the equality rules check under
    # any signature, with or without the goal's function symbols
    sig = Signature(functions=(("f", 1),))
    ctx = Context(("x",))
    x, fx = Var("x"), App("f", (Var("x"),))
    for t in (x, fx):
        refl = ProofTree(Sequent(ctx, (), (Eq(t, t),)), Rule("EqRefl", term=t))
        assert check_proof(refl).ok
        assert check_proof(refl, signature=sig).ok
        assert check_proof(refl, signature=Signature()).ok
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


def test_a_rule_term_outside_the_signature_is_refused():
    # a witness constant that neither the signature nor the goal has would
    # prove => exists x true, which the empty structure refutes
    top = ProofTree(Sequent(Context(), (), (Top(),)), Rule("RTop", pos=0))
    witness = ProofTree(Sequent(Context(), (), (Exists("x", Top()),)), Rule("RExists", pos=0, term=App("c")), (top,))
    reason = "RExists term c uses a function symbol outside the signature and the goal"
    assert check_proof(witness, signature=Signature()).reason == reason
    assert check_proof(witness, signature=SIG).reason == reason
    assert check_proof(witness, signature=Signature(functions=(("c", 1),))).reason == reason
    assert check_proof(witness, signature=Signature(functions=(("c", 0),))).ok
    # a structure that evaluates P(c) interprets c
    pc = Pred("P", (App("c"),))
    top = ProofTree(Sequent(Context(), (), (Top(), pc)), Rule("RTop", pos=0))
    witness = ProofTree(Sequent(Context(), (), (Exists("x", Top()), pc)), Rule("RExists", pos=0, term=App("c")), (top,))
    assert check_proof(witness, signature=Signature()).ok
    # the second term of EqSubst is read too, below a cut on x = f(x)
    x, fx = Var("x"), App("f", (Var("x"),))
    ctx = Context(("x",))
    cut = ProofTree(Sequent(ctx, (Bot(), P("x")), (P("x"),)), Rule("Cut"), (
        ProofTree(Sequent(ctx, (Bot(),), (Eq(x, fx),)), Rule("LBot", pos=0)),
        ProofTree(
            Sequent(ctx, (Eq(x, fx), P("x")), (P("x"),)),
            Rule("EqSubst", term=x, term2=fx, formula=P("x"), var="z"),
        ),
    ))
    assert check_proof(cut, signature=Signature(functions=(("f", 1),))).ok
    refused = check_proof(cut, signature=SIG)
    assert refused.path == (1,)
    assert refused.reason == "EqSubst term f(x) uses a function symbol outside the signature and the goal"


def test_equality_goals_are_proved_without_a_signature():
    # `=` is identity with no signature too: of the 841 goals the decision
    # calls valid, 834 are proved; the other 7 need substitution
    rng = random.Random(20240901)
    valid = proved = 0
    for _ in range(1500):
        s = random_sequent(rng, 5, equality=True)
        tree = prove_bounded(s, (), Budget(6, 2, 500))
        if tree is not None:
            assert tree.conclusion == s and check_proof(tree).ok, s
        if calculus.decide_relational(s) is True:
            valid += 1
            proved += tree is not None
    assert (valid, proved) == (841, 834)


def test_prove_identity():
    s = Sequent(Context(("x",)), (P("x"),), (P("x"),))
    tree = prove_bounded(s)
    assert tree is not None and check_proof(tree).ok


def test_prove_excluded_middle():
    phi = Or(Pred("A"), Not(Pred("A")))
    s = Sequent(Context(), (), (phi,))
    assert isinstance(prove_qf(s), ProofTree)
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


def under_hash_seeds(script: str) -> list[list[str]]:
    """The output lines of `script` run under PYTHONHASHSEED 1 and 2."""
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
    return outputs


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
    outputs = under_hash_seeds(script)
    assert len(outputs[0]) == 200
    assert outputs[0] == outputs[1]


def test_random_goal_certificates_are_pinned():
    # Binder names are part of every printed certificate; any drift in how
    # substitution, rectification or canonical forms name binders shows here.
    rng = random.Random(20240901)
    lines = []
    for _ in range(100):
        tree = prove_bounded(random_sequent(rng, 5), (), Budget(6, 2, 2000), SIG)
        lines.append("None" if tree is None else proof_sexpr(tree))
    assert sum(line != "None" for line in lines) == 55
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "4c5b8b5909511ed9ced7353839cdf105bff2868a1fd8e2a566273c5ed95a3738"


def test_every_instance_taken_is_a_fresh_substitution(monkeypatch):
    # the prover's and the checker's instances come from one table per
    # quantified node, keyed by the term and the context's variables: each
    # equals a substitution built afresh, and a key read again gets the
    # object it got before, whose canonical form is the rebuilding walk's
    # (the search runs without the decision first, which refutes most of
    # these goals before they take an instance)
    taken = []
    instance = calculus._instance

    def recording(phi, t, ctx):
        inst = instance(phi, t, ctx)
        taken.append((phi, t, ctx, inst))
        return inst

    monkeypatch.setattr(calculus, "_instance", recording)
    rng = random.Random(20240901)
    proved = 0
    for _ in range(60):
        tree = calculus._deepen(random_sequent(rng, 5), (), Budget(6, 2, 2000), SIG)
        if tree is not None:
            assert check_proof(tree, (), SIG).ok
            proved += 1
    kept = {}
    for phi, t, ctx, inst in taken:
        assert inst == substitute(phi.body, {phi.var: t}, avoid=ctx.vars)
        assert canonical_form(inst) == rebuilt_canonical_form(inst)
        assert kept.setdefault((id(phi), t, ctx.vars), inst) is inst
    assert proved > 20 and len(taken) > 10 * len(kept) > 1000, (proved, len(taken), len(kept))


def test_pinned_certificates_do_not_depend_on_hash_seed():
    # the failure table is a dict of tuples of formulas: the digest pinned
    # above must come out under every hash seed
    script = (
        "import hashlib, random\n"
        "from helpers import random_sequent\n"
        "from doctrina.calculus import Budget, prove_bounded\n"
        "from doctrina.lang import Signature\n"
        "from doctrina.sexpr import proof_sexpr\n"
        "sig = Signature(predicates=(('P', 1), ('Q', 2)))\n"
        "rng = random.Random(20240901)\n"
        "lines = []\n"
        "for _ in range(100):\n"
        "    tree = prove_bounded(random_sequent(rng, 5), (), Budget(6, 2, 2000), sig)\n"
        "    lines.append('None' if tree is None else proof_sexpr(tree))\n"
        "print(hashlib.sha256('\\n'.join(lines).encode()).hexdigest())\n"
    )
    pinned = "4c5b8b5909511ed9ced7353839cdf105bff2868a1fd8e2a566273c5ed95a3738"
    assert under_hash_seeds(script) == [[pinned], [pinned]]


# the search itself, before any test puts a spy in its place
Search = calculus._Search


class Forgetful(dict):
    """A failure table that keeps nothing."""

    def __setitem__(self, key, value):
        pass


def prove_by_rounds(s, theory, budget, signature):
    """The reference deepening: a fresh search per round, with no failure
    table and no early stop.  The proof or None, whether some round hit the
    node cap, and the nodes of each round."""
    axioms = tuple(theory)
    goal = Sequent(s.context, axioms + s.antecedent, s.succedent)
    capped, nodes = False, []
    for depth in range(budget.max_depth + 1):
        engine = Search(budget, signature)
        engine.failed = Forgetful()
        tree = engine.prove(goal, depth, frozenset())
        capped |= engine.nodes > budget.max_nodes
        nodes.append(engine.nodes)
        if tree is not None:
            break
    if tree is None:
        return None, capped, nodes
    for k in range(len(axioms)):
        lemma = calculus._axiom_lemma(axioms[k], s.context)
        tree = ProofTree(Sequent(s.context, axioms[k + 1:] + s.antecedent, s.succedent), Rule("Cut"), (lemma, tree))
    return tree, capped, nodes


class RoundSpy(Search):
    """A search that logs the depth and the nodes of each round it runs."""

    log: list

    def prove(self, s, depth, seen):
        tree = super().prove(s, depth, seen)
        if not seen:  # only the root of a round has no loop keys yet
            self.log.append((depth, self.nodes))
        return tree


def spied_rounds(monkeypatch, *args, search=prove_bounded):
    log = []
    monkeypatch.setattr(RoundSpy, "log", log, raising=False)
    monkeypatch.setattr(calculus, "_Search", RoundSpy)
    return search(*args), log


CRITERION_10_AXIOMS = (
    Forall("x", P("x")),
    Forall("x", Forall("y", Imp(Q("x", "y"), Q("y", "x")))),
)
EQ_SIG = Signature(functions=(("f", 1),), predicates=(("P", 1), ("Q", 2)))


def f_eq_sequent(rng):
    """A goal in context (x1) over P, Q, f and =, with x2 bound by a
    quantifier where it occurs."""

    def formula():
        if rng.random() < 0.4:
            return random_qf_formula(rng, ("x1",), rng.randint(1, 5), True)
        body = random_qf_formula(rng, ("x1", "x2"), rng.randint(1, 4), True)
        return rng.choice((Forall, Exists))("x2", body)

    ants = tuple(formula() for _ in range(rng.randint(0, 2)))
    return Sequent(Context(("x1",)), ants, tuple(formula() for _ in range(rng.randint(1, 2))))


def deepening_goals():
    rng = random.Random(1985)
    for _ in range(60):
        yield random_sequent(rng, 5), (), Budget(6, 2, 1500), SIG
    for _ in range(60):
        yield random_sequent(rng, 4), CRITERION_10_AXIOMS, Budget(5, 2, 1000), SIG
    for _ in range(60):
        yield f_eq_sequent(rng), (), Budget(4, 1, 1000), EQ_SIG


def test_deepening_with_the_failure_table_finds_the_reference_proofs(monkeypatch):
    # where no reference round hit the node cap the certificate is the
    # reference's, byte for byte, and no round expands more nodes; under the
    # cap a reference proof is still a proof
    kept = capped_goals = 0
    for s, theory, budget, sig in deepening_goals():
        ref, capped, ref_nodes = prove_by_rounds(s, theory, budget, sig)
        tree, rounds = spied_rounds(monkeypatch, s, theory, budget, sig)
        if tree is not None:
            assert tree.conclusion == s and check_proof(tree, theory, sig).ok
        if capped:
            capped_goals += 1
            assert ref is None or tree is not None, s
            continue
        assert (None if tree is None else proof_sexpr(tree)) == (None if ref is None else proof_sexpr(ref)), s
        assert len(rounds) <= len(ref_nodes)
        assert all(n <= m for (_, n), m in zip(rounds, ref_nodes)), s
        kept += ref is not None
    assert kept >= 100 and capped_goals < 20


def test_failure_table_keeps_the_order_of_a_sequent():
    # Both instances below leave A, C, D => A&B, C&D in some order.  Split
    # first, C&D closes in one round, A&B needs two: a failure kept by the
    # multisets would hide the short proof behind the failed order.
    a, b, c, d = (Pred(n, ()) for n in "ABCD")
    x, y = And(a, b), And(c, d)
    s = Sequent(
        Context(("x",)),
        (Forall("z", And(Not(x), Not(y))), Forall("z", And(Not(y), Not(x))), a, c, d),
        (),
    )
    budget = Budget(2, 1, 2000)
    ref, capped, _ = prove_by_rounds(s, (), budget, None)
    tree = prove_bounded(s, (), budget)
    assert ref is not None and not capped
    assert tree is not None and proof_sexpr(tree) == proof_sexpr(ref)


def test_every_kept_failure_fails_afresh(monkeypatch):
    # Each entry of the failure table, searched again with no table, no loop
    # keys and a larger node cap, fails at the depth it was kept at, or one
    # round deeper than the budget when it was kept without a bound.  A small
    # cap makes many rounds stop at it.
    engines = []

    class Keeper(Search):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    monkeypatch.setattr(calculus, "_Search", Keeper)
    goals = list(itertools.islice(deepening_goals(), 0, 180, 2))
    checked = 0
    for s, theory, budget, sig in goals:
        engines.clear()
        calculus._deepen(s, theory, Budget(budget.max_depth, budget.max_term_depth, 200), sig)
        for engine in engines:
            for (xs, ant, suc), known in engine.failed.items():
                fresh = Search(Budget(max_term_depth=budget.max_term_depth, max_nodes=5000), sig)
                fresh.failed = Forgetful()
                depth = budget.max_depth + 1 if known == math.inf else known
                assert fresh.prove(Sequent(Context(xs), ant, suc), depth, frozenset()) is None, (ant, suc)
                checked += fresh.nodes <= 5000
    assert checked > 1000


def test_only_prove_recurses_in_the_search():
    # one Python frame per proof level: no other method of the search calls
    # `prove`, so a proof of given height needs no deeper stack
    (search,) = ast.parse(inspect.getsource(calculus._Search)).body
    callers = {
        method.name
        for method in search.body
        if isinstance(method, ast.FunctionDef)
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute) and node.attr == "prove"
    }
    assert callers == {"prove"}


def test_deepening_stops_after_a_saturated_round(monkeypatch):
    x = ("x",)
    deepen = calculus._deepen  # the deepening alone, without the decision first
    # the first round reaches an open atomic leaf with no depth cut-off
    leaf = Sequent(Context(x), (Exists("y", Q("x", "y")),), (P("x"),))
    assert spied_rounds(monkeypatch, leaf, (), Budget(), SIG, search=deepen) == (None, [(0, 2)])
    # round 0 cuts the conjunction off; round 1 splits it and saturates
    split = Sequent(Context(x), (), (And(P("x"), Q("x", "x")),))
    tree, log = spied_rounds(monkeypatch, split, (), Budget(), SIG, search=deepen)
    assert tree is None and [depth for depth, _ in log] == [0, 1]
    # a proof two splits deep is found in the third round
    deep = Sequent(Context(x), (P("x"), Q("x", "x")), (And(P("x"), And(Q("x", "x"), Top())),))
    tree, log = spied_rounds(monkeypatch, deep, (), Budget(), SIG, search=deepen)
    assert check_proof(tree).ok and [depth for depth, _ in log] == [0, 1, 2]
    # a round stopped by the node cap is no reason to stop deepening
    capped = Sequent(Context(x), (), (Not(Not(P("x"))),))
    _, log = spied_rounds(monkeypatch, capped, (), Budget(max_depth=2, max_nodes=1), SIG, search=deepen)
    assert [depth for depth, _ in log] == [0, 1, 2]


def sweep_goals(seed, n=1000):
    """The first `n` goals of the benchmark's sound-sweep workload."""
    workloads = bench_workloads()
    sweep = workloads.SoundSweep(seed)
    return [(sweep.next_request().sequent, (), workloads.SWEEP_BUDGET, workloads.SIG) for _ in range(n)]


def decision_goals():
    """The deepening goals, criterion 1's 200 goals and 1,000 sound-sweep
    goals of each of three seeds, each with its theory, budget and signature."""
    yield from deepening_goals()
    rng = random.Random(20240901)
    for _ in range(200):
        yield random_sequent(rng), (), Budget(max_depth=8, max_term_depth=2, max_nodes=2000), None
    for seed in (1, 2, 3):
        yield from sweep_goals(seed)


def predicates_in(formulas):
    return tuple(sorted({(a.name, len(a.args)) for f in formulas for a in subformulas(f) if isinstance(a, Pred)}))


def signature_of(formulas):
    """The predicates and function symbols that `formulas` use."""
    atoms = [a for f in formulas for a in subformulas(f)]
    terms = [t for a in atoms if isinstance(a, Pred) for t in a.args]
    terms += [t for a in atoms if isinstance(a, Eq) for t in (a.left, a.right)]
    functions = set()
    while terms:
        t = terms.pop()
        if isinstance(t, App):
            functions.add((t.symbol, len(t.args)))
            terms += t.args
    return Signature(tuple(sorted(functions)), predicates_in(formulas))


def branch_structure(branch, formulas):
    """The structure of an open branch: its carrier, and its atoms true."""
    tuples = {name: frozenset(args for n, args in branch.atoms if n == name) for name, _ in predicates_in(formulas)}
    return FiniteStructure(branch.carrier, {}, tuples)


def test_the_decision_is_exact_and_changes_no_proof():
    # prove_bounded prints what the deepening alone prints; a refutation's
    # branch is a countermodel of the theory and the goal, and a valid goal
    # has no countermodel of size <= 3 (by the scan alone:
    # `countermodel_search` would take the decision's word for it)
    seen = Counter()
    for s, theory, budget, sig in decision_goals():
        found = calculus.decide_relational(s, theory, sig)
        tree, ref = prove_bounded(s, theory, budget, sig), calculus._deepen(s, theory, budget, sig)
        assert (None if tree is None else proof_sexpr(tree)) == (None if ref is None else proof_sexpr(ref)), s
        formulas = theory + s.antecedent + s.succedent
        if isinstance(found, calculus.OpenBranch):
            m = branch_structure(found, formulas)
            assert all(eval_in_structure(ax, m) for ax in theory), s
            assert all(eval_in_structure(a, m, found.assignment) for a in s.antecedent), s
            assert not any(eval_in_structure(b, m, found.assignment) for b in s.succedent), s
            seen["refuted"] += 1
        elif found is True:
            assert _countermodel_scan(s, theory, signature_of(formulas), 3) is None, s
            seen["valid"] += 1
        else:
            seen["declined"] += 1
    assert seen["refuted"] >= 500 and seen["valid"] >= 2000, seen


def test_the_decision_on_edge_cases():
    # the empty context: the empty structure refutes => exists x true, and a
    # universal on the left has no instance there
    found = calculus.decide_relational(Sequent(Context(), (), (Exists("x", Top()),)))
    assert found == calculus.OpenBranch((), frozenset(), {})
    falsum = Forall("x", Bot())
    assert calculus.decide_relational(Sequent(Context(), (falsum,), ())) == calculus.OpenBranch((), frozenset(), {})
    assert calculus.decide_relational(Sequent(Context(("x1",)), (falsum,), ())) is True
    # a binder whose variable its body does not use is read as its body once
    # the branch has a constant, from the context or from an eigen-strength
    # binder; with none, the empty structure tells them apart
    assert calculus.decide_relational(Sequent(Context(("x1",)), (), (Exists("x", Top()),))) is True
    assert calculus.decide_relational(Sequent(Context(), (), (falsum,))) == calculus.OpenBranch((0,), frozenset(), {})
    blank = Exists("y", Forall("z", P("y")))
    assert calculus.decide_relational(Sequent(Context(("x1",)), (P("x1"),), (blank,))) is True
    assert calculus.decide_relational(Sequent(Context(), (Exists("x", P("x")),), (blank,))) is True
    assert calculus.decide_relational(Sequent(Context(), (), (blank,))) == calculus.OpenBranch((), frozenset(), {})
    # an existential under a universal on the left leaves the fragment, but
    # a branch that closes first is decided
    serial = Forall("x", Exists("y", Q("x", "y")))
    assert calculus.decide_relational(Sequent(Context(("x1",)), (serial,), (P("x1"),))) is None
    closed = Sequent(Context(("x1",)), (serial, Bot()), ())
    assert epr_bound(closed) is None and calculus.decide_relational(closed) is True
    # variable equalities merge constants; a function term is declined
    same = Sequent(Context(("x1", "x2")), (Eq(Var("x1"), Var("x2")), P("x1")), (P("x2"),))
    assert calculus.decide_relational(same) is True
    apart = Sequent(Context(("x1", "x2")), (Eq(Var("x1"), Var("x2")),), (Q("x1", "x2"),))
    assert calculus.decide_relational(apart) == calculus.OpenBranch((1,), frozenset(), {"x1": 1, "x2": 1})
    image = Pred("P", (App("f", (Var("x1"),)),))
    assert calculus.decide_relational(Sequent(Context(("x1",)), (image,), (P("x1"),))) is None
    # one formula on both sides closes the root before any formula is read
    assert calculus.decide_relational(Sequent(Context(("x1",)), (image,), (image,))) is True
    # a signature with a constant has no empty structure: the prover may use
    # the constant as a witness, so the walk declines
    constant = Signature(functions=(("c", 0),))
    assert calculus.decide_relational(Sequent(Context(), (), (Exists("x", Top()),)), (), constant) is None
    # a theory axiom with a free variable is refused before any walk, also
    # where the walk would have found an open branch without reading it
    with pytest.raises(ProofError, match="not a sentence"):
        prove_bounded(Sequent(Context(), (), (Pred("R", ()),)), [Or(Pred("S", ()), P("y"))])
    # wide goals are walked without recursion, and the prover gives up at once
    wide = Sequent(Context(), (Pred("P", ()),) * 600, (Pred("Q", ()),))
    assert calculus.decide_relational(wide) == calculus.OpenBranch((), frozenset({("P", ())}), {})
    assert prove_bounded(wide) is None


def test_the_decision_propagates_and_keeps_to_the_node_budget():
    # criterion 10's symmetry theory: an instance with a child that closes
    # the branch at once is taken before any split, so the one instance that
    # proves the goal is found in a context of any size
    symmetric = (Forall("x", P("x")), Forall("x", Forall("y", Imp(Q("x", "y"), Q("y", "x")))))
    transitive = Forall("x", Forall("y", Forall("z", Imp(And(Q("x", "y"), Q("y", "z")), Q("x", "z")))))
    started = time.perf_counter()
    for n in (5, 6, 8):
        ctx = Context(tuple(f"x{i}" for i in range(1, n + 1)))
        s = Sequent(ctx, (Q("x1", "x2"),), (Q("x2", "x1"),))
        assert calculus.decide_relational(s, symmetric, None, max_branches=0) is True
        assert prove_bounded(s, symmetric) is not None
        # every instance is read before a split, so a chain closes as well
        chain = tuple(Q(f"x{i}", f"x{i + 1}") for i in range(1, n))
        theory = (transitive, symmetric[1])
        assert calculus.decide_relational(Sequent(ctx, chain, (Q(f"x{n}", "x1"),)), theory, None, 0) is True
    # a goal of the entail workload that took seconds when the splits were
    # taken last in, first out
    ctx = Context(("x1", "x2"))
    left = Forall("x6", Forall("x4", Or(Q("x1", "x4"), Q("x6", "x1"))))
    right = Forall("x6", Forall("x2", Forall("x4", Q("x2", "x1"))))
    assert calculus.decide_relational(Sequent(ctx, (left,), (right,)), symmetric, None, 0) is True
    assert time.perf_counter() - started < 10
    # another one, with binders its bodies do not use on both sides: read
    # as their bodies they add no constant, and the refutation takes 5 splits
    left = Exists("x6", Exists("x4", Exists("x3", Q("x1", "x3"))))
    s = Sequent(ctx, (left,), (Forall("x6", Imp(P("x2"), Bot())),))
    assert calculus.decide_relational(s, symmetric, None, 4) is None
    found = calculus.decide_relational(s, symmetric, None, 5)
    assert found.carrier == (0, 1, 2)
    m = branch_structure(found, symmetric + s.antecedent + s.succedent)
    assert all(eval_in_structure(ax, m) for ax in symmetric)
    assert eval_in_structure(left, m, found.assignment) and not eval_in_structure(s.succedent[0], m, found.assignment)
    # a refuted chain needs splits: past the budget the walk declines, and
    # the search answers as it would alone
    ctx = Context(("x1", "x2", "x3", "x4"))
    s = Sequent(ctx, (Q("x1", "x2"), Q("x3", "x4")), (Q("x1", "x4"),))
    theory = (transitive, symmetric[1])
    found = calculus.decide_relational(s, theory)
    m = branch_structure(found, theory + s.antecedent + s.succedent)
    assert all(eval_in_structure(ax, m) for ax in theory)
    assert all(eval_in_structure(a, m, found.assignment) for a in s.antecedent)
    assert not eval_in_structure(s.succedent[0], m, found.assignment)
    assert calculus.decide_relational(s, theory, None, 2) is None
    budget = Budget(max_depth=3, max_nodes=2)
    assert prove_bounded(s, theory, budget) is None and calculus._deepen(s, theory, budget, None) is None


def test_a_walk_its_cap_stopped_goes_on_as_a_fresh_walk_would():
    # the kept walk waits before the split its cap refused; each larger cap
    # answers as a fresh walk under that cap does, and a smaller cap after
    # the walk ended answers as before
    caps = (0, 1, 2, 4, 8, math.inf)
    went_on = 0
    for s, theory, budget, sig in decision_goals():
        kept = Sequent(s.context, s.antecedent, s.succedent)
        answers = [calculus.decide_relational(kept, theory, sig, cap) for cap in caps]
        for cap, found in zip(caps, answers):
            fresh = Sequent(s.context, s.antecedent, s.succedent)
            assert found == calculus.decide_relational(fresh, theory, sig, cap), (s, cap)
        assert calculus.decide_relational(kept, theory, sig, 0) == answers[0]
        went_on += answers[0] is None and answers[-1] is not None
    assert went_on >= 200, went_on


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
            assert falsifying_assignment(s, m) is None, (s, structure_sexpr(m))
    assert checked >= 8


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.integers(1, 3), st.integers(0, 2), st.integers(0, 2))
def test_prove_qf_open_leaf_is_a_countermodel(seed, k, n_ant, n_suc):
    # the proof, or an open leaf of atoms alone whose valuation (its
    # antecedent true, every other atom false) falsifies the goal
    from doctrina.formula import atoms_of, eval_prop

    rng = random.Random(seed)
    xs = tuple(f"x{i}" for i in range(1, k + 1))
    s = Sequent(
        Context(xs),
        tuple(random_qf_formula(rng, xs, rng.randint(1, 7), True) for _ in range(n_ant)),
        tuple(random_qf_formula(rng, xs, rng.randint(1, 7), True) for _ in range(n_suc)),
    )
    sig = Signature(functions=(("f", 1),), predicates=(("P", 1), ("Q", 2)))
    found = prove_qf(s)
    if isinstance(found, ProofTree):
        assert found.conclusion == s and check_proof(found, (), sig).ok
        return
    assert found.context == s.context
    assert all(isinstance(a, (Pred, Eq)) for a in found.antecedent + found.succedent), found
    assert not set(found.antecedent) & set(found.succedent), found
    assert not any(isinstance(b, Eq) and b.left == b.right for b in found.succedent), found
    val = {a: a in found.antecedent for f in s.antecedent + s.succedent for a in atoms_of(f)}
    assert all(eval_prop(a, val) for a in s.antecedent), (s, found)
    assert not any(eval_prop(b, val) for b in s.succedent), (s, found)


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
RULE_SIG = Signature(predicates=(("P", 1),))
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
    return check_proof(tree, theory=[AXIOM], signature=RULE_SIG)


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
