"""Broader randomized and cross-module exercises beyond the pinned examples."""

import itertools
import random

import pytest

from doctrina.lang import Context, Signature, Var, canonical_context
from doctrina.formula import (
    And,
    Bot,
    Exists,
    Forall,
    FormulaInContext,
    Not,
    Or,
    Pred,
    Top,
)
from doctrina.boolalg import BoolAlg
from doctrina.calculus import Sequent, check_proof
from doctrina.category import chain_category
from doctrina.doctrine import (
    hbx_doctrine,
    random_doctrine,
    verify_boolean_doctrine,
    verify_first_order,
)
from doctrina.syntactic import DoctrineTarget, Proved, interpret, sequent_valid
from doctrina.prefix import (
    PrefixOracle,
    SIGNATURE,
    intersection_experiment,
    p0n_membership,
    prefix_theory,
)


def test_prefix_oracle_two_step_chain_certificate():
    # the ternary atom entails the unary one through two axiom applications
    oracle = PrefixOracle()
    ctx = canonical_context(3)
    r3 = Pred("R3", (Var("x1"), Var("x2"), Var("x3")))
    r1 = Pred("R1", (Var("x1"),))
    v = oracle.decide(Sequent(ctx, (r3,), (r1,)))
    assert isinstance(v, Proved)
    assert check_proof(v.proof, prefix_theory(), SIGNATURE).ok


def test_random_single_entry_mutations_always_caught():
    rng = random.Random(4711)
    caught = 0
    for _ in range(30):
        d = random_doctrine(rng, max_objects=3, max_atoms=2)
        assert verify_boolean_doctrine(d) == []
        names = sorted(f for f in d.reindex if d.fiber(d.base.src(f)).size > 1)
        if not names:
            continue
        f = rng.choice(names)
        table = list(d.reindex[f])
        i = rng.randrange(len(table))
        alg = d.fiber(d.base.src(f))
        options = [v for v in alg.elements() if v != table[i]]
        table[i] = rng.choice(options)
        bad = dict(d.reindex)
        bad[f] = tuple(table)
        assert verify_boolean_doctrine(d.with_tables(reindex=bad)), f
        caught += 1
    assert caught >= 20


def test_interpret_into_hom_power_target():
    cat = chain_category(2)
    d = hbx_doctrine(cat, "c1", BoolAlg(2))
    assert verify_first_order(d) == []
    target = DoctrineTarget(d, "c1")
    fam = {
        "P": d.fiber(target.ctx_object(1)).top,
        "Q": 0,
    }
    ctx = canonical_context(2)
    phi = FormulaInContext(
        Forall("y", Or(Pred("P", (Var("x1"),)), Pred("Q", (Var("x1"), Var("y"))))),
        canonical_context(1),
    )
    value = interpret(phi, target, fam)
    assert value == d.fiber(target.ctx_object(1)).top
    s = Sequent(ctx, (Pred("Q", (Var("x1"), Var("x2"))),), (Pred("Q", (Var("x1"), Var("x2"))),))
    assert sequent_valid(s, target, fam)
    s2 = Sequent(ctx, (Top(),), (Pred("Q", (Var("x1"), Var("x2"))),))
    assert not sequent_valid(s2, target, fam)


def test_intersection_edge_case_nullary_only():
    # a zero-length context leaves only the nullary atom; it is excluded at
    # level 1 because no higher-arity atom exists without variables
    report = intersection_experiment(0, 0, 1)
    assert report.ok
    excluded = [l for l in report.lines if l.startswith("EXCLUDED")]
    assert len(excluded) == 2  # the atom and its negation
    assert all("n=1" in l for l in excluded)
    ctx = canonical_context(0)
    assert p0n_membership(Pred("R0"), 0, ctx).kind == "yes"
    assert p0n_membership(Pred("R0"), 1, ctx, arity_bound=2).kind == "no"


def test_p0n_respects_context_length():
    # in a 2-variable context the level-1 candidates do exist and recover the
    # unary atom at level 1
    ctx = canonical_context(2)
    r1 = Pred("R1", (Var("x1"),))
    res = p0n_membership(r1, 1, ctx, arity_bound=2)
    assert res.kind == "yes"
