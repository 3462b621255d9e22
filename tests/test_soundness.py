"""Cross-cutting soundness properties: checked proofs stay valid under both
set semantics (word-language models) and finite-doctrine semantics."""

import itertools
import random

import pytest

from doctrina.lang import Context, Signature, Var, canonical_context
from doctrina.formula import FormulaInContext, Pred, Top
from doctrina.calculus import Budget, Sequent, check_proof, prove_bounded
from doctrina.doctrine import subset_doctrine
from doctrina.semantics import countermodel_search, falsifying_assignment
from doctrina.syntactic import BoundedOracle, DoctrineTarget, Proved, sequent_valid
from doctrina.prefix import (
    PrefixOracle,
    SIGNATURE,
    WordLanguageModel,
    prefix_theory,
    verify_T_axioms,
)

from helpers import random_sequent


def enumerate_word_models(alphabet: tuple, truncation: int) -> list[WordLanguageModel]:
    """Every prefix-closed, properly-extendable truncated language over the
    alphabet."""
    words = []
    for length in range(truncation + 1):
        words.extend(itertools.product(alphabet, repeat=length))
    models = []
    for keep in itertools.product((False, True), repeat=len(words)):
        w = frozenset(w for w, k in zip(words, keep) if k)
        m = WordLanguageModel(alphabet, truncation, w)
        if verify_T_axioms(m, truncation - 1) == []:
            models.append(m)
    return models


def test_enumerated_word_models_exist():
    models = enumerate_word_models(("a",), 2)
    languages = {m.words for m in models}
    assert frozenset() in languages
    assert frozenset({(), ("a",), ("a", "a")}) in languages


def test_prefix_proofs_hold_in_all_word_models():
    # every certificate the prefix oracle produces is valid in every
    # enumerated model of the theory
    oracle = PrefixOracle()
    ctx2 = canonical_context(2)
    r2 = Pred("R2", (Var("x1"), Var("x2")))
    r1 = Pred("R1", (Var("x1"),))
    r0 = Pred("R0")
    goals = [
        Sequent(ctx2, (r2,), (r1,)),
        Sequent(canonical_context(1), (r1,), (r0,)),
        Sequent(ctx2, (r2,), (r0, r1)),
    ]
    models = enumerate_word_models(("a",), 3) + enumerate_word_models(("a", "b"), 2)
    assert len(models) > 10
    checked = 0
    for s in goals:
        v = oracle.decide(s)
        assert isinstance(v, Proved)
        assert check_proof(v.proof, prefix_theory(), SIGNATURE).ok
        for m in models:
            assert falsifying_assignment(s, m.as_structure()) is None, (s, sorted(m.words))
            checked += 1
    assert checked > 30


def test_r0_countermodel_is_the_empty_language():
    theory = prefix_theory()
    oracle = BoundedOracle(theory, Budget(max_depth=4), model_size=1, family_up_to=1)
    s = Sequent(Context(), (), (Pred("R0"),))
    axioms = oracle.axioms_for(s)
    found = countermodel_search(s, axioms, SIGNATURE, 1, oracle.predicates_for(s, axioms))
    assert found is not None
    m, _ = found
    assert not m.predicates.get("R0")


def test_every_proof_node_is_valid_in_finite_doctrines():
    # the rules of the calculus hold in first-order Boolean doctrines: every
    # node of every checked proof interprets to a valid inequality
    rng = random.Random(31)
    d = subset_doctrine({"E": (), "U": ("*",)})
    targets = [DoctrineTarget(d, "U"), DoctrineTarget(d, "E")]
    families = []
    for p_val in (0, 1):
        for q_val in (0, 1):
            families.append({"P": p_val, "Q": q_val})

    def nodes(t):
        yield t
        for p in t.premises:
            yield from nodes(p)

    proofs = 0
    for _ in range(40):
        s = random_sequent(rng, max_size=4)
        tree = prove_bounded(s, budget=Budget(max_depth=6, max_nodes=2000))
        if tree is None:
            continue
        proofs += 1
        assert check_proof(tree).ok
        for target in targets:
            for family in families:
                fam = {
                    "P": family["P"] * target.doctrine.fiber(target.ctx_object(1)).top,
                    "Q": family["Q"] * target.doctrine.fiber(target.ctx_object(2)).top,
                }
                for node in nodes(tree):
                    if node.rule.tag == "TheoryAxiom":
                        continue
                    assert sequent_valid(node.conclusion, target, fam), (
                        node.conclusion,
                        node.rule,
                    )
    assert proofs >= 8


def test_subset_doctrine_unique_fragment_exhaustive():
    # over the two-set base every closed marking is the full one, so the full
    # marking is the unique quantifier-free fragment
    from doctrina.stratify import check_submarking, verify_qff

    d = subset_doctrine({"E": (), "U": ("*",)})
    full = {"E": frozenset({0}), "U": frozenset({0, 1})}
    passing = []
    for e_part in _subsets({0}):
        for u_part in _subsets({0, 1}):
            marking = {"E": frozenset(e_part), "U": frozenset(u_part)}
            if verify_qff(d, marking) == []:
                passing.append(marking)
    assert passing == [full]


def _subsets(s):
    s = sorted(s)
    for bits in itertools.product((False, True), repeat=len(s)):
        yield {x for x, b in zip(s, bits) if b}
