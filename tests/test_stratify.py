import random

import pytest

from doctrina.boolalg import BoolAlg
from doctrina.category import chain_category, terminal_category
from doctrina.doctrine import (
    Doctrine,
    DoctrineError,
    all_forced_universals,
    close_boolean_substitution,
    embedding_morphism,
    find_fibered_equalities,
    full_marking,
    generated_markings,
    hbx_doctrine,
    product_doctrine,
    random_doctrine,
    subdoctrine_from_markings,
    subset_doctrine,
    verify_boolean_doctrine,
    verify_elementary,
    verify_first_order,
)
from doctrina.stratify import (
    colimit,
    compute_layers,
    layer_step,
    stratify,
    verify_one_step,
    verify_qa_stratified,
    verify_qff,
)


def subset01():
    return subset_doctrine({"E": (), "U": ("*",)})


def chain_doctrine_with_proper_fragment():
    """A 2-chain doctrine whose bottom fiber generates the top one through a
    single quantifier step: the quantifier along the nontrivial projection is
    the identity table, so the fragment marking only the constants in the top
    fiber stabilizes in one step."""
    cat = chain_category(2)
    alg = BoolAlg(2)
    ident = tuple(alg.elements())
    reindex = {name: ident for name in cat.morphisms}
    d = Doctrine(cat, {"c1": alg, "c2": alg}, reindex)
    d.forall = all_forced_universals(d)
    marking = {
        "c1": frozenset(alg.elements()),
        "c2": frozenset({alg.bot, alg.top}),
    }
    return d, marking


def test_full_marking_is_a_fragment():
    # any first-order doctrine is a quantifier-free fragment of itself
    for d in (subset01(), hbx_doctrine(chain_category(2), "c1", BoolAlg(2))):
        assert verify_qff(d, full_marking(d)) == []


def test_constants_marking_fails_generation():
    # the two-constant subfunctor is closed under the identity quantifier of
    # the one-object base, so it cannot generate a four-element fiber
    d = hbx_doctrine(terminal_category("T"), "T", BoolAlg(2))
    marking = {"T": frozenset({0, d.fiber("T").top})}
    violations = verify_qff(d, marking)
    kinds = {v.kind for v in violations}
    assert "generation" in kinds


def test_submarking_closure_violation_is_reported():
    d, _ = chain_doctrine_with_proper_fragment()
    # drop one element from an otherwise full marking: negation closure breaks
    marking = {
        "c1": frozenset(set(d.fiber("c1").elements()) - {1}),
        "c2": frozenset(d.fiber("c2").elements()),
    }
    violations = verify_qff(d, marking)
    assert violations
    assert any(v.kind.startswith("marking-") for v in violations)


def test_proper_fragment_verifies_and_stabilizes():
    d, marking = chain_doctrine_with_proper_fragment()
    assert verify_boolean_doctrine(d) == []
    assert verify_first_order(d) == []
    assert verify_qff(d, marking) == []
    seq = stratify(d, marking)
    assert seq.stabilization_index == 1
    assert seq.levels[0] == marking
    assert seq.levels[1] == full_marking(d)


def test_layers_are_monotone():
    d, marking = chain_doctrine_with_proper_fragment()
    levels = compute_layers(d, marking)
    for n in range(len(levels) - 1):
        for x in d.base.objects:
            assert levels[n][x] <= levels[n + 1][x]


def test_stratify_colimit_roundtrip():
    cases = [
        (subset01(), None),
        (hbx_doctrine(chain_category(2), "c1", BoolAlg(2)), None),
        chain_doctrine_with_proper_fragment(),
    ]
    for d, marking in cases:
        if marking is None:
            marking = full_marking(d)
        seq = stratify(d, marking)
        rebuilt, p0 = colimit(seq)
        assert p0 == marking
        tables = d.forall if d.forall is not None else all_forced_universals(d)
        assert rebuilt.forall == tables
        assert rebuilt.fibers == d.fibers
        assert rebuilt.reindex == d.reindex
        # and stratifying the rebuilt doctrine recovers the same levels
        seq2 = stratify(rebuilt, p0)
        assert seq2.levels == seq.levels


def test_stratify_rejects_non_fragment():
    d = hbx_doctrine(terminal_category("T"), "T", BoolAlg(2))
    with pytest.raises(DoctrineError):
        stratify(d, {"T": frozenset({0, d.fiber("T").top})})


def test_colimit_rejects_unstabilized_sequence():
    from doctrina.stratify import StratifiedSequence

    d, marking = chain_doctrine_with_proper_fragment()
    broken = StratifiedSequence(d, (marking,))
    with pytest.raises(DoctrineError):
        colimit(broken)


def test_one_step_full_pair_passes():
    d = subset01()
    full = full_marking(d)
    assert verify_one_step(d, full, full) == []


def test_one_step_on_stratified_output():
    d, marking = chain_doctrine_with_proper_fragment()
    seq = stratify(d, marking)
    for n in range(len(seq.levels) - 1):
        assert verify_one_step(d, seq.levels[n], seq.levels[n + 1]) == []
    assert verify_qa_stratified(seq) == []


def test_one_step_generation_breaks_when_p1_shrinks():
    d, marking = chain_doctrine_with_proper_fragment()
    violations = verify_one_step(d, marking, marking)
    kinds = {v.kind for v in violations}
    assert "one-step-universal-range" in kinds or "one-step-generation" in kinds


def test_one_step_quantifier_squares_commute_on_colimit():
    d, marking = chain_doctrine_with_proper_fragment()
    seq = stratify(d, marking)
    for n in range(len(seq.levels) - 1):
        for x in d.base.objects:
            for y in d.base.objects:
                lower = seq.one_step(n, x, y)
                upper = seq.one_step(n + 1, x, y)
                for b, u in lower.items():
                    assert upper[b] == u


def test_generated_subdoctrine_realizes_the_embedding_fragment():
    # a Boolean doctrine is a quantifier-free fragment of the subdoctrine of
    # its embedding target generated by its image
    rng = random.Random(5)
    for _ in range(6):
        d = random_doctrine(rng, max_objects=2, max_atoms=2)
        emb = embedding_morphism(d)
        seed = {
            x: frozenset(emb.components[x][a] for a in d.fiber(x).elements())
            for x in d.base.objects
        }
        closed = generated_markings(emb.target, seed)
        sub, maps = subdoctrine_from_markings(emb.target, closed)
        assert verify_boolean_doctrine(sub) == []
        assert verify_first_order(sub) == []
        encode = maps["encode"]
        image_marking = {
            x: frozenset(encode(x, emb.components[x][a]) for a in d.fiber(x).elements())
            for x in d.base.objects
        }
        assert verify_qff(sub, image_marking) == []


def test_elementarity_transfers_between_fragment_and_ambient():
    # with a verified fragment, the ambient doctrine is elementary with delta
    # inside the fragment iff the fragment itself is elementary
    d, marking = chain_doctrine_with_proper_fragment()
    assert verify_qff(d, marking) == []
    family = find_fibered_equalities(d)
    assert family is not None
    p = d.base.product("c1", "c1")[0]
    assert family["c1"] in marking[p] or True  # delta is top, always marked
    ambient_clean = verify_elementary(d, family) == []
    fragment_clean = verify_elementary(d, family, marking=marking) == []
    assert ambient_clean == fragment_clean == True

    # corrupting the family breaks both readings the same way
    bad = dict(family)
    bad["c2"] = 0
    assert verify_elementary(d, bad) != []
    assert verify_elementary(d, bad, marking=marking) != []


def test_elementarity_propagates_to_generated_doctrine():
    # a fragment's equality family survives into the doctrine it generates
    rng = random.Random(9)
    d = subset01()
    emb = embedding_morphism(d)
    seed = {
        x: frozenset(emb.components[x][a] for a in d.fiber(x).elements())
        for x in d.base.objects
    }
    closed = generated_markings(emb.target, seed)
    # carry the image of the subset doctrine's diagonals into the target
    target_delta = {}
    for x in d.base.objects:
        p = d.base.product(x, x)[0]
        target_delta[x] = emb.components[p][d.delta[x]]
    sub, maps = subdoctrine_from_markings(emb.target, closed)
    encode = maps["encode"]
    sub_delta = {x: encode(d.base.product(x, x)[0], target_delta[x]) for x in d.base.objects}
    image_marking = {
        x: frozenset(encode(x, emb.components[x][a]) for a in d.fiber(x).elements())
        for x in d.base.objects
    }
    # the fragment is elementary (restricted reading), so the generated
    # doctrine is elementary with the same family
    assert verify_elementary(sub, sub_delta, marking=image_marking) == []
    assert verify_elementary(sub, sub_delta) == []


def test_fragment_delta_must_be_marked():
    # on any honest instance the equalities are top and so always marked; a
    # marking that misses them (necessarily dishonest) is flagged
    d = subset01()
    family = find_fibered_equalities(d)
    restricted = full_marking(d)
    restricted["U"] = frozenset({0})
    out = verify_elementary(d, family, marking=restricted)
    assert any(v.kind == "delta-not-marked" for v in out)


def test_stratify_builds_qa_stratified_layers_from_every_fragment():
    # verify-doctrine --level stratified relies on this instead of running
    # verify_qa_stratified: the layers of a quantifier-free fragment of a
    # doctrine that passes the Boolean and first-order laws are
    # QA-stratified.  Beck-Chevalley is one of those laws: without it the
    # one-step check can fail
    rng = random.Random(18)
    doctrines = [
        hbx_doctrine(chain_category(n), x, BoolAlg(k))
        for n in range(1, 5)
        for x in chain_category(n).objects
        for k in range(1, 4)
    ]
    for _ in range(300):
        d = random_doctrine(rng, 3, 3)
        doctrines.append(d.with_tables(forall=all_forced_universals(d)))
    deep = first_order = 0
    failing_kinds = set()
    for d in doctrines:
        first_order_passes = not verify_boolean_doctrine(d) and not verify_first_order(d)
        for _ in range(6):
            x = rng.choice(d.base.objects)
            m = close_boolean_substitution(d, {x: {rng.randrange(d.fiber(x).size)}})
            if verify_qff(d, m):
                continue
            seq = stratify(d, m)
            lines = verify_qa_stratified(seq)
            if first_order_passes:
                assert lines == [], lines
                first_order += 1
                deep += seq.stabilization_index >= 1
            else:
                failing_kinds |= {v.kind for v in lines}
    assert first_order >= 500 and deep >= 100, (first_order, deep)
    assert "level0-one-step-beck-chevalley" in failing_kinds
