"""Differential tests of the stratification verifiers against their earlier
forms, kept here as references: `generated_markings` as its own union loop,
`verify_one_step` with each universal table restricted to P0, and
`check_submarking` as a pair loop over every fiber."""

import random
from collections import Counter

from doctrina.boolalg import BoolAlg, boolean_closure
from doctrina.category import chain_category
from doctrina.doctrine import (
    close_boolean_substitution,
    embedding_morphism,
    full_marking,
    generated_markings,
    hbx_doctrine,
    layer_step,
    random_doctrine,
    subset_doctrine,
    violation,
)
from doctrina.stratify import check_submarking, stratify, verify_one_step

from test_stratify import chain_doctrine_with_proper_fragment


def reference_generated_markings(d, seed):
    """The generated marking, and the number of rounds that grew it."""
    tables = d.universal_tables()
    cur = close_boolean_substitution(d, seed)
    rounds = 0
    while True:
        nxt = {x: set(v) for x, v in cur.items()}
        for x in d.base.objects:
            for y in d.base.objects:
                p = d.base.product(x, y)[0]
                for b in cur[p]:
                    nxt[x].add(tables[(x, y)][b])
        nxt = close_boolean_substitution(d, {x: frozenset(v) for x, v in nxt.items()})
        if nxt == cur:
            return cur, rounds
        cur = nxt
        rounds += 1


def reference_check_submarking(d, marking, label="P0"):
    out = [violation("marking-unknown", level=label, X=x)
           for x in sorted(marking) if x not in d.base.objects]
    for x in d.base.objects:
        alg = d.fiber(x)
        members = marking.get(x)
        if members is None:
            out.append(violation("marking-missing", level=label, X=x))
            continue
        if alg.top not in members or alg.bot not in members:
            out.append(violation("marking-bounds", level=label, X=x))
        for a in sorted(members):
            if alg.neg(a) not in members:
                out.append(violation("marking-neg", level=label, X=x, elem=a))
            for b in sorted(members):
                if a & b not in members:
                    out.append(violation("marking-meet", level=label, X=x, left=a, right=b))
                if a | b not in members:
                    out.append(violation("marking-join", level=label, X=x, left=a, right=b))
    for f, (x, y) in sorted(d.base.morphisms.items()):
        for a in sorted(marking.get(y, ())):
            if d.re(f, a) not in marking.get(x, ()):
                out.append(violation("marking-reindex", level=label, f=f, elem=a))
    return out


def reference_verify_one_step(d, p0, p1):
    out = []
    out += check_submarking(d, p0, "P0")
    out += check_submarking(d, p1, "P1")
    for x in d.base.objects:
        if not p0.get(x, frozenset()) <= p1.get(x, frozenset()):
            out.append(violation("inclusion", X=x))
    if out:
        return out
    ambient = d.universal_tables()
    tables = {
        (x, y): {b: ambient[(x, y)][b] for b in p0[d.base.product(x, y)[0]]}
        for x in d.base.objects
        for y in d.base.objects
    }
    for x in d.base.objects:
        for y in d.base.objects:
            p, pr1, _ = d.base.product(x, y)
            ax = d.fiber(x)
            ap = d.fiber(p)
            table = tables[(x, y)]
            for b in sorted(p0[p]):
                u = table[b]
                if u not in p1[x]:
                    out.append(violation("one-step-universal-range", X=x, Y=y, elem=b))
                    continue
                for a in sorted(p1[x]):
                    if ax.leq(a, u) != ap.leq(d.re(pr1, a), b):
                        out.append(violation("one-step-universal", X=x, Y=y, elem=b, alpha=a))
    for f, (x1, x) in sorted(d.base.morphisms.items()):
        for y in d.base.objects:
            fxid = d.base.times_id(f, y)
            for b in sorted(p0[d.base.product(x, y)[0]]):
                lhs = tables[(x1, y)].get(d.re(fxid, b))
                rhs = d.re(f, tables[(x, y)][b])
                if lhs != rhs:
                    out.append(violation("one-step-beck-chevalley", f=f, Y=y, elem=b))
    generated = layer_step(d, p0, tables)
    for x in d.base.objects:
        if generated[x] != p1[x]:
            out.append(violation("one-step-generation", X=x))
    return out


def test_generated_markings_matches_its_union_loop():
    # the seeds of test_generated_subdoctrine_realizes_the_embedding_fragment
    rng = random.Random(5)
    for _ in range(6):
        d = random_doctrine(rng, max_objects=2, max_atoms=2)
        emb = embedding_morphism(d)
        seed = {
            x: frozenset(emb.components[x][a] for a in d.fiber(x).elements())
            for x in d.base.objects
        }
        assert generated_markings(emb.target, seed) == reference_generated_markings(emb.target, seed)[0]
    # and one random element at one object, which some doctrines need two
    # rounds of quantifiers to close
    rng = random.Random(6)
    rounds = Counter()
    for _ in range(200):
        d = random_doctrine(rng, max_objects=4, max_atoms=3)
        x = rng.choice(d.base.objects)
        seed = {x: frozenset(rng.sample(list(d.fiber(x).elements()), 1))}
        expected, n = reference_generated_markings(d, seed)
        assert generated_markings(d, seed) == expected, seed
        rounds[n] += 1
    assert rounds[0] and rounds[1] and rounds[2], rounds


def one_step_pairs():
    """The adjacent layers of stratify outputs, and broken pairs: a layer
    with itself, the layers swapped, P1 widened or narrowed, P0 unclosed."""
    cases = [chain_doctrine_with_proper_fragment()]
    cases += [(d, full_marking(d)) for d in (
        subset_doctrine({"E": (), "U": ("*",)}),
        hbx_doctrine(chain_category(3), "c1", BoolAlg(2)),
        hbx_doctrine(chain_category(2), "c1", BoolAlg(2)),
        hbx_doctrine(chain_category(3), "c2", BoolAlg(1)),
    )]
    for d, marking in cases:
        levels = stratify(d, marking).levels
        yield d, levels[0], levels[-1]
        for p0, p1 in zip(levels, levels[1:]):
            yield d, p0, p1
            yield d, p1, p0
        p0 = levels[0]
        yield d, p0, p0
        yield d, p0, full_marking(d)
        yield d, p0, layer_step(d, p0, d.universal_tables())
        yield d, p0, {x: boolean_closure(d.fiber(x), ()) for x in d.base.objects}
        x = d.base.objects[-1]
        if len(p0[x]) > 2:
            yield d, {**p0, x: p0[x] - {max(p0[x])}}, levels[-1]


def test_verify_one_step_matches_the_restricted_tables():
    passed = failed = 0
    for d, p0, p1 in one_step_pairs():
        got = verify_one_step(d, p0, p1)
        assert got == reference_verify_one_step(d, p0, p1), (p0, p1)
        passed += got == []
        failed += got != []
    assert passed > 5 and failed > 5, (passed, failed)


def test_check_submarking_matches_the_pair_loop():
    d = hbx_doctrine(chain_category(3), "c1", BoolAlg(2))
    full = full_marking(d)
    # reindexing tables padded past the fiber, so the reindexing condition
    # can read the out-of-fiber members below
    d = d.with_tables(reindex={f: t + (0,) * (8 - len(t)) for f, t in d.reindex.items()})
    x = next(x for x in d.base.objects if d.fiber(x).atoms == 2)
    markings = [
        full,
        # as many members as a subalgebra over two atoms, but 5 and 6 lie
        # outside the fiber
        {**full, x: frozenset({0, 3, 5, 6})},
        # not closed: the join 1 | 2 is missing
        {**full, x: frozenset({0, 1, 2})},
        # closed, without the top
        {**full, x: frozenset({0})},
        # a proper subalgebra, which reindexing may leave
        {**full, x: frozenset({0, 3})},
        {y: v for y, v in full.items() if y != x},
        {**full, "nowhere": frozenset({0})},
    ]
    rng = random.Random(27)
    for _ in range(40):
        d2 = random_doctrine(rng, max_objects=3, max_atoms=4)
        y = rng.choice(d2.base.objects)
        marking = full_marking(d2)
        markings_d2 = [marking, {**marking, y: frozenset(rng.sample(sorted(marking[y]), len(marking[y]) // 2))}]
        for m in markings_d2:
            assert check_submarking(d2, m) == reference_check_submarking(d2, m)
    for m in markings:
        assert check_submarking(d, m, "P1") == reference_check_submarking(d, m, "P1"), m
    assert check_submarking(d, full) == []
    assert check_submarking(d, markings[1]) != []
