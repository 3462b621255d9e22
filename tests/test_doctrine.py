import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from doctrina.boolalg import (
    BAHom,
    BoolAlg,
    boolean_closure,
    hom_violations,
    is_monotone,
    monotone_violations,
    right_adjoint_of,
    subalgebra_atoms,
)
from doctrina.category import (
    CategoryError,
    FPCategory,
    chain_category,
    finset_category,
    semilattice_category,
    terminal_category,
)
from doctrina.doctrine import (
    Doctrine,
    DoctrineError,
    all_forced_universals,
    change_of_base,
    derive_exists,
    embedding_morphism,
    find_fibered_equalities,
    forced_universal,
    hbx_doctrine,
    injectivity_report,
    product_doctrine,
    quotient_by_filter,
    random_doctrine,
    report_lines,
    subset_doctrine,
    verify_boolean_doctrine,
    verify_elementary,
    verify_first_order,
    verify_morphism,
)
from doctrina.category import Functor, identity_functor

from helpers import monotone_maps, one_entry_mutant


def subset01():
    return subset_doctrine({"E": (), "U": ("*",)})


# --- Boolean algebra layer ------------------------------------------------------


def test_boolalg_operations():
    alg = BoolAlg(3)
    assert alg.top == 0b111 and alg.bot == 0
    assert alg.neg(0b101) == 0b010
    assert alg.leq(0b001, 0b011) and not alg.leq(0b011, 0b001)


def test_bahom_is_a_homomorphism():
    src, dst = BoolAlg(3), BoolAlg(2)
    for atom_map in itertools.product(range(3), repeat=2):
        h = BAHom(src, dst, atom_map)
        assert list(hom_violations(src, dst, h.table())) == []
    assert BAHom(src, src, tuple(range(src.atoms))).table() == tuple(src.elements())


def test_bahom_compose():
    a, b, c = BoolAlg(2), BoolAlg(3), BoolAlg(1)
    h1 = BAHom(a, b, (0, 1, 0))
    h2 = BAHom(b, c, (2,))
    comp = h2.compose(h1)
    for x in a.elements():
        assert comp(x) == h2(h1(x))


def test_right_adjoint_of_hom_is_adjoint():
    src, dst = BoolAlg(2), BoolAlg(3)
    h = BAHom(src, dst, (0, 1, 1))
    table = right_adjoint_of(src, dst, h)
    for a in src.elements():
        for b in dst.elements():
            assert src.leq(a, table[b]) == dst.leq(h(a), b)


def test_boolean_closure_and_atoms():
    alg = BoolAlg(3)
    closed = boolean_closure(alg, [0b011])
    assert closed == frozenset({0, 0b011, 0b100, 0b111})
    assert subalgebra_atoms(alg, closed) == [0b011, 0b100]
    assert boolean_closure(alg, []) == frozenset({0, alg.top})


def boolean_closure_by_pairs(alg, seed):
    """The reference: close under negation and under meets and joins with
    every member found so far."""
    out = {alg.bot, alg.top} | set(seed)
    frontier = list(out)
    while frontier:
        x = frontier.pop()
        y = alg.neg(x)
        if y not in out:
            out.add(y)
            frontier.append(y)
        for z in list(out):
            for y in (x & z, x | z):
                if y not in out:
                    out.add(y)
                    frontier.append(y)
    return frozenset(out)


def subalgebra_atoms_by_pairs(members):
    """The reference: the minimal nonzero members of a closed subalgebra."""
    return [
        x for x in sorted(members)
        if x and all(y == 0 or y == x or (y & x) != y for y in members)
    ]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=4))
))
@example((0, []))
@example((0, [0, 0]))
@example((3, []))
@example((3, [0b011, 0b110]))
def test_partition_refinement_matches_the_pair_loops(case):
    n, seed = case
    alg = BoolAlg(n)
    closed = boolean_closure_by_pairs(alg, seed)
    assert boolean_closure(alg, seed) == closed
    assert subalgebra_atoms(alg, seed) == subalgebra_atoms_by_pairs(closed)
    # a closed seed is its own closure, and its atoms are its minimal members
    assert boolean_closure(alg, closed) == closed
    assert subalgebra_atoms(alg, closed) == subalgebra_atoms_by_pairs(closed)


# --- laws decided on atoms, against the pair enumerations they guard ------------------


def hom_violations_by_pairs(src, dst, table):
    """The reference: every homomorphism law at every element and pair."""
    if table[src.top] != dst.top:
        yield "top", {}
    if table[src.bot] != dst.bot:
        yield "bottom", {}
    for a in src.elements():
        if table[src.neg(a)] != dst.neg(table[a]):
            yield "neg", {"elem": a}
    for a in src.elements():
        for b in range(a, src.size):
            if table[a & b] != table[a] & table[b]:
                yield "meet", {"left": a, "right": b}
            if table[a | b] != table[a] | table[b]:
                yield "join", {"left": a, "right": b}


def is_monotone_by_pairs(alg, table):
    return all(
        alg.leq(table[b], table[b2])
        for b in alg.elements()
        for b2 in alg.elements()
        if alg.leq(b, b2)
    )


def right_adjoint_by_pairs(src, dst, f):
    return tuple(src.join_all(a for a in src.elements() if dst.leq(f(a), b)) for b in dst.elements())


@st.composite
def element_tables(draw):
    """(src, dst, table) with table indexed by src: a homomorphism, a map
    that preserves joins but not the top or disjointness, a monotone map,
    or random entries, each possibly with one entry changed, out of the
    target fiber included."""
    src, dst = BoolAlg(draw(st.integers(0, 4))), BoolAlg(draw(st.integers(0, 3)))
    kind = draw(st.sampled_from(["hom", "joins", "monotone", "random"]))
    value = st.integers(-2, dst.size + 1)
    if kind == "hom" and dst.atoms > 0 and src.atoms > 0:
        atom_map = draw(st.lists(st.integers(0, src.atoms - 1), min_size=dst.atoms, max_size=dst.atoms))
        table = list(BAHom(src, dst, tuple(atom_map)).table())
    elif kind == "joins":
        images = draw(st.lists(value, min_size=src.atoms, max_size=src.atoms))
        table = [src.join_all(v for i, v in enumerate(images) if (a >> i) & 1) for a in src.elements()]
    elif kind == "monotone":
        # the join of random values below each element
        seeds = draw(st.lists(value, min_size=src.size, max_size=src.size))
        table = [src.join_all(v for c, v in enumerate(seeds) if src.leq(c, a)) for a in src.elements()]
    else:
        table = draw(st.lists(value, min_size=src.size, max_size=src.size))
    if draw(st.booleans()):
        table[draw(st.integers(0, src.size - 1))] = draw(value)
    return src, dst, tuple(table)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(element_tables())
def test_hom_violations_agree_with_the_pair_enumeration(case):
    src, dst, table = case
    assert list(hom_violations(src, dst, table)) == list(hom_violations_by_pairs(src, dst, table))


def larger_mutant_tables():
    """(src, dst, table, defects) on 5 to 8 atoms: a homomorphism with one
    entry changed at the bottom, an atom, the top or an inner element, with
    several entries changed, or with two atom images overlapping."""
    rng = random.Random(27)
    for n in range(5, 9):
        src, dst = BoolAlg(n), BoolAlg(rng.randint(n - 1, n))
        hom = list(BAHom(src, dst, tuple(rng.randrange(n) for _ in range(dst.atoms))).table())
        inner = [a for a in src.elements() if a.bit_count() >= 2 and a != src.top]
        for where in ([src.bot], [1 << rng.randrange(n)], [src.top], [rng.choice(inner)],
                      rng.sample(inner, 3), [src.bot, src.top, *rng.sample(inner, 2)]):
            table = list(hom)
            for a in where:
                table[a] ^= rng.randint(1, dst.top)
            yield src, dst, tuple(table), where
        # an entry out of the target fiber
        table = list(hom)
        table[rng.choice(inner)] = -1 - dst.top
        yield src, dst, tuple(table), None
        # two atom images overlap, and the joins are kept
        images = [hom[1 << i] for i in range(n)]
        images[0] |= images[1] or 1
        table = [src.join_all(v for i, v in enumerate(images) if (a >> i) & 1) for a in src.elements()]
        yield src, dst, tuple(table), None
        table[rng.choice(inner)] ^= 1
        yield src, dst, tuple(table), None


def test_hom_violations_on_larger_tables_agree_with_the_pair_enumeration():
    for src, dst, table, where in larger_mutant_tables():
        counted = CountingTable(table)
        got = list(hom_violations(src, dst, counted))
        assert got == list(hom_violations_by_pairs(src, dst, table)), (src, table)
        assert any(law in ("meet", "join") for law, _ in got)
        if where is not None and len(where) == 1 and where[0].bit_count() >= 2 and where[0] != src.top:
            # one inner defect: its pairs are read, not all 4^n / 2
            assert counted.reads < src.size * src.size, (where, counted.reads)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(element_tables())
def test_is_monotone_agrees_with_the_pair_enumeration(case):
    src, _, table = case
    assert is_monotone(src, table) == is_monotone_by_pairs(src, table)
    assert list(monotone_violations(src, table)) == [
        (b, b2) for b in src.elements() for b2 in src.elements()
        if src.leq(b, b2) and not src.leq(table[b], table[b2])
    ]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(element_tables())
def test_right_adjoint_of_agrees_with_its_definition(case):
    src, dst, table = case
    f = table.__getitem__
    assert right_adjoint_of(src, dst, f) == right_adjoint_by_pairs(src, dst, f)


class CountingTable(tuple):
    """A table that counts its indexed reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_passing_laws_are_decided_without_the_pair_enumeration():
    # a passing 10-atom table is read O(n 2^n) times, not 4^n
    n = 10
    alg = BoolAlg(n)
    bound = 2 * (n + 1) * alg.size
    hom = BAHom(alg, alg, tuple(random.Random(0).sample(range(n), n)))
    table = CountingTable(hom.table())
    assert list(hom_violations(alg, alg, table)) == []
    assert 0 < table.reads < bound
    table = CountingTable(hom.table())
    assert is_monotone(alg, table)
    assert 0 < table.reads < bound
    calls = []

    def f(a):
        calls.append(a)
        return hom(a)

    adjoint = right_adjoint_of(alg, alg, f)
    assert len(calls) <= alg.size
    # a permutation of atoms has its inverse as right adjoint
    assert all(hom(adjoint[b]) == b for b in alg.elements())


def associativity_by_triples(cat):
    """The reference: every triple of morphisms, composable ones checked."""
    out = []
    for f, g, h in itertools.product(cat.morphisms, repeat=3):
        if cat.dst(f) == cat.src(g) and cat.dst(g) == cat.src(h):
            if cat.compose(h, cat.compose(g, f)) != cat.compose(cat.compose(h, g), f):
                out.append(f"associativity fails at ({h}, {g}, {f})")
    return out


@pytest.mark.parametrize("seed", range(5))
def test_category_check_reports_associativity_as_the_triple_loop(seed):
    # two objects, three morphisms between each ordered pair, a random
    # composition table with the right endpoints, morphisms in random order
    rng = random.Random(seed)
    objects = ("A", "B")
    named = [(f"{x}{y}{k}", (x, y)) for x in objects for y in objects for k in range(3)]
    rng.shuffle(named)
    morphisms = dict(named)
    ident = {x: f"{x}{x}0" for x in objects}
    comp = {}
    for f, (a, b) in morphisms.items():
        for g, (b2, c) in morphisms.items():
            if b == b2:
                comp[(g, f)] = rng.choice([h for h, ends in morphisms.items() if ends == (a, c)])
    cat = FPCategory(objects, morphisms, comp, ident, "A", {}, {})
    expected = associativity_by_triples(cat)
    assert expected
    assert [line for line in cat.check() if line.startswith("associativity")] == expected
    # with lawful identities the table is read first, and the triples only
    # to report; a missing composite still raises as `compose` does
    for f, (a, b) in morphisms.items():
        comp[(f, ident[a])] = comp[(ident[b], f)] = f
    expected = associativity_by_triples(cat)
    assert not any(line.startswith(("right", "left")) for line in cat.check())
    assert [line for line in cat.check() if line.startswith("associativity")] == expected
    g, f = rng.choice([k for k in comp if not set(k) & set(ident.values())])
    del comp[(g, f)]
    with pytest.raises(CategoryError, match=f"^no composite of {g} after {f}$"):
        cat.check()


def products_by_hom_scans(cat):
    """The reference: the terminal and product laws, one `hom` scan per
    (w, f, g) pair."""
    out = []
    for x in cat.objects:
        if len(cat.hom(x, cat.terminal)) != 1:
            out.append(f"terminal object is not terminal from {x}")
    for (a, b), (p, pr1, pr2) in cat.products.items():
        if cat.morphisms.get(pr1) != (p, a) or cat.morphisms.get(pr2) != (p, b):
            out.append(f"projections of {a} x {b} have wrong endpoints")
            continue
        for w in cat.objects:
            for f in cat.hom(w, a):
                for g in cat.hom(w, b):
                    h = cat.pairings.get((f, g))
                    if h is None or cat.morphisms[h] != (w, p):
                        out.append(f"missing pairing <{f}, {g}>")
                        continue
                    if cat.compose(pr1, h) != f or cat.compose(pr2, h) != g:
                        out.append(f"pairing <{f}, {g}> fails the projection equations")
            for f in cat.hom(w, a):
                for g in cat.hom(w, b):
                    sols = [
                        h for h in cat.hom(w, p)
                        if cat.compose(pr1, h) == f and cat.compose(pr2, h) == g
                    ]
                    if len(sols) != 1:
                        out.append(
                            f"product {a} x {b} is not universal at ({f}, {g}): {len(sols)} mediators"
                        )
    return out


def mutated_products(cat, rng):
    """`cat` with a few of its pairings broken, extra mediators and wrong
    projections; every composite the laws read stays defined."""
    morphisms, comp = dict(cat.morphisms), dict(cat.comp)
    products, pairings = dict(cat.products), dict(cat.pairings)
    for k in range(rng.randint(0, 2)):
        # a clone of some h: w -> p, which composes as h does
        h = rng.choice(sorted(morphisms))
        w, p = morphisms[h]
        twin = f"twin{k}[{h}]"
        morphisms[twin] = (w, p)
        for (g, f), gf in list(comp.items()):
            if f == h:
                comp[(g, twin)] = twin if g == cat.ident[p] else gf
            if g == h:
                comp[(twin, f)] = twin if f == cat.ident[w] else gf
        comp[(twin, twin)] = twin
    for _ in range(rng.randint(0, 3)):
        key = rng.choice(sorted(pairings))
        if rng.random() < 0.5:
            del pairings[key]
        else:
            pairings[key] = rng.choice(sorted(morphisms))
    for _ in range(rng.randint(0, 2)):
        key = rng.choice(sorted(products))
        p, pr1, pr2 = products[key]
        kind = rng.randrange(3)
        if kind == 0:
            products[key] = (p, pr2, pr1)
        elif kind == 1:
            products[key] = (p, rng.choice(sorted(cat.hom(p, key[0]))), pr2)
        else:
            products[key] = (p, pr1, rng.choice(sorted(morphisms)))
    # the morphisms in random order: the report must not depend on it
    morphisms = dict(rng.sample(sorted(morphisms.items()), len(morphisms)))
    return FPCategory(cat.objects, morphisms, comp, cat.ident, cat.terminal, products, pairings)


def test_category_check_reports_products_as_the_hom_scans():
    # a chain, the powerset lattice of {a, b} and the subsets of a point,
    # each mutated at random: the terminal and product lines must be the
    # reference's, in its order
    subsets = ("0", "a", "b", "ab")
    bases = [
        chain_category(3),
        semilattice_category(subsets, lambda x, y: set(x) - {"0"} <= set(y) - {"0"}),
        subset01().base,
    ]
    rng = random.Random(13)
    laws = ("terminal", "projections", "missing pairing", "pairing", "product")
    reported = set()
    for _ in range(120):
        cat = mutated_products(rng.choice(bases), rng)
        expected = products_by_hom_scans(cat)
        assert [line for line in cat.check() if line.startswith(laws)] == expected
        reported.update(line.split()[0] for line in expected)
    assert reported == {"terminal", "projections", "missing", "pairing", "product"}


# --- subset doctrine --------------------------------------------------------------


def test_subset_doctrine_fiber_sizes():
    d = subset01()
    assert d.fiber("E").size == 1
    assert d.fiber("U").size == 2


def test_subset_reindex_along_unique_map_to_point():
    d = subset01()
    (f,) = d.base.hom("E", "U")
    # both subsets of the point pull back to the single element of P(empty)
    assert d.reindex[f] == (0, 0)


def test_subset_doctrine_passes_all_verifiers():
    d = subset01()
    assert d.base.check() == []
    assert verify_boolean_doctrine(d) == []
    assert verify_first_order(d) == []


def test_subset_forall_displays():
    d = subset01()
    # product with the empty factor: forall over an empty set is everything
    assert d.fa("U", "E", d.product_fiber("U", "E").bot) == d.fiber("U").top
    # nonempty factor: forall of bottom is bottom
    assert d.fa("U", "U", 0) == 0
    # top always maps to top
    for x in d.base.objects:
        for y in d.base.objects:
            assert d.fa(x, y, d.product_fiber(x, y).top) == d.fiber(x).top


def test_derive_exists_trivial_fibers():
    cat = chain_category(2)
    fibers = {x: BoolAlg(0) for x in cat.objects}
    reindex = {f: (0,) for f in cat.morphisms}
    d = Doctrine(cat, fibers, reindex)
    ex = derive_exists(d)
    for table in ex.values():
        assert table == (0,)  # bottom maps to bottom in the one-point algebra


def test_subset_exists_is_direct_image():
    # subset01 is the powerset doctrine of the sets {} and {*}; its square
    # with itself is the powerset doctrine of two disjoint copies of them, so
    # its fiber over U is the powerset of a 2-element set.  In both, the
    # derived existential must be the direct image along the first
    # projection, computed here from the underlying functions.
    sets = {"E": (), "U": ("*",)}
    _, data = finset_category(sets)
    elems, func = data["elems"], data["func"]
    d1 = subset01()
    d2, offsets = product_doctrine([d1, d1])
    for d, copies in ((d1, {x: (0,) for x in sets}), (d2, offsets)):
        ex = derive_exists(d)
        for x in d.base.objects:
            for y in d.base.objects:
                p, pr1, _ = d.base.product(x, y)
                for s in d.fiber(p).elements():
                    image = 0
                    for off_p, off_x in zip(copies[p], copies[x]):
                        for i, e in enumerate(elems[p]):
                            if (s >> (off_p + i)) & 1:
                                image |= 1 << (off_x + elems[x].index(func[pr1][e]))
                    assert ex[(x, y)][s] == image, (x, y, s)
                    # and the adjunction with reindexing along pr1
                    for c in d.fiber(x).elements():
                        assert d.fiber(x).leq(image, c) == d.fiber(p).leq(s, d.re(pr1, c))
    assert d2.fiber("U").atoms == 2


def test_forced_universal_matches_and_is_unique_adjoint():
    d = subset01()
    for x in d.base.objects:
        for y in d.base.objects:
            forced = forced_universal(d, x, y)
            assert forced == d.forall[(x, y)]
    # uniqueness among all monotone maps, on a 3-atom fiber
    src, dst = BoolAlg(1), BoolAlg(3)
    h = BAHom(src, dst, (0, 0, 0))
    forced = right_adjoint_of(src, dst, h)
    adjoints = []
    for table in monotone_maps(dst, src):
        if all(
            src.leq(a, table[b]) == dst.leq(h(a), b)
            for a in src.elements()
            for b in dst.elements()
        ):
            adjoints.append(table)
    assert adjoints == [forced]


def test_verifier_pinpoints_corrupted_reindexing():
    d = subset01()
    name = d.base.ident["U"]
    bad_tables = dict(d.reindex)
    table = list(bad_tables[name])
    table[1] = 0
    bad_tables[name] = tuple(table)
    d2 = d.with_tables(reindex=bad_tables)
    violations = verify_boolean_doctrine(d2)
    assert violations
    for v in violations:
        line = v.line()
        assert name in line or "obj=U" in line, line


def test_verifier_pinpoints_corrupted_quantifier():
    d = subset01()
    bad = dict(d.forall)
    bad[("U", "U")] = (1, 1)  # forall(bot) = top is not an adjoint
    d2 = d.with_tables(forall=bad)
    violations = verify_first_order(d2)
    kinds = {v.kind for v in violations}
    assert kinds & {"forall-unit", "forall-counit", "forall-monotone"}
    assert any(("X", "U") in v.data for v in violations)
    assert "forall-not-adjoint" in kinds


def test_identity_quantifier_on_nontrivial_fiber_fails():
    # replacing a genuine quantifier by the identity breaks unit or counit
    cat = terminal_category("T")
    b = BoolAlg(2)
    d = hbx_doctrine(cat, "T", b)
    # the only diagram is (T, T) and its quantifier is the identity already;
    # corrupt it into a non-adjoint instead
    bad = dict(d.forall)
    bad[("T", "T")] = tuple(b.neg(v) for v in range(b.size))
    violations = verify_first_order(d.with_tables(forall=bad))
    assert violations


def test_one_object_terminal_base_with_two_element_fiber_passes():
    cat = terminal_category("T")
    d = hbx_doctrine(cat, "T", BoolAlg(1))
    assert verify_boolean_doctrine(d) == []
    assert verify_first_order(d) == []


# --- hom-power doctrines -----------------------------------------------------------


def test_hbx_over_terminal_base_is_the_algebra():
    cat = terminal_category("T")
    b = BoolAlg(2)
    d = hbx_doctrine(cat, "T", b)
    assert d.fiber("T").size == b.size
    table = d.forall[("T", "T")]
    assert table == tuple(b.elements())  # single hom element: identity quantifier


def test_hbx_over_chain_passes_first_order():
    for n in (2, 3):
        cat = chain_category(n)
        for x in cat.objects:
            d = hbx_doctrine(cat, x, BoolAlg(2))
            assert verify_boolean_doctrine(d) == []
            assert verify_first_order(d) == []


def _elementwise_subset_tables(sets):
    """The reindexing, universal and diagonal tables of the powerset
    doctrine, filled element by element from the set-theoretic definitions."""
    cat, data = finset_category(sets)
    elems, func, decode = data["elems"], data["func"], data["decode"]

    def mask_of(obj, subset):
        return sum(1 << i for i, e in enumerate(elems[obj]) if e in subset)

    def set_of(obj, mask):
        return {e for i, e in enumerate(elems[obj]) if (mask >> i) & 1}

    reindex = {}
    for f, (x, y) in cat.morphisms.items():
        reindex[f] = tuple(
            mask_of(x, {e for e in elems[x] if func[f][e] in set_of(y, b)})
            for b in range(1 << len(elems[y]))
        )
    forall = {}
    for a in cat.objects:
        for b in cat.objects:
            p, _, _ = cat.product(a, b)
            dec = decode[(a, b)]
            table = []
            for s in range(1 << len(elems[p])):
                sset = set_of(p, s)
                table.append(
                    mask_of(a, {x for x in elems[a]
                                if all(pt in sset for pt in elems[p] if dec[pt][0] == x)})
                )
            forall[(a, b)] = tuple(table)
    delta = {}
    for x in cat.objects:
        p, _, _ = cat.product(x, x)
        dec = decode[(x, x)]
        delta[x] = mask_of(p, {pt for pt in elems[p] if dec[pt][0] == dec[pt][1]})
    return reindex, forall, delta


def _elementwise_hbx_tables(base, x, b):
    """The reindexing and universal tables of hbx_doctrine, filled element
    by element: precomposition, and pointwise meets over the pairings."""
    homs = {y: base.hom(x, y) for y in base.objects}
    width = b.atoms

    def value(mask, idx):
        return (mask >> (idx * width)) & b.top

    def build(values):
        return sum(v << (i * width) for i, v in enumerate(values))

    reindex = {}
    for f, (z, y) in base.morphisms.items():
        idx_y = {h: i for i, h in enumerate(homs[y])}
        reindex[f] = tuple(
            build([value(g, idx_y[base.compose(f, k)]) for k in homs[z]])
            for g in range(1 << (len(homs[y]) * width))
        )
    forall = {}
    for y in base.objects:
        for z in base.objects:
            p, _, _ = base.product(y, z)
            idx_p = {h: i for i, h in enumerate(homs[p])}
            forall[(y, z)] = tuple(
                build([b.meet_all(value(g, idx_p[base.pair(f, h)]) for h in homs[z]) for f in homs[y]])
                for g in range(1 << (len(homs[p]) * width))
            )
    return reindex, forall


def test_subset_doctrine_tables_match_the_elementwise_definitions():
    for sets in ({"E": (), "U": ("*",)}, {"U": ("*",)}):
        d = subset_doctrine(sets)
        assert d.base.check() == []
        reindex, forall, delta = _elementwise_subset_tables(sets)
        assert d.reindex == reindex
        assert d.forall == forall
        assert d.delta == delta


def test_hbx_doctrine_tables_match_the_elementwise_definitions():
    bases = [chain_category(n) for n in range(1, 6)] + [terminal_category("T")]
    cases = 0
    for base in bases:
        assert base.check() == []
        for x in base.objects:
            for atoms in range(7):
                d = hbx_doctrine(base, x, BoolAlg(atoms))
                reindex, forall = _elementwise_hbx_tables(base, x, BoolAlg(atoms))
                assert d.reindex == reindex, (x, atoms)
                assert d.forall == forall, (x, atoms)
                assert d.delta is None
                cases += 1
    assert cases == 112


def test_hbx_forall_of_constant_top():
    cat = chain_category(2)
    d = hbx_doctrine(cat, "c1", BoolAlg(2))
    for x in cat.objects:
        for y in cat.objects:
            p = cat.product(x, y)[0]
            assert d.fa(x, y, d.fiber(p).top) == d.fiber(x).top


# --- embedding ----------------------------------------------------------------------


def test_embedding_one_object_base():
    cat = terminal_category("T")
    b = BoolAlg(2)
    d = Doctrine(cat, {"T": b}, {cat.ident["T"]: tuple(b.elements())})
    m = embedding_morphism(d)
    assert injectivity_report(m) == []
    assert verify_morphism(m, "boolean") == []
    # one hom element: the target fiber is the algebra itself
    assert m.target.fiber("T").size == b.size


def test_embedding_subset_doctrine():
    d = subset01()
    m = embedding_morphism(d)
    assert injectivity_report(m) == []
    assert verify_morphism(m, "boolean") == []
    assert verify_first_order(m.target) == []


def test_embedding_random_doctrines():
    rng = random.Random(42)
    for _ in range(15):
        d = random_doctrine(rng)
        assert verify_boolean_doctrine(d) == []
        m = embedding_morphism(d)
        assert injectivity_report(m) == []
        assert verify_morphism(m, "boolean") == []
        assert verify_first_order(m.target) == []


def test_embedding_components_evaluate_at_identities():
    # the component at Y, restricted to the block of Y's own identity,
    # reproduces the element: that is the injectivity witness
    d = subset01()
    m = embedding_morphism(d)
    for y in d.base.objects:
        ident = d.base.ident[y]
        homs = d.base.hom(y, y)
        idx = homs.index(ident)
        width = d.fiber(y).atoms
        offset = sum(
            d.fiber(x).atoms * len(d.base.hom(x, y))
            for x in d.base.objects[: d.base.objects.index(y)]
        )
        for gamma in d.fiber(y).elements():
            block = (m.apply(y, gamma) >> (offset + idx * width)) & d.fiber(y).top
            assert block == gamma


# --- morphism verification ------------------------------------------------------------


def test_identity_morphism_passes_all_levels():
    from doctrina.doctrine import DoctrineMorphism

    d = subset01()
    m = DoctrineMorphism(
        d, d, identity_functor(d.base),
        {x: tuple(d.fiber(x).elements()) for x in d.base.objects},
    )
    assert verify_morphism(m, "boolean") == []
    assert verify_morphism(m, "first-order") == []
    assert verify_morphism(m, "elementary") == []


def test_morphism_with_bad_component_is_reported():
    from doctrina.doctrine import DoctrineMorphism

    d = subset01()
    comps = {x: tuple(d.fiber(x).elements()) for x in d.base.objects}
    comps["U"] = (0, 0)  # not a homomorphism: top not preserved
    m = DoctrineMorphism(d, d, identity_functor(d.base), comps)
    assert report_lines(verify_morphism(m, "boolean")) == [
        "VIOLATION component-neg X=U elem=0",
        "VIOLATION component-neg X=U elem=1",
        "VIOLATION component-top X=U",
    ]


# --- elementarity ----------------------------------------------------------------------


def test_subset_fibered_equalities_are_diagonals():
    d = subset01()
    family = find_fibered_equalities(d)
    assert family == d.delta
    assert verify_elementary(d, family) == []


def test_trivial_fibers_delta_is_top():
    cat = chain_category(2)
    fibers = {x: BoolAlg(0) for x in cat.objects}
    reindex = {f: (0,) for f in cat.morphisms}
    d = Doctrine(cat, fibers, reindex)
    family = find_fibered_equalities(d)
    assert family == {x: 0 for x in cat.objects}


def test_corrupted_delta_is_caught():
    d = subset01()
    bad = dict(d.delta)
    bad["U"] = 0  # empty relation is not reflexive
    violations = verify_elementary(d, bad)
    kinds = {v.kind for v in violations}
    assert "delta-reflexivity" in kinds


def test_delta_adjoint_form_detects_corruption():
    cat = terminal_category("T")
    d = hbx_doctrine(cat, "T", BoolAlg(2))
    ok = find_fibered_equalities(d)
    assert ok is not None
    violations = verify_elementary(d, {"T": 1})  # a non-top candidate
    assert violations


def test_delta_uniqueness_per_object():
    # the principal upset determines at most one candidate
    for build in (subset01, lambda: hbx_doctrine(chain_category(2), "c1", BoolAlg(2))):
        d = build()
        for x in d.base.objects:
            p, _, _ = d.base.product(x, x)
            diag = d.base.diagonal(x)
            upset = [b for b in d.fiber(p).elements() if d.re(diag, b) == d.fiber(x).top]
            meets = [c for c in upset if all(d.fiber(p).leq(c, b) for b in upset)]
            assert len(meets) <= 1


# --- quotients --------------------------------------------------------------------------


def test_quotient_by_trivial_filter_is_isomorphic():
    d = subset01()
    q, m = quotient_by_filter(d, {d.fiber(d.base.terminal).top})
    assert {x: q.fiber(x).size for x in q.base.objects} == {
        x: d.fiber(x).size for x in d.base.objects
    }
    assert verify_first_order(q) == []
    assert verify_morphism(m, "boolean") == []


def test_quotient_by_full_filter_is_degenerate():
    d = subset01()
    q, _ = quotient_by_filter(d, set(d.fiber(d.base.terminal).elements()))
    assert all(q.fiber(x).size == 1 for x in q.base.objects)


def test_quotient_lattice_matches_filter_lattice():
    # a four-element terminal fiber: filters are the principal upsets, and the
    # quotient sizes are exactly the generator sizes
    d1 = subset01()
    d, _ = product_doctrine([d1, d1])
    term = d.base.terminal
    alg = d.fiber(term)
    assert alg.size == 4
    quotients = {}
    sizes = {}
    for c in alg.elements():
        filt = frozenset(b for b in alg.elements() if alg.leq(c, b))
        q, m = quotient_by_filter(d, filt)
        assert verify_first_order(q) == []
        assert verify_morphism(m, "boolean") == []
        # the congruence is the kernel of the quotient morphism
        quotients[c] = tuple(m.components[x] for x in q.base.objects)
        sizes[c] = tuple(q.fiber(x).size for x in q.base.objects)
    assert len(set(quotients.values())) == alg.size
    # a smaller generator means a bigger filter, hence a more collapsed quotient
    for c1 in alg.elements():
        for c2 in alg.elements():
            if alg.leq(c1, c2):
                assert all(a <= b for a, b in zip(sizes[c1], sizes[c2]))


def test_quotient_rejects_non_filter():
    d = subset01()
    with pytest.raises(DoctrineError):
        quotient_by_filter(d, {0})


# --- change of base -----------------------------------------------------------------------


def test_change_of_base_identity():
    d = subset01()
    out = change_of_base(d, identity_functor(d.base))
    assert out.fibers == d.fibers
    assert out.reindex == d.reindex
    assert verify_first_order(out) == []


def test_change_of_base_constant_functor():
    cat = chain_category(2)
    d = hbx_doctrine(cat, "c1", BoolAlg(2))
    src = terminal_category("T")
    m = Functor(
        src,
        cat,
        {"T": "c2"},
        {src.ident["T"]: cat.ident["c2"]},
    )
    out = change_of_base(d, m)
    assert out.fiber("T") == d.fiber("c2")
    assert verify_first_order(out) == []


def test_change_of_base_between_chains():
    # embed the 2-chain into the 3-chain preserving meets and the top
    c2, c3 = chain_category(2), chain_category(3)
    obj_map = {"c1": "c1", "c2": "c3"}
    mor_map = {}
    for f, (a, b) in c2.morphisms.items():
        mor_map[f] = f"le[{obj_map[a]}<={obj_map[b]}]"
    m = Functor(c2, c3, obj_map, mor_map)
    assert m.check() == []
    d = hbx_doctrine(c3, "c1", BoolAlg(2))
    out = change_of_base(d, m)
    assert verify_boolean_doctrine(out) == []
    assert verify_first_order(out) == []


def test_change_of_base_rejects_malformed_functor():
    c2 = chain_category(2)
    d = hbx_doctrine(c2, "c1", BoolAlg(1))
    bad = Functor(c2, c2, {"c1": "c1", "c2": "c1"}, {f: c2.ident["c1"] for f in c2.morphisms})
    with pytest.raises(DoctrineError):
        change_of_base(d, bad)


# --- pinned outputs -------------------------------------------------------------------------


def _pinned_doctrines():
    rng = random.Random(2024)
    out = []
    for i in range(4):
        n = 1 + i % 3
        out.append(hbx_doctrine(chain_category(n), f"c{rng.randint(1, n)}", BoolAlg(rng.randint(1, 2))))
    for _ in range(4):
        d = random_doctrine(rng, 3, 2)
        out.append(d.with_tables(forall=all_forced_universals(d)))
    mutants = []
    for d in out:
        mutants.append(one_entry_mutant(rng, d, "reindex"))
        mutants.append(one_entry_mutant(rng, d, "forall"))
    return out + mutants


def test_verify_doctrine_reports_are_pinned(capsys):
    # exit code and stdout of every level, on seeded hbx and random doctrines
    # and one-entry mutants of their reindexing and universal tables
    from doctrina import sexpr
    from doctrina.cli import main
    from doctrina.doctrine import full_marking

    lines = []
    for d in _pinned_doctrines():
        text = sexpr.doctrine_sexpr(d)
        bounds = {x: frozenset({0, d.fiber(x).top}) for x in d.base.objects}
        for level in ("boolean", "first-order", "elementary"):
            lines.append(f"{main(['verify-doctrine', text, '--level', level])}")
            lines.append(capsys.readouterr().out)
        for marking in (full_marking(d), bounds):
            m = sexpr.marking_sexpr(marking)
            for level in ("qff", "one-step", "stratified"):
                lines.append(f"{main(['verify-doctrine', text, '--level', level, '--marking', m])}")
                lines.append(capsys.readouterr().out)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "fe1157bb14aebd1b10597956e702cb8a3e20526e55f0e5a0af9d643f03544031"


def _table_text(d):
    return repr((
        sorted((x, alg.atoms) for x, alg in d.fibers.items()),
        sorted(d.reindex.items()),
        sorted(d.forall.items()) if d.forall is not None else None,
        sorted(d.delta.items()) if d.delta is not None else None,
    ))


def test_quotients_and_subdoctrines_are_pinned():
    # the tables of every quotient of a four-element terminal fiber (and of
    # subset01's, which carries equalities) with the quotient components, and
    # of a subdoctrine re-atomized from a generated marking with its transport
    from doctrina.doctrine import generated_markings, subdoctrine_from_markings

    lines = []
    d1 = subset01()
    for d in (d1, product_doctrine([d1, d1])[0]):
        alg = d.fiber(d.base.terminal)
        for c in alg.elements():
            q, m = quotient_by_filter(d, frozenset(b for b in alg.elements() if alg.leq(c, b)))
            lines.append(_table_text(q))
            lines.append(repr(sorted(m.components.items())))
    rng = random.Random(7)
    for d in (hbx_doctrine(chain_category(3), "c2", BoolAlg(2)), product_doctrine([d1, d1])[0]):
        seed = {x: frozenset({rng.randrange(d.fiber(x).size)}) for x in d.base.objects}
        marking = generated_markings(d, seed)
        sub, maps = subdoctrine_from_markings(d, marking)
        lines.append(_table_text(sub))
        lines.append(repr(sorted(maps["blocks"].items())))
        for x in d.base.objects:
            lines.append(repr([maps["encode"](x, a) for a in d.fiber(x).elements()]))
            lines.append(repr([maps["decode"](x, q) for q in sub.fiber(x).elements()]))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "8acf37ee818fefad647a6a4be43beb5b01ebd02c14ead9c290e67948fc85a4ef"
