"""Differential test of the doctrine verifiers against their per-entry
loops, kept here as the reference: `verify_boolean_doctrine` and
`verify_first_order` decide each table law on whole tables and enumerate
entries only for a table that fails, so they must report exactly what
enumerating every entry of every table reports, in the same order."""

import random

from doctrina.boolalg import BAHom, BoolAlg, _preserves_joins, right_adjoint_of
from doctrina.category import chain_category
from doctrina.doctrine import (
    all_forced_universals,
    hbx_doctrine,
    random_doctrine,
    verify_boolean_doctrine,
    verify_first_order,
    violation,
)

from helpers import one_entry_mutant
from test_doctrine import _pinned_doctrines


def reference_hom_violations(src, dst, table):
    out = []
    if table[src.top] != dst.top:
        out.append(("top", {}))
    if table[src.bot] != dst.bot:
        out.append(("bottom", {}))
    for a in src.elements():
        if table[src.neg(a)] != dst.neg(table[a]):
            out.append(("neg", {"elem": a}))
    for a in src.elements():
        for b in range(a, src.size):
            if table[a & b] != table[a] & table[b]:
                out.append(("meet", {"left": a, "right": b}))
            if table[a | b] != table[a] | table[b]:
                out.append(("join", {"left": a, "right": b}))
    return out


def reference_verify_boolean_doctrine(d):
    out = []
    cat = d.base
    for f, (x, y) in sorted(cat.morphisms.items()):
        table = d.reindex.get(f)
        if table is None or len(table) != d.fiber(y).size:
            out.append(violation("reindex-table", f=f))
            continue
        for law, where in reference_hom_violations(d.fiber(y), d.fiber(x), table):
            out.append(violation("reindex-" + law, f=f, **where))
    for x in cat.objects:
        table = d.reindex.get(cat.ident[x])
        if table is None:
            continue
        for a in d.fiber(x).elements():
            if table[a] != a:
                out.append(violation("identity-law", obj=x, elem=a))
    for (g, f), h in sorted(cat.comp.items()):
        tf, tg, th = d.reindex.get(f), d.reindex.get(g), d.reindex.get(h)
        if tf is None or tg is None or th is None:
            continue
        for a in d.fiber(cat.dst(g)).elements():
            if tf[tg[a]] != th[a]:
                out.append(violation("composition-law", f=f, g=g, elem=a))
    return out


def reference_forced_universal(d, x, y):
    """The right adjoint of reindexing along pr1, by its definition: the
    join of every element whose reindexing lies below the argument."""
    _, pr1, _ = d.base.product(x, y)
    ax, ap = d.fiber(x), d.product_fiber(x, y)
    return tuple(ax.join_all(a for a in ax.elements() if ap.leq(d.re(pr1, a), b)) for b in ap.elements())


def reference_verify_first_order(d):
    out = []
    cat = d.base
    tables = d.universal_tables()
    for x in cat.objects:
        for y in cat.objects:
            table = tables.get((x, y))
            if table is None:
                out.append(violation("forall-missing", X=x, Y=y))
                continue
            p, pr1, _ = cat.product(x, y)
            ax, ap = d.fiber(x), d.fiber(p)
            if len(table) != ap.size:
                out.append(violation("forall-table", X=x, Y=y))
                continue
            before = len(out)
            for b in ap.elements():
                for b2 in ap.elements():
                    if ap.leq(b, b2) and not ax.leq(table[b], table[b2]):
                        out.append(violation("forall-monotone", X=x, Y=y, left=b, right=b2))
            for a in ax.elements():
                if not ax.leq(a, table[d.re(pr1, a)]):
                    out.append(violation("forall-unit", X=x, Y=y, elem=a))
            for b in ap.elements():
                if not ap.leq(d.re(pr1, table[b]), b):
                    out.append(violation("forall-counit", X=x, Y=y, elem=b))
            if len(out) > before:
                forced = reference_forced_universal(d, x, y)
                out += [violation("forall-not-adjoint", X=x, Y=y, elem=b)
                        for b, got in enumerate(table) if got != forced[b]]
    for f, (x1, x) in sorted(cat.morphisms.items()):
        for y in cat.objects:
            t_upper = tables.get((x, y))
            t_lower = tables.get((x1, y))
            if t_upper is None or t_lower is None:
                continue
            fxid = cat.times_id(f, y)
            for b in d.product_fiber(x, y).elements():
                if d.re(f, t_upper[b]) != t_lower[d.re(fxid, b)]:
                    out.append(violation("beck-chevalley", f=f, Y=y, elem=b))
    return out


def _cases():
    yield from _pinned_doctrines()
    drawn = []
    for n in range(1, 5):
        for x in chain_category(n).objects:
            for k in range(1, 4):
                drawn.append(hbx_doctrine(chain_category(n), x, BoolAlg(k)))
    rng = random.Random(19)
    for _ in range(200):
        d = random_doctrine(rng, 3, 3)
        drawn.append(d.with_tables(forall=all_forced_universals(d)))
    yield from drawn
    for d in drawn:
        if any(d.fiber(x).atoms for x in d.base.objects):
            yield one_entry_mutant(rng, d, "reindex")
            yield one_entry_mutant(rng, d, "forall")


def test_verifiers_report_exactly_what_the_per_entry_loops_report():
    kinds = {}
    cases = 0
    for d in _cases():
        got = verify_boolean_doctrine(d)
        assert got == reference_verify_boolean_doctrine(d)
        first_order = verify_first_order(d)
        assert first_order == reference_verify_first_order(d)
        for v in got + first_order:
            kinds[v.kind] = kinds.get(v.kind, 0) + 1
        cases += 1
    assert cases >= 700, cases
    # every enumeration that a whole-table test can skip is reached
    for kind in ("reindex-join", "identity-law", "composition-law", "forall-monotone",
                 "forall-unit", "forall-counit", "forall-not-adjoint", "beck-chevalley"):
        assert kinds.get(kind, 0) > 0, (kind, kinds)


def reference_preserves_joins(table, size):
    return table[0] == 0 and all(
        table[a] == table[a & (a - 1)] | table[a & -a] for a in range(1, size)
    )


def test_preserves_joins_and_right_adjoint_match_their_definitions():
    rng = random.Random(19)
    seen = {True: 0, False: 0}
    for _ in range(3000):
        src, dst = BoolAlg(rng.randint(0, 4)), BoolAlg(rng.randint(1, 4))
        kind = rng.choice(("hom", "mutant", "random"))
        if kind == "random":
            table = [rng.randrange(dst.size) for _ in src.elements()]
        else:
            atom_map = tuple(rng.randrange(src.atoms) for _ in range(dst.atoms)) if src.atoms else ()
            table = list(BAHom(src, BoolAlg(len(atom_map)), atom_map).table())
            if kind == "mutant":
                table[rng.randrange(src.size)] ^= rng.randint(1, dst.top)
        expected = reference_preserves_joins(table, src.size)
        assert _preserves_joins(table, src) == expected
        seen[expected] += 1
        reference = tuple(src.join_all(a for a in src.elements() if dst.leq(table[a], b))
                          for b in dst.elements())
        assert right_adjoint_of(src, dst, table.__getitem__) == reference
    assert min(seen.values()) > 500, seen
