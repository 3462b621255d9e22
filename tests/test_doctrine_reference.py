"""Differential test of `verify_first_order` against the whole-doctrine
comparison `verify-doctrine` ran after it, kept here as the reference: every
entry of every carried universal table against the forced adjoint."""

import random

from doctrina.boolalg import BoolAlg
from doctrina.category import chain_category
from doctrina.doctrine import (
    all_forced_universals,
    forced_universal,
    hbx_doctrine,
    random_doctrine,
    report_lines,
    verify_boolean_doctrine,
    verify_first_order,
    violation,
)

from helpers import one_entry_mutant
from test_doctrine import _pinned_doctrines


def reference_check_forall_tables(d):
    out = []
    if d.forall is None:
        return out
    for (x, y), table in sorted(d.forall.items()):
        forced = forced_universal(d, x, y)
        for b, got in enumerate(table):
            if got != forced[b]:
                out.append(violation("forall-not-adjoint", X=x, Y=y, elem=b))
    return out


def _cases():
    yield from _pinned_doctrines()
    drawn = []
    for n in range(1, 5):
        for x in chain_category(n).objects:
            for k in range(1, 4):
                drawn.append(hbx_doctrine(chain_category(n), x, BoolAlg(k)))
    rng = random.Random(18)
    for _ in range(200):
        d = random_doctrine(rng, 3, 3)
        drawn.append(d.with_tables(forall=all_forced_universals(d)))
    yield from drawn
    for _ in range(2):
        for d in drawn:
            if any(d.fiber(x).atoms for x in d.base.objects):
                yield one_entry_mutant(rng, d, "forall")


def test_verify_first_order_adds_exactly_the_reference_comparison():
    # the adjunction laws decide; the comparison only locates the entries,
    # so the lines other than forall-not-adjoint are those of the laws alone
    checked = located = 0
    for d in _cases():
        if verify_boolean_doctrine(d):
            continue
        got = verify_first_order(d)
        laws = [v for v in got if v.kind != "forall-not-adjoint"]
        reference = reference_check_forall_tables(d)
        assert report_lines(got) == report_lines(laws + reference)
        # a table differs from the forced adjoint exactly where it breaks a law
        broken = {v.data[:2] for v in laws if v.kind in ("forall-monotone", "forall-unit", "forall-counit")}
        assert {v.data[:2] for v in reference} == broken
        checked += 1
        located += bool(reference)
    assert checked >= 700 and located >= 400, (checked, located)
