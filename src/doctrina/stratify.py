"""Quantifier-free fragments and quantifier-alternation stratification.

A marking assigns to each base object a subset of its fiber.  A marking is a
quantifier-free fragment when it is a Boolean subfunctor (closed under the
Boolean operations and reindexing) and generates the whole doctrine by
alternating Boolean closure with universal quantification.  Stratifying
produces the increasing sequence of layers with its one-step quantifiers;
the colimit rebuilds the ambient doctrine, and the two are mutually inverse
on finite instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolalg import boolean_closure
from .doctrine import (
    Doctrine,
    DoctrineError,
    Marking,
    QuantTable,
    Violation,
    layer_step,
    violation,
)


def check_submarking(d: Doctrine, marking: Marking, label: str = "P0") -> list[Violation]:
    """Subfunctor conditions: Boolean-subalgebra per fiber, closed under
    reindexing; and no marked object the doctrine lacks.  A fiber is
    checked pair by pair only when it is not its own Boolean closure."""
    out = [violation("marking-unknown", level=label, X=x)
           for x in sorted(marking) if x not in d.base.objects]
    for x in d.base.objects:
        alg = d.fiber(x)
        members = marking.get(x)
        if members is None:
            out.append(violation("marking-missing", level=label, X=x))
            continue
        # a fiber closed under the Boolean operations is its own closure,
        # decided on the atoms of the subalgebra it generates
        if members == boolean_closure(alg, members):
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


def compute_layers(d: Doctrine, marking: Marking) -> list[Marking]:
    """Iterate the generation step until two consecutive markings agree.
    Termination is guaranteed by the finiteness of the fibers."""
    tables = d.universal_tables()
    levels = [dict(marking)]
    while True:
        nxt = layer_step(d, levels[-1], tables)
        if nxt == levels[-1]:
            return levels
        levels.append(nxt)


def _qff_layers(d: Doctrine, marking: Marking) -> tuple[list[Violation], list[Marking]]:
    """The violations of `verify_qff` and, when the marking is a subfunctor,
    its layers."""
    for f in d.base.morphisms:
        if f not in d.reindex:
            raise DoctrineError(f"no reindexing table for {f}")
    tables = d.universal_tables()
    missing = [(x, y) for x in d.base.objects for y in d.base.objects if (x, y) not in tables]
    if missing:
        raise DoctrineError("no universal table for {} x {}".format(*missing[0]))
    out = check_submarking(d, marking)
    if out:
        return out, []
    levels = compute_layers(d, marking)
    for n in range(len(levels) - 1):
        for x in d.base.objects:
            if not levels[n][x] <= levels[n + 1][x]:
                out.append(violation("layer-monotonicity", level=n, X=x))
    top_level = levels[-1]
    for x in d.base.objects:
        missing = set(d.fiber(x).elements()) - set(top_level[x])
        for a in sorted(missing):
            out.append(violation("generation", X=x, elem=a))
    return out, levels


def verify_qff(d: Doctrine, marking: Marking) -> list[Violation]:
    """Subfunctor plus generation: the stabilized union of the layers must
    exhaust every fiber, and the layers must be monotone along the way.
    Raises if the doctrine lacks a reindexing or universal table."""
    return _qff_layers(d, marking)[0]


@dataclass
class StratifiedSequence:
    """The stabilized sequence of layers of a quantifier-free fragment,
    inside its ambient doctrine.  The one-step quantifiers are the
    restrictions of the ambient ones to each layer."""

    ambient: Doctrine
    levels: tuple[Marking, ...]

    @property
    def stabilization_index(self) -> int:
        return len(self.levels) - 1

    def level(self, n: int) -> Marking:
        return self.levels[min(n, len(self.levels) - 1)]

    def one_step(self, n: int, x: str, y: str) -> dict[int, int]:
        tables = self.ambient.universal_tables()
        p = self.ambient.base.product(x, y)[0]
        return {b: tables[(x, y)][b] for b in sorted(self.level(n)[p])}


class FragmentError(DoctrineError):
    """A marking that is not a quantifier-free fragment, with every
    violation `verify_qff` reports for it."""

    def __init__(self, violations: list[Violation]):
        super().__init__(
            "marking is not a quantifier-free fragment: " + "; ".join(v.line() for v in violations[:5])
        )
        self.violations = violations


def stratify(d: Doctrine, marking: Marking) -> StratifiedSequence:
    """The layers of a quantifier-free fragment.  Raises `FragmentError`
    when the marking is not one, and `DoctrineError` when the doctrine
    lacks a reindexing or universal table."""
    errs, levels = _qff_layers(d, marking)
    if errs:
        raise FragmentError(errs)
    return StratifiedSequence(d, tuple(levels))


def colimit(s: StratifiedSequence) -> tuple[Doctrine, Marking]:
    """Rebuild the ambient doctrine from the layers: fibers are the unions,
    and each quantifier table is assembled from the one-step quantifiers."""
    d = s.ambient
    top = s.levels[-1]
    for x in d.base.objects:
        if set(top[x]) != set(d.fiber(x).elements()):
            raise DoctrineError("sequence is not stabilized at the full fibers")
    forall: QuantTable = {}
    for x in d.base.objects:
        for y in d.base.objects:
            p = d.base.product(x, y)[0]
            table = {}
            for n in range(len(s.levels)):
                for b, u in s.one_step(n, x, y).items():
                    table.setdefault(b, u)
            forall[(x, y)] = tuple(table[b] for b in d.fiber(p).elements())
    rebuilt = Doctrine(
        d.base,
        dict(d.fibers),
        dict(d.reindex),
        forall=forall,
        delta=dict(d.delta) if d.delta is not None else None,
    )
    return rebuilt, dict(s.levels[0])


def verify_one_step(d: Doctrine, p0: Marking, p1: Marking) -> list[Violation]:
    """One-step universal, one-step Beck-Chevalley, and one-step generation
    for a pair of markings inside an ambient doctrine.  The one-step
    quantifier of each product diagram is the ambient one restricted to p0.
    """
    out: list[Violation] = []
    out += check_submarking(d, p0, "P0")
    out += check_submarking(d, p1, "P1")
    for x in d.base.objects:
        if not p0.get(x, frozenset()) <= p1.get(x, frozenset()):
            out.append(violation("inclusion", X=x))
    if out:
        return out
    # P0 passed its check, so it is closed under reindexing: every entry
    # read below, the fxid-reindexed ones included, is the quantifier of an
    # element of P0
    tables = d.universal_tables()
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
                lhs = tables[(x1, y)][d.re(fxid, b)]
                rhs = d.re(f, tables[(x, y)][b])
                if lhs != rhs:
                    out.append(violation("one-step-beck-chevalley", f=f, Y=y, elem=b))
    generated = layer_step(d, p0, tables)
    for x in d.base.objects:
        if generated[x] != p1[x]:
            out.append(violation("one-step-generation", X=x))
    return out


def verify_qa_stratified(s: StratifiedSequence) -> list[Violation]:
    """The QA-stratified axioms: every adjacent pair is a one-step doctrine
    and the one-step quantifiers agree where the layers overlap.  The
    layers `stratify` builds satisfy them over a first-order doctrine."""
    out: list[Violation] = []
    for n in range(len(s.levels) - 1):
        errs = verify_one_step(s.ambient, s.levels[n], s.levels[n + 1])
        out += [Violation(f"level{n}-" + v.kind, v.data) for v in errs]
    for n in range(len(s.levels) - 1):
        for x in s.ambient.base.objects:
            for y in s.ambient.base.objects:
                lower = s.one_step(n, x, y)
                upper = s.one_step(n + 1, x, y)
                for b, u in lower.items():
                    if upper.get(b) != u:
                        out.append(violation("one-step-compatibility", level=n, X=x, Y=y, elem=b))
    return out
