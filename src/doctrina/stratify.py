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
from typing import Optional

from .boolalg import boolean_closure
from .doctrine import (
    Doctrine,
    DoctrineError,
    Marking,
    QuantTable,
    Violation,
    all_forced_universals,
    violation,
)


def check_submarking(d: Doctrine, marking: Marking, label: str = "P0") -> list[Violation]:
    """Subfunctor conditions: Boolean-subalgebra per fiber, closed under
    reindexing."""
    out: list[Violation] = []
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


def layer_step(d: Doctrine, marking: Marking, tables: QuantTable) -> Marking:
    """One generation step: Boolean closure of all universal quantifications
    of marked elements over every chosen product diagram."""
    out: Marking = {}
    for x in d.base.objects:
        gens: set[int] = set()
        for y in d.base.objects:
            p = d.base.product(x, y)[0]
            for b in marking[p]:
                gens.add(tables[(x, y)][b])
        out[x] = boolean_closure(d.fiber(x), gens)
    return out


def compute_layers(d: Doctrine, marking: Marking) -> list[Marking]:
    """Iterate the generation step until two consecutive markings agree.
    Termination is guaranteed by the finiteness of the fibers."""
    tables = d.forall if d.forall is not None else all_forced_universals(d)
    levels = [dict(marking)]
    while True:
        nxt = layer_step(d, levels[-1], tables)
        if nxt == levels[-1]:
            return levels
        levels.append(nxt)


def verify_qff(d: Doctrine, marking: Marking) -> list[Violation]:
    """Subfunctor plus generation: the stabilized union of the layers must
    exhaust every fiber, and the layers must be monotone along the way."""
    out = check_submarking(d, marking)
    if out:
        return out
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
    return out


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
        tables = self.ambient.forall if self.ambient.forall is not None else all_forced_universals(self.ambient)
        p = self.ambient.base.product(x, y)[0]
        return {b: tables[(x, y)][b] for b in sorted(self.level(n)[p])}


def stratify(d: Doctrine, marking: Marking) -> StratifiedSequence:
    errs = verify_qff(d, marking)
    if errs:
        raise DoctrineError(
            "marking is not a quantifier-free fragment: " + "; ".join(v.line() for v in errs[:5])
        )
    levels = compute_layers(d, marking)
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
        forall,
        None,
        dict(d.delta) if d.delta is not None else None,
    )
    return rebuilt, dict(s.levels[0])


def verify_one_step(
    d: Doctrine,
    p0: Marking,
    p1: Marking,
    tables: Optional[dict[tuple[str, str], dict[int, int]]] = None,
) -> list[Violation]:
    """One-step universal, one-step Beck-Chevalley, and one-step generation
    for a pair of markings inside an ambient doctrine.

    `tables` gives, per product diagram, the one-step quantifier as a map
    from marked elements of the product fiber; by default the ambient
    quantifier restricted to p0.
    """
    out: list[Violation] = []
    out += check_submarking(d, p0, "P0")
    out += check_submarking(d, p1, "P1")
    for x in d.base.objects:
        if not p0.get(x, frozenset()) <= p1.get(x, frozenset()):
            out.append(violation("inclusion", X=x))
    if out:
        return out
    ambient = d.forall if d.forall is not None else all_forced_universals(d)
    if tables is None:
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
                u = table.get(b)
                if u is None or u not in p1[x]:
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
    for x in d.base.objects:
        gens = set()
        for y in d.base.objects:
            p = d.base.product(x, y)[0]
            gens |= {tables[(x, y)][b] for b in p0[p]}
        generated = boolean_closure(d.fiber(x), gens)
        if generated != p1[x]:
            out.append(violation("one-step-generation", X=x))
    return out


def verify_qa_stratified(s: StratifiedSequence) -> list[Violation]:
    """Every adjacent pair is a one-step doctrine and the one-step
    quantifiers agree where the layers overlap."""
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
