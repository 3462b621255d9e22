"""Finite Boolean doctrines over presented base categories.

A doctrine assigns a finite powerset algebra to every base object and a
reindexing table to every base morphism; optionally it carries universal
quantifier tables indexed by the chosen product diagrams, and a
fibered-equality family.  The existential quantifier is not stored: in a
Boolean doctrine it is the De Morgan dual of the universal one
(`derive_exists`).  Verifiers check the functor laws, the
adjunction laws plus Beck-Chevalley, and the elementarity conditions
exhaustively, reporting every failing instance rather than stopping at the
first.

The laws stated over pairs of fiber elements (homomorphism, monotonicity,
the right adjoint) are decided on atoms, in O(n 2^n) for n atoms.  This is
exact because a finite Boolean algebra is the powerset of its atoms (finite
Stone duality): a join-preserving map is fixed by its atom images, and every
b <= b2 is a chain of covers b <= b | atom.  To report a broken
homomorphism, only the pairs that touch an entry where the table differs
from the join of its atom images are enumerated (`boolalg.hom_violations`);
to report a broken monotonicity law, every pair b <= b2.  A marked fiber is
a Boolean subalgebra iff it is its own Boolean closure, and its pairs are
enumerated only when it is not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .boolalg import (
    BoolAlg,
    BAHom,
    boolean_closure,
    hom_violations,
    monotone_violations,
    right_adjoint_of,
    subalgebra_atoms,
)
from .category import (
    FPCategory,
    Functor,
    chain_category,
    finset_category,
    identity_functor,
)


class DoctrineError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class Violation:
    kind: str
    data: tuple[tuple[str, str], ...] = ()

    def line(self) -> str:
        return "VIOLATION " + self.kind + "".join([f" {k}={v}" for k, v in self.data])


def violation(kind: str, **data) -> Violation:
    return Violation(kind, tuple([(k, str(v)) for k, v in data.items()]))


def report_lines(violations: Iterable[Violation]) -> list[str]:
    return sorted(v.line() for v in violations)


QuantTable = dict[tuple[str, str], tuple[int, ...]]


@dataclass
class Doctrine:
    base: FPCategory
    fibers: dict[str, BoolAlg]
    reindex: dict[str, tuple[int, ...]]
    forall: Optional[QuantTable] = None
    delta: Optional[dict[str, int]] = None

    def fiber(self, x: str) -> BoolAlg:
        return self.fibers[x]

    def re(self, f: str, a: int) -> int:
        return self.reindex[f][a]

    def fa(self, x: str, y: str, b: int) -> int:
        return self.universal_tables()[(x, y)][b]

    def universal_tables(self) -> QuantTable:
        """The universal tables the doctrine carries, or else the forced
        right adjoints, computed once: a doctrine's category, fibers and
        reindexings are not changed after it is built."""
        if self.forall is not None:
            return self.forall
        forced = self.__dict__.get("_forced_universals")
        if forced is None:
            forced = self._forced_universals = all_forced_universals(self)
        return forced

    def product_fiber(self, x: str, y: str) -> BoolAlg:
        return self.fibers[self.base.product(x, y)[0]]

    def with_tables(self, **kw) -> "Doctrine":
        """A copy with some tables replaced; used by mutation tests."""
        return replace(self, **kw)


# --- verification ------------------------------------------------------------


def verify_boolean_doctrine(d: Doctrine) -> list[Violation]:
    """Check that every reindexing is a Boolean homomorphism and that the
    assignment is functorial (identities and composition).  Each functor law
    is decided on whole tables, and its entries are enumerated only for a
    table that fails, to report where."""
    out: list[Violation] = []
    cat = d.base
    for f, (x, y) in sorted(cat.morphisms.items()):
        src_alg = d.fiber(y)   # reindexing goes fiber(target) -> fiber(source)
        dst_alg = d.fiber(x)
        table = d.reindex.get(f)
        if table is None or len(table) != src_alg.size:
            out.append(violation("reindex-table", f=f))
            continue
        for law, where in hom_violations(src_alg, dst_alg, table):
            out.append(violation("reindex-" + law, f=f, **where))
    for x in cat.objects:
        table = d.reindex.get(cat.ident[x])
        if table is None:
            continue
        n = d.fiber(x).size
        if table[:n] == tuple(range(n)):
            continue
        for a in range(n):
            if table[a] != a:
                out.append(violation("identity-law", obj=x, elem=a))
    for (g, f), h in sorted(cat.comp.items()):
        tf, tg, th = d.reindex.get(f), d.reindex.get(g), d.reindex.get(h)
        if tf is None or tg is None or th is None:
            continue
        n = d.fiber(cat.dst(g)).size
        if len(tg) == n == len(th) and [tf[v] for v in tg] == [*th]:
            continue
        for a in range(n):
            if tf[tg[a]] != th[a]:
                out.append(violation("composition-law", f=f, g=g, elem=a))
    return out


def forced_universal(d: Doctrine, x: str, y: str) -> tuple[int, ...]:
    """The unique right adjoint of reindexing along pr1 : x*y -> x, computed
    as the join of all elements whose reindexing lies below the argument."""
    _, pr1, _ = d.base.product(x, y)
    return right_adjoint_of(d.fiber(x), d.product_fiber(x, y), lambda a: d.re(pr1, a))


def all_forced_universals(d: Doctrine) -> QuantTable:
    return {
        (x, y): forced_universal(d, x, y)
        for x in d.base.objects
        for y in d.base.objects
    }


def check_forall_tables(d: Doctrine, x: str, y: str) -> list[Violation]:
    """The entries where the universal table of (x, y) differs from the
    forced adjoint, to report a table that breaks an adjunction law."""
    forced = forced_universal(d, x, y)
    return [violation("forall-not-adjoint", X=x, Y=y, elem=b)
            for b, got in enumerate(d.universal_tables()[(x, y)]) if got != forced[b]]


def verify_first_order(d: Doctrine) -> list[Violation]:
    """Order-preservation, unit, counit, and Beck-Chevalley for every chosen
    product diagram, exhaustively over all fiber elements.  A table that
    breaks one of the first three also gets a `forall-not-adjoint` line per
    entry where it differs from the forced adjoint; one that keeps them is
    that adjoint once `verify_boolean_doctrine` passes (right adjoints are
    unique), so it needs no comparison.  Each law is decided on whole tables
    first, and its elements are enumerated only for a table that fails."""
    out: list[Violation] = []
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
            for b, b2 in monotone_violations(ap, table):
                out.append(violation("forall-monotone", X=x, Y=y, left=b, right=b2))
            # the unit a <= table[pr1*(a)] and the counit pr1*(table[b]) <= b,
            # each over a whole table: u <= v iff u & ~v == 0
            t_pr1 = d.reindex[pr1]
            if len(t_pr1) != ax.size or any([a & ~table[v] for a, v in enumerate(t_pr1)]):
                for a in ax.elements():
                    if not ax.leq(a, table[d.re(pr1, a)]):
                        out.append(violation("forall-unit", X=x, Y=y, elem=a))
            if any([t_pr1[v] & ~b for b, v in enumerate(table)]):
                for b in ap.elements():
                    if not ap.leq(d.re(pr1, table[b]), b):
                        out.append(violation("forall-counit", X=x, Y=y, elem=b))
            if len(out) > before:
                out += check_forall_tables(d, x, y)
    for f, (x1, x) in sorted(cat.morphisms.items()):
        for y in cat.objects:
            t_upper = tables.get((x, y))
            t_lower = tables.get((x1, y))
            if t_upper is None or t_lower is None:
                continue
            fxid = cat.times_id(f, y)
            n = d.product_fiber(x, y).size
            t_f, t_fxid = d.reindex[f], d.reindex[fxid]
            if len(t_upper) == n == len(t_fxid) and (
                    [t_f[v] for v in t_upper] == [t_lower[v] for v in t_fxid]):
                continue
            for b in range(n):
                if d.re(f, t_upper[b]) != t_lower[d.re(fxid, b)]:
                    out.append(violation("beck-chevalley", f=f, Y=y, elem=b))
    return out


def derive_exists(d: Doctrine) -> QuantTable:
    """The existential tables, as the De Morgan dual of the universal ones;
    verified to be left adjoint to reindexing along the first projection."""
    tables = d.universal_tables()
    out: QuantTable = {}
    for x in d.base.objects:
        for y in d.base.objects:
            fa = tables[(x, y)]
            p, pr1, _ = d.base.product(x, y)
            ax, ap = d.fiber(x), d.fiber(p)
            ex = tuple(ax.neg(fa[ap.neg(b)]) for b in ap.elements())
            for b in ap.elements():
                for c in ax.elements():
                    if ax.leq(ex[b], c) != ap.leq(b, d.re(pr1, c)):
                        raise DoctrineError(
                            f"derived existential is not left adjoint at ({x}, {y}, {b}, {c})"
                        )
            out[(x, y)] = ex
    return out


# --- constructions -----------------------------------------------------------


def subset_doctrine(sets: dict[str, tuple]) -> Doctrine:
    """The powerset doctrine of the listed finite sets: fibers are powersets,
    reindexings are preimages, and the fibered equalities the diagonals.
    The universal tables are the forced right adjoints of reindexing along
    the first projections, which over a product of sets is the usual
    universal quantifier."""
    cat, data = finset_category(sets)
    elems: dict[str, tuple] = data["elems"]
    fibers = {x: BoolAlg(len(elems[x])) for x in cat.objects}
    reindex = {}
    for f, (x, y) in cat.morphisms.items():
        image = data["func"][f]
        atom_map = tuple(elems[y].index(image[e]) for e in elems[x])
        reindex[f] = BAHom(fibers[y], fibers[x], atom_map).table()
    delta = {}
    for x in cat.objects:
        p, _, _ = cat.product(x, x)
        dec = data["decode"][(x, x)]
        delta[x] = sum(1 << i for i, pt in enumerate(elems[p]) if dec[pt][0] == dec[pt][1])
    d = Doctrine(cat, fibers, reindex, delta=delta)
    d.forall = all_forced_universals(d)
    return d


def hbx_doctrine(base: FPCategory, x: str, b: BoolAlg) -> Doctrine:
    """Fibers are functions Hom(x, -) -> b, reindexing by precomposition:
    atom k*w + j of a fiber, for w the atom count of b, is atom j of b at
    the k-th morphism.  The universal tables are the forced right adjoints
    of reindexing along the first projections, which over a product base
    take pointwise meets over the quantified leg."""
    homs = {y: base.hom(x, y) for y in base.objects}
    width = b.atoms
    fibers = {y: BoolAlg(len(homs[y]) * width) for y in base.objects}
    reindex = {}
    for f, (z, y) in base.morphisms.items():
        idx_y = {h: i for i, h in enumerate(homs[y])}
        atom_map = tuple(
            idx_y[base.compose(f, k)] * width + j for k in homs[z] for j in range(width)
        )
        reindex[f] = BAHom(fibers[y], fibers[z], atom_map).table()
    d = Doctrine(base, fibers, reindex)
    d.forall = all_forced_universals(d)
    return d


def product_doctrine(parts: list[Doctrine]) -> tuple[Doctrine, dict[str, tuple[int, ...]]]:
    """The fiberwise product of doctrines over a common base.  Returns the
    doctrine and, per object, the atom offset of each part's block."""
    if not parts:
        raise DoctrineError("empty product")
    base = parts[0].base
    offsets: dict[str, tuple[int, ...]] = {}
    fibers = {}
    for y in base.objects:
        offs, total = [], 0
        for d in parts:
            offs.append(total)
            total += d.fiber(y).atoms
        offsets[y] = tuple(offs)
        fibers[y] = BoolAlg(total)

    def split(y: str, mask: int) -> list[int]:
        out = []
        for d, off in zip(parts, offsets[y]):
            out.append((mask >> off) & d.fiber(y).top)
        return out

    def join(y: str, masks: list[int]) -> int:
        out = 0
        for m, off in zip(masks, offsets[y]):
            out |= m << off
        return out

    reindex = {}
    for f, (xx, yy) in base.morphisms.items():
        table = []
        for a in fibers[yy].elements():
            table.append(join(xx, [d.re(f, m) for d, m in zip(parts, split(yy, a))]))
        reindex[f] = tuple(table)

    forall: QuantTable = {}
    for x in base.objects:
        for y in base.objects:
            p, _, _ = base.product(x, y)
            table = []
            for bm in fibers[p].elements():
                table.append(join(x, [d.fa(x, y, m) for d, m in zip(parts, split(p, bm))]))
            forall[(x, y)] = tuple(table)

    return Doctrine(base, fibers, reindex, forall), offsets


@dataclass
class DoctrineMorphism:
    """A base functor together with one component table per source object."""

    source: Doctrine
    target: Doctrine
    functor: Functor
    components: dict[str, tuple[int, ...]]

    def apply(self, x: str, a: int) -> int:
        return self.components[x][a]


def verify_morphism(m: DoctrineMorphism, level: str = "boolean") -> list[Violation]:
    """Naturality squares; at first-order level also quantifier preservation;
    at elementary level also preservation of the fibered equalities."""
    out: list[Violation] = []
    errs = m.functor.check()
    out += [violation("functor", detail=e) for e in errs]
    src, tgt, fun = m.source, m.target, m.functor
    for x in src.base.objects:
        table = m.components.get(x)
        ax, bx = src.fiber(x), tgt.fiber(fun.obj_map[x])
        if table is None or len(table) != ax.size:
            out.append(violation("component-table", X=x))
            continue
        for law, where in hom_violations(ax, bx, table):
            out.append(violation("component-" + law, X=x, **where))
    for f, (x, y) in sorted(src.base.morphisms.items()):
        for a in src.fiber(y).elements():
            lhs = m.apply(x, src.re(f, a))
            rhs = tgt.re(fun.mor_map[f], m.apply(y, a))
            if lhs != rhs:
                out.append(violation("naturality", f=f, elem=a))
    if level in ("first-order",):
        for x in src.base.objects:
            for y in src.base.objects:
                p = src.base.product(x, y)[0]
                for b in src.fiber(p).elements():
                    lhs = m.apply(x, src.fa(x, y, b))
                    rhs = tgt.fa(fun.obj_map[x], fun.obj_map[y], m.apply(p, b))
                    if lhs != rhs:
                        out.append(violation("quantifier-preservation", X=x, Y=y, elem=b))
    if level == "elementary":
        if src.delta is None or tgt.delta is None:
            out.append(violation("delta-missing"))
        else:
            for x in src.base.objects:
                p = src.base.product(x, x)[0]
                if m.apply(p, src.delta[x]) != tgt.delta[fun.obj_map[x]]:
                    out.append(violation("delta-preservation", X=x))
    return out


def embedding_morphism(d: Doctrine) -> DoctrineMorphism:
    """The canonical embedding of a Boolean doctrine into the product, over
    all base objects, of the hom-power doctrines built on its own fibers.
    Components send an element to its family of reindexings; injectivity is
    witnessed by evaluation at identities."""
    base = d.base
    parts = [hbx_doctrine(base, x, d.fiber(x)) for x in base.objects]
    target, offsets = product_doctrine(parts)
    components = {}
    for y in base.objects:
        table = []
        for gamma in d.fiber(y).elements():
            mask = 0
            for k, x in enumerate(base.objects):
                width = d.fiber(x).atoms
                off = offsets[y][k]
                for i, f in enumerate(base.hom(x, y)):
                    mask |= d.re(f, gamma) << (off + i * width)
            table.append(mask)
        components[y] = tuple(table)
    return DoctrineMorphism(d, target, identity_functor(base), components)


def injectivity_report(m: DoctrineMorphism) -> list[Violation]:
    out = []
    for x, table in sorted(m.components.items()):
        seen: dict[int, int] = {}
        for a, v in enumerate(table):
            if v in seen:
                out.append(violation("not-injective", X=x, left=seen[v], right=a))
            seen[v] = a
    return out


# --- elementarity ------------------------------------------------------------


def verify_elementary(
    d: Doctrine,
    delta: dict[str, int],
    marking: Optional[dict[str, frozenset[int]]] = None,
) -> list[Violation]:
    """The three fibered-equality conditions, the adjoint formulation, and
    symmetry, exhaustively.  With a `marking`, substitutivity is quantified
    over the marked elements only (checking elementarity of a subdoctrine);
    the equalities themselves must then be marked."""
    out: list[Violation] = []
    cat = d.base

    def elems(x: str) -> Iterable[int]:
        if marking is None:
            return d.fiber(x).elements()
        return sorted(marking[x])

    for x in cat.objects:
        p, pr1, pr2 = cat.product(x, x)
        ap, ax = d.fiber(p), d.fiber(x)
        dx = delta.get(x)
        if dx is None:
            out.append(violation("delta-missing", X=x))
            continue
        if marking is not None and dx not in marking[p]:
            out.append(violation("delta-not-marked", X=x))
        diag = cat.diagonal(x)
        if d.re(diag, dx) != ax.top:
            out.append(violation("delta-reflexivity", X=x))
        for a in elems(x):
            if not ap.leq(d.re(pr1, a) & dx, d.re(pr2, a)):
                out.append(violation("delta-substitution", X=x, elem=a))
        swap = cat.pair(pr2, pr1)
        if not ap.leq(dx, d.re(swap, dx)):
            out.append(violation("delta-symmetry", X=x))

    for x in cat.objects:
        for y in cat.objects:
            if delta.get(x) is None or delta.get(y) is None:
                continue
            pxy, pr1_xy, pr2_xy = cat.product(x, y)
            if delta.get(pxy) is None:
                out.append(violation("delta-missing", X=pxy))
                continue
            big, pra, prb = cat.product(pxy, pxy)
            pi1 = cat.compose(pr1_xy, pra)
            pi2 = cat.compose(pr2_xy, pra)
            pi3 = cat.compose(pr1_xy, prb)
            pi4 = cat.compose(pr2_xy, prb)
            p13 = cat.pair(pi1, pi3)
            p24 = cat.pair(pi2, pi4)
            lhs = d.re(p13, delta[x]) & d.re(p24, delta[y])
            if not d.fiber(big).leq(lhs, delta[pxy]):
                out.append(violation("delta-pairing", X=x, Y=y))

    # adjoint form: the equality-extension map is left adjoint to reindexing
    # along (id_y, diagonal)
    for x in cat.objects:
        dx = delta.get(x)
        if dx is None:
            continue
        for y in cat.objects:
            a_obj, pr1_a, pr2_a = cat.product(y, x)
            t_obj, pr_t1, pr_t2 = cat.product(a_obj, x)
            m12 = cat.pair(cat.compose(pr1_a, pr_t1), cat.compose(pr2_a, pr_t1))
            m23 = cat.pair(cat.compose(pr2_a, pr_t1), pr_t2)
            dup = cat.pair(cat.ident[a_obj], pr2_a)
            aa, at = d.fiber(a_obj), d.fiber(t_obj)
            for alpha in elems(a_obj):
                extended = d.re(m12, alpha) & d.re(m23, dx)
                for beta in at.elements():
                    if at.leq(extended, beta) != aa.leq(alpha, d.re(dup, beta)):
                        out.append(violation("delta-adjoint", X=x, Y=y, alpha=alpha, beta=beta))
                        break
    return out


def find_fibered_equalities(d: Doctrine) -> Optional[dict[str, int]]:
    """The at-most-one family whose members generate, as principal upsets,
    the elements pulled back to top along the diagonals; returned only when
    the elementarity conditions then hold."""
    family = {}
    for x in d.base.objects:
        p, _, _ = d.base.product(x, x)
        ap, ax = d.fiber(p), d.fiber(x)
        diag = d.base.diagonal(x)
        upset = [b for b in ap.elements() if d.re(diag, b) == ax.top]
        candidate = ap.meet_all(upset)
        if candidate not in upset:
            return None
        family[x] = candidate
    if verify_elementary(d, family):
        return None
    return family


# --- quotients and change of base ---------------------------------------------


def is_filter(alg: BoolAlg, filt: frozenset[int]) -> bool:
    """A filter of a finite Boolean algebra is the principal upset of its
    meet, and every principal upset is a filter."""
    generator = alg.meet_all(filt)
    return filt == {b for b in alg.elements() if alg.leq(generator, b)}


def _on_blocks(d: Doctrine, blocks: dict[str, list[int]]):
    """The doctrine whose fiber over x is the powerset of the disjoint masks
    `blocks[x]`, with reindexings and universal tables carried over from `d`.
    Returns it without fibered equalities, plus the transport maps: `encode`
    sends an ambient mask to the blocks it contains, `decode` a block mask to
    the union of its blocks."""

    def encode(x: str, mask: int) -> int:
        out = 0
        for j, blk in enumerate(blocks[x]):
            if blk & mask == blk:
                out |= 1 << j
        return out

    def decode(x: str, bmask: int) -> int:
        out = 0
        for j, blk in enumerate(blocks[x]):
            if (bmask >> j) & 1:
                out |= blk
        return out

    fibers = {x: BoolAlg(len(blocks[x])) for x in d.base.objects}
    reindex = {}
    for f, (x, y) in d.base.morphisms.items():
        reindex[f] = tuple(encode(x, d.re(f, decode(y, q))) for q in fibers[y].elements())
    tables = d.universal_tables()
    forall: QuantTable = {}
    for x in d.base.objects:
        for y in d.base.objects:
            p = d.base.product(x, y)[0]
            forall[(x, y)] = tuple(
                encode(x, tables[(x, y)][decode(p, q)]) for q in fibers[p].elements()
            )
    return Doctrine(d.base, fibers, reindex, forall=forall), encode, decode


def quotient_by_filter(d: Doctrine, filt: Iterable[int]) -> tuple[Doctrine, DoctrineMorphism]:
    """Quotient by the congruence identifying a and b whenever the universal
    closure of (a iff b) into the terminal fiber lands in the filter."""
    filt = frozenset(filt)
    term = d.base.terminal
    if not is_filter(d.fiber(term), filt):
        raise DoctrineError("not a filter on the terminal fiber")
    tables = d.universal_tables()

    # the filter on each fiber is principal; keep the atoms of its generator
    kept: dict[str, list[int]] = {}
    for x in d.base.objects:
        closure = tables[(term, x)]
        alg = d.fiber(x)
        generator = alg.meet_all(g for g in alg.elements() if closure[g] in filt)
        kept[x] = [1 << i for i in range(alg.atoms) if (generator >> i) & 1]

    quotient, encode, _ = _on_blocks(d, kept)
    if d.delta is not None:
        quotient.delta = {x: encode(d.base.product(x, x)[0], d.delta[x]) for x in d.base.objects}
    components = {x: tuple(encode(x, a) for a in d.fiber(x).elements()) for x in d.base.objects}
    morphism = DoctrineMorphism(d, quotient, identity_functor(d.base), components)
    return quotient, morphism


def change_of_base(r: Doctrine, m: Functor) -> Doctrine:
    """Precompose a doctrine over the functor's target with the functor."""
    errs = m.check()
    if errs:
        raise DoctrineError("malformed functor: " + "; ".join(errs))
    if m.target is not r.base and m.target != r.base:
        raise DoctrineError("functor target is not the doctrine's base")
    fibers = {x: r.fiber(m.obj_map[x]) for x in m.source.objects}
    reindex = {f: r.reindex[m.mor_map[f]] for f in m.source.morphisms}
    forall = None
    if r.forall is not None:
        forall = {
            (x, y): r.forall[(m.obj_map[x], m.obj_map[y])]
            for x in m.source.objects
            for y in m.source.objects
        }
    delta = None
    if r.delta is not None:
        delta = {x: r.delta[m.obj_map[x]] for x in m.source.objects}
    return Doctrine(m.source, fibers, reindex, forall=forall, delta=delta)


# --- generated subdoctrines ----------------------------------------------------


Marking = dict[str, frozenset[int]]


def full_marking(d: Doctrine) -> Marking:
    return {x: frozenset(d.fiber(x).elements()) for x in d.base.objects}


def close_boolean_substitution(d: Doctrine, marking: Marking) -> Marking:
    """Close a marking under Boolean operations and reindexings."""
    cur = {x: set(boolean_closure(d.fiber(x), marking.get(x, ()))) for x in d.base.objects}
    changed = True
    while changed:
        changed = False
        for f, (x, y) in d.base.morphisms.items():
            for a in list(cur[y]):
                v = d.re(f, a)
                if v not in cur[x]:
                    cur[x].add(v)
                    changed = True
        for x in d.base.objects:
            closed = boolean_closure(d.fiber(x), cur[x])
            if closed != cur[x]:
                cur[x] = set(closed)
                changed = True
    return {x: frozenset(v) for x, v in cur.items()}


def layer_step(d: Doctrine, marking: Marking, tables: QuantTable) -> Marking:
    """One generation step: Boolean closure of all universal quantifications
    of marked elements over every chosen product diagram."""
    out: Marking = {}
    for x in d.base.objects:
        gens: set[int] = set()
        for y in d.base.objects:
            p = d.base.product(x, y)[0]
            for b in marking.get(p, ()):
                gens.add(tables[(x, y)][b])
        out[x] = boolean_closure(d.fiber(x), gens)
    return out


def generated_markings(d: Doctrine, seed: Marking) -> Marking:
    """Close a marking under Boolean operations, reindexings, and the
    universal quantifiers: the subdoctrine generated by the seed."""
    tables = d.universal_tables()
    cur = close_boolean_substitution(d, seed)
    while True:
        step = layer_step(d, cur, tables)
        nxt = close_boolean_substitution(d, {x: cur[x] | step[x] for x in d.base.objects})
        if nxt == cur:
            return cur
        cur = nxt


def subdoctrine_from_markings(d: Doctrine, marking: Marking) -> tuple[Doctrine, dict]:
    """Re-atomize a closed marking into a doctrine in its own right.

    Each marked fiber is a Boolean subalgebra; its atoms are the minimal
    nonzero members, and the subdoctrine's fibers are powersets of those
    blocks.  Returns the doctrine plus encode/decode maps between ambient
    masks and block masks."""
    blocks = {x: subalgebra_atoms(d.fiber(x), marking[x]) for x in d.base.objects}
    sub, encode, decode = _on_blocks(d, blocks)
    if d.delta is not None and all(d.delta[x] in marking[d.base.product(x, x)[0]] for x in d.base.objects):
        sub.delta = {x: encode(d.base.product(x, x)[0], d.delta[x]) for x in d.base.objects}
    return sub, {"blocks": blocks, "encode": encode, "decode": decode}


# --- random instances ----------------------------------------------------------


def random_doctrine(rng: random.Random, max_objects: int = 3, max_atoms: int = 3) -> Doctrine:
    """A random finite Boolean doctrine over a chain base: fibers are random
    powersets, reindexings are induced by a random chain of atom maps (which
    makes the functor laws hold by construction)."""
    n = rng.randint(1, max_objects)
    cat = chain_category(n)
    names = [f"c{i}" for i in range(1, n + 1)]
    sizes = {c: rng.randint(1, max_atoms) for c in names}
    fibers = {c: BoolAlg(sizes[c]) for c in names}
    # covariant atom maps along the chain c1 -> c2 -> ... -> cn
    step = {}
    for i in range(n - 1):
        a, b = names[i], names[i + 1]
        step[a] = tuple(rng.randrange(sizes[b]) for _ in range(sizes[a]))

    def atom_map(src: str, dst: str) -> tuple[int, ...]:
        i, j = names.index(src), names.index(dst)
        cur = tuple(range(sizes[src]))
        for k in range(i, j):
            cur = tuple(step[names[k]][v] for v in cur)
        return cur

    reindex = {}
    for f, (x, y) in cat.morphisms.items():
        hom = BAHom(fibers[y], fibers[x], atom_map(x, y))
        reindex[f] = hom.table()
    return Doctrine(cat, fibers, reindex)
