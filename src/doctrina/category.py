"""Presented finite-product categories: explicit object lists, hom tables,
composition tables, a designated terminal object, and a chosen binary
product (object, projections, pairing table) for every ordered pair.

The chosen product of an object with the terminal is always the object
itself with the identity projection, so quantification along the trivial
projection is the identity and markings are monotone across layers.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable


class CategoryError(Exception):
    pass


@dataclass
class FPCategory:
    objects: tuple[str, ...]
    morphisms: dict[str, tuple[str, str]]          # name -> (source, target)
    comp: dict[tuple[str, str], str]               # (g, f) -> g o f
    ident: dict[str, str]                          # object -> identity name
    terminal: str
    products: dict[tuple[str, str], tuple[str, str, str]]  # (A, B) -> (P, pr1, pr2)
    pairings: dict[tuple[str, str], str]           # (f: W->A, g: W->B) -> <f,g>: W -> A x B

    def src(self, f: str) -> str:
        return self.morphisms[f][0]

    def dst(self, f: str) -> str:
        return self.morphisms[f][1]

    def compose(self, g: str, f: str) -> str:
        if self.dst(f) != self.src(g):
            raise CategoryError(f"cannot compose {g} after {f}")
        try:
            return self.comp[(g, f)]
        except KeyError:
            raise CategoryError(f"no composite of {g} after {f}") from None

    def hom(self, x: str, y: str) -> list[str]:
        return sorted(n for n, (s, t) in self.morphisms.items() if s == x and t == y)

    def bang(self, x: str) -> str:
        (f,) = self.hom(x, self.terminal)
        return f

    def product(self, a: str, b: str) -> tuple[str, str, str]:
        return self.products[(a, b)]

    def pair(self, f: str, g: str) -> str:
        if self.src(f) != self.src(g):
            raise CategoryError("pairing requires a common source")
        try:
            return self.pairings[(f, g)]
        except KeyError:
            raise CategoryError(f"no pairing of {f} and {g}") from None

    def diagonal(self, x: str) -> str:
        return self.pair(self.ident[x], self.ident[x])

    def times_id(self, f: str, y: str) -> str:
        """f x id_y : src(f) x y -> dst(f) x y over the chosen products."""
        _, pr1, pr2 = self.product(self.src(f), y)
        return self.pair(self.compose(f, pr1), pr2)

    def check(self) -> list[str]:
        """Exhaustively verify the category, terminal, and product laws."""
        out = []
        for name, (s, t) in self.morphisms.items():
            if s not in self.objects or t not in self.objects:
                out.append(f"morphism {name} has unknown endpoint")
        for x in self.objects:
            i = self.ident.get(x)
            if i is None or self.morphisms.get(i) != (x, x):
                out.append(f"bad identity for {x}")
        for (g, f), h in self.comp.items():
            if self.dst(f) != self.src(g):
                out.append(f"composition table entry ({g}, {f}) is not composable")
            elif self.morphisms[h] != (self.src(f), self.dst(g)):
                out.append(f"composite {h} of ({g}, {f}) has wrong endpoints")
        for f, (s, t) in self.morphisms.items():
            if self.comp.get((f, self.ident[s])) != f:
                out.append(f"right identity fails for {f}")
            if self.comp.get((self.ident[t], f)) != f:
                out.append(f"left identity fails for {f}")
        leaving: dict[str, list[str]] = {}
        for f, (s, _) in self.morphisms.items():
            leaving.setdefault(s, []).append(f)
        # with every entry composable at the right endpoints, associativity
        # is decided on the table; the triples are walked through `compose`
        # only to report a failure or to raise on a missing composite
        comp = self.comp
        try:
            associative = not out and all(
                comp[h, comp[g, f]] == comp[comp[h, g], f]
                for f, (_, t) in self.morphisms.items()
                for g in leaving.get(t, ())
                for h in leaving.get(self.morphisms[g][1], ())
            )
        except KeyError:
            associative = False
        for f, (_, t) in self.morphisms.items() if not associative else ():
            for g in leaving.get(t, ()):
                for h in leaving.get(self.dst(g), ()):
                    if self.compose(h, self.compose(g, f)) != self.compose(self.compose(h, g), f):
                        out.append(f"associativity fails at ({h}, {g}, {f})")
        homs: dict[tuple[str, str], list[str]] = {}
        for f in sorted(self.morphisms):
            homs.setdefault(self.morphisms[f], []).append(f)
        for x in self.objects:
            if len(homs.get((x, self.terminal), ())) != 1:
                out.append(f"terminal object is not terminal from {x}")
        for (a, b), (p, pr1, pr2) in self.products.items():
            if self.morphisms.get(pr1) != (p, a) or self.morphisms.get(pr2) != (p, b):
                out.append(f"projections of {a} x {b} have wrong endpoints")
                continue
            for w in self.objects:
                fs, gs = homs.get((w, a), ()), homs.get((w, b), ())
                if not (fs and gs):
                    continue
                for f in fs:
                    for g in gs:
                        h = self.pairings.get((f, g))
                        if h is None or self.morphisms[h] != (w, p):
                            out.append(f"missing pairing <{f}, {g}>")
                            continue
                        if self.compose(pr1, h) != f or self.compose(pr2, h) != g:
                            out.append(f"pairing <{f}, {g}> fails the projection equations")
                # the mediators of every (f, g), from one pass over hom(w, p)
                mediators = Counter(
                    (self.compose(pr1, h), self.compose(pr2, h)) for h in homs.get((w, p), ())
                )
                for f in fs:
                    for g in gs:
                        if mediators[f, g] != 1:
                            out.append(
                                f"product {a} x {b} is not universal at ({f}, {g}): {mediators[f, g]} mediators"
                            )
        return out


def terminal_category(obj: str = "1") -> FPCategory:
    i = f"id_{obj}"
    return FPCategory(
        objects=(obj,),
        morphisms={i: (obj, obj)},
        comp={(i, i): i},
        ident={obj: i},
        terminal=obj,
        products={(obj, obj): (obj, i, i)},
        pairings={(i, i): i},
    )


def semilattice_category(elements: Iterable[str], leq) -> FPCategory:
    """The poset category of a finite meet-semilattice with top.

    `leq(a, b)` is the order; meets (and the top element) must exist and are
    used as the chosen products (terminal); products with the top element
    are chosen to be the object itself.
    """
    objs = tuple(elements)
    below = {a: {b for b in objs if leq(a, b)} for a in objs}

    def meet(a: str, b: str) -> str:
        lower = [c for c in objs if leq(c, a) and leq(c, b)]
        best = [c for c in lower if all(leq(d, c) for d in lower)]
        if len(best) != 1:
            raise CategoryError(f"no meet of {a} and {b}")
        return best[0]

    tops = [a for a in objs if all(leq(b, a) for b in objs)]
    if len(tops) != 1:
        raise CategoryError("semilattice needs a top element")
    top = tops[0]

    def mor(a: str, b: str) -> str:
        return f"le[{a}<={b}]"

    morphisms = {mor(a, b): (a, b) for a in objs for b in below[a]}
    comp = {}
    for f, (a, b) in morphisms.items():
        for g, (b2, c) in morphisms.items():
            if b == b2:
                comp[(g, f)] = mor(a, c)
    ident = {a: mor(a, a) for a in objs}
    products = {}
    pairings = {}
    for a in objs:
        for b in objs:
            p = a if b == top else (b if a == top else meet(a, b))
            if not (leq(p, a) and leq(p, b)):
                raise CategoryError("chosen product is not a lower bound")
            products[(a, b)] = (p, mor(p, a), mor(p, b))
    for f, (w, a) in morphisms.items():
        for g, (w2, b) in morphisms.items():
            if w == w2:
                p = products[(a, b)][0]
                pairings[(f, g)] = mor(w, p)
    return FPCategory(objs, morphisms, comp, ident, top, products, pairings)


def chain_category(n: int) -> FPCategory:
    """The n-element chain c1 <= c2 <= ... <= cn as a meet-semilattice."""
    names = [f"c{i}" for i in range(1, n + 1)]
    rank = {c: i for i, c in enumerate(names)}
    return semilattice_category(names, lambda a, b: rank[a] <= rank[b])


def finset_category(sets: dict[str, tuple]) -> tuple[FPCategory, dict]:
    """The category of the given finite sets and all functions between them.

    For each ordered pair a listed set of matching cardinality is chosen as
    the product, via the lexicographic bijection with the set of pairs;
    products with the chosen one-point terminal reuse the other factor.
    Returns the category and a `carrier` dict with, per object, its element
    tuple, and per product pair, the pair decoding.

    Raises if some product cardinality is missing or no one-point set is
    listed.
    """
    objs = {name: tuple(elems) for name, elems in sets.items()}
    if len(set(map(len, objs.values()))) != len(objs):
        # several sets of one size are fine, but the chosen products would be
        # ambiguous; insist on distinct sizes for determinism
        raise CategoryError("finset_category requires sets of pairwise distinct sizes")
    by_size = {len(e): name for name, e in objs.items()}
    if 1 not in by_size:
        raise CategoryError("a one-point terminal set must be listed")
    terminal = by_size[1]

    def fname(src: str, dst: str, images: tuple) -> str:
        body = ",".join(str(objs[dst].index(v)) for v in images)
        return f"{src}->{dst}[{body}]"

    morphisms: dict[str, tuple[str, str]] = {}
    func: dict[str, dict] = {}
    for s in objs:
        for t in objs:
            for images in itertools.product(objs[t], repeat=len(objs[s])):
                name = fname(s, t, images)
                morphisms[name] = (s, t)
                func[name] = dict(zip(objs[s], images))

    comp = {}
    for f, (a, b) in morphisms.items():
        for g, (b2, c) in morphisms.items():
            if b != b2:
                continue
            images = tuple(func[g][func[f][x]] for x in objs[a])
            comp[(g, f)] = fname(a, c, images)
    ident = {a: fname(a, a, objs[a]) for a in objs}

    pair_decode: dict[tuple[str, str], dict] = {}
    products = {}
    for a in objs:
        for b in objs:
            if b == terminal:
                p = a
                decode = {x: (x, objs[terminal][0]) for x in objs[a]}
            elif a == terminal:
                p = b
                decode = {x: (objs[terminal][0], x) for x in objs[b]}
            else:
                size = len(objs[a]) * len(objs[b])
                if size not in by_size:
                    raise CategoryError(f"no listed set of size {size} for {a} x {b}")
                p = by_size[size]
                pairs = list(itertools.product(objs[a], objs[b]))
                decode = dict(zip(objs[p], pairs))
            pair_decode[(a, b)] = decode
            pr1 = fname(p, a, tuple(decode[x][0] for x in objs[p]))
            pr2 = fname(p, b, tuple(decode[x][1] for x in objs[p]))
            products[(a, b)] = (p, pr1, pr2)

    pairings = {}
    for f, (w, a) in morphisms.items():
        for g, (w2, b) in morphisms.items():
            if w != w2:
                continue
            p, _, _ = products[(a, b)]
            decode = pair_decode[(a, b)]
            encode = {v: k for k, v in decode.items()}
            images = tuple(encode[(func[f][x], func[g][x])] for x in objs[w])
            pairings[(f, g)] = fname(w, p, images)

    cat = FPCategory(
        tuple(objs), morphisms, comp, ident, terminal, products, pairings
    )
    return cat, {"elems": objs, "func": func, "decode": pair_decode}


@dataclass
class Functor:
    """A functor between presented categories, as explicit object/morphism maps."""

    source: FPCategory
    target: FPCategory
    obj_map: dict[str, str]
    mor_map: dict[str, str]

    def check(self) -> list[str]:
        out = []
        for x in self.source.objects:
            if self.obj_map.get(x) not in self.target.objects:
                out.append(f"object {x} not mapped")
        for f, (a, b) in self.source.morphisms.items():
            mf = self.mor_map.get(f)
            if mf is None or self.target.morphisms.get(mf) != (self.obj_map[a], self.obj_map[b]):
                out.append(f"morphism {f} not mapped compatibly")
        if out:
            return out
        for x in self.source.objects:
            if self.mor_map[self.source.ident[x]] != self.target.ident[self.obj_map[x]]:
                out.append(f"identity of {x} not preserved")
        for (g, f), h in self.source.comp.items():
            if self.target.compose(self.mor_map[g], self.mor_map[f]) != self.mor_map[h]:
                out.append(f"composition ({g}, {f}) not preserved")
        if self.obj_map[self.source.terminal] != self.target.terminal:
            out.append("terminal not preserved")
        for (a, b), (p, pr1, pr2) in self.source.products.items():
            tp, tpr1, tpr2 = self.target.product(self.obj_map[a], self.obj_map[b])
            if self.obj_map[p] != tp:
                out.append(f"chosen product {a} x {b} not preserved")
            elif self.mor_map[pr1] != tpr1 or self.mor_map[pr2] != tpr2:
                out.append(f"projections of {a} x {b} not preserved")
        return out


def identity_functor(cat: FPCategory) -> Functor:
    return Functor(cat, cat, {x: x for x in cat.objects}, {f: f for f in cat.morphisms})
