"""Finite Boolean algebras as powersets of atom sets, elements as bitmasks.

Every finite Boolean algebra is isomorphic to the powerset of its atoms, so
an algebra is just an atom count and an element is an int below 2**n; the
lattice operations are bitwise.  Homomorphisms between powerset algebras are
induced by maps going the other way on atoms.

The laws of an element-indexed table are decided on its atoms.  A table
that breaks the homomorphism laws is compared with the join of its atom
images, and only the pairs that touch an entry where the two differ are
enumerated to report where meet and join fail; all 4^n/2 pairs only when
the atom images overlap or those pairs would not be fewer.  A table that
breaks monotonicity is read at the 3^n pairs b <= b2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator


class BoolAlgError(Exception):
    pass


@dataclass(frozen=True)
class BoolAlg:
    atoms: int

    def __post_init__(self):
        if self.atoms < 0:
            raise BoolAlgError("atom count must be >= 0")

    @property
    def top(self) -> int:
        return (1 << self.atoms) - 1

    @property
    def bot(self) -> int:
        return 0

    @property
    def size(self) -> int:
        return 1 << self.atoms

    def elements(self) -> Iterator[int]:
        return iter(range(1 << self.atoms))

    def neg(self, a: int) -> int:
        return self.top & ~a

    def leq(self, a: int, b: int) -> bool:
        return a & ~b == 0

    def imp(self, a: int, b: int) -> int:
        return self.neg(a) | b

    def join_all(self, xs: Iterable[int]) -> int:
        out = 0
        for x in xs:
            out |= x
        return out

    def meet_all(self, xs: Iterable[int]) -> int:
        out = self.top
        for x in xs:
            out &= x
        return out


@dataclass(frozen=True)
class BAHom:
    """A Boolean homomorphism between powerset algebras.

    Induced by `atom_map`, which sends each atom of the *target* to an atom
    of the *source*; the homomorphism takes a to the set of target atoms
    whose image lies in a.  Every homomorphism between finite powerset
    algebras arises this way.
    """

    source: BoolAlg
    target: BoolAlg
    atom_map: tuple[int, ...]

    def __post_init__(self):
        if len(self.atom_map) != self.target.atoms:
            raise BoolAlgError("atom_map must assign every atom of the target")
        for i in self.atom_map:
            if not 0 <= i < self.source.atoms:
                raise BoolAlgError(f"atom index {i} out of range")

    def __call__(self, a: int) -> int:
        out = 0
        for j, i in enumerate(self.atom_map):
            if (a >> i) & 1:
                out |= 1 << j
        return out

    def table(self) -> tuple[int, ...]:
        """The homomorphism as an element-indexed lookup table."""
        return tuple(self(a) for a in self.source.elements())

    def compose(self, other: "BAHom") -> "BAHom":
        """self after other (other: A -> B, self: B -> C gives A -> C)."""
        if other.target != self.source:
            raise BoolAlgError("homomorphisms not composable")
        return BAHom(other.source, self.target, tuple(other.atom_map[i] for i in self.atom_map))


def _atom_joins(table, alg: BoolAlg) -> list[int]:
    """The join-preserving map that agrees with an element-indexed table on
    the atoms of `alg`: each element goes to the join of its atoms' images,
    built one atom at a time."""
    joins = [0]
    for i in range(alg.atoms):
        image = table[1 << i]
        joins += [v | image for v in joins]
    return joins


def _preserves_joins(table, alg: BoolAlg) -> bool:
    """Whether an element-indexed table over `alg` sends every element to
    the join of its atoms' images (0 to 0): on a powerset algebra these are
    exactly the maps that preserve all joins."""
    return _atom_joins(table, alg) == list(table[:alg.size])


def is_monotone(alg: BoolAlg, table) -> bool:
    """Whether an element-indexed table is monotone, decided on the covers
    b <= b | atom: on a powerset every b <= b2 is a chain of such covers."""
    size = alg.size
    for i in range(alg.atoms):
        bit = 1 << i
        if any([table[b] & ~table[b | bit] for b in range(size) if not b & bit]):
            return False
    return True


def _submasks(m: int) -> list[int]:
    """The submasks of m, ascending: each bit, lowest first, adds the sets
    above all those before it."""
    out = [0]
    while m:
        bit = m & -m
        out += [s | bit for s in out]
        m ^= bit
    return out


def monotone_violations(alg: BoolAlg, table) -> Iterator[tuple[int, int]]:
    """The pairs b <= b2 at which an element-indexed table is not monotone,
    b and then b2 ascending.  Decided on the covers first (`is_monotone`);
    a table that fails is read at the 3^n pairs b <= b2 only, each b2 being
    b joined with a part of its complement."""
    if is_monotone(alg, table):
        return
    for b in alg.elements():
        tb = table[b]
        for s in _submasks(alg.top & ~b):
            if tb & ~table[b | s]:
                yield b, b | s


def _defect_pairs(alg: BoolAlg, defects: list[int]) -> list[tuple[int, int]] | None:
    """The pairs a <= b of element indices with a, b, a & b or a | b among
    `defects`, sorted; None when they would not be fewer than all pairs.
    The pairs meeting or joining to a defect d are read off the submasks
    of d and of its complement: about 3^k and 3^(n-k) of them, for k the
    atoms below d."""
    n, size = alg.atoms, alg.size
    bound = 0
    for d in defects:
        k = d.bit_count()
        bound += size + (3 ** k + 1) // 2 + (3 ** (n - k) + 1) // 2
    if bound >= size * (size + 1) // 2:
        return None
    keys = set()
    for d in defects:
        keys.update(d * size + x if d <= x else x * size + d for x in range(size))
        for a in _submasks(d):
            # a | b == d: b holds the rest of d and any part of a
            rest = d ^ a
            keys.update(a * size + b if a <= b else b * size + a for b in (rest | s for s in _submasks(a)))
        free = alg.top & ~d
        for x in _submasks(free):
            # a & b == d: a = d | x and b = d | y with x, y disjoint
            a = d | x
            keys.update(a * size + b if a <= b else b * size + a for b in (d | y for y in _submasks(free ^ x)))
    return [divmod(key, size) for key in sorted(keys)]


def hom_violations(src: BoolAlg, dst: BoolAlg, table) -> Iterator[tuple[str, dict[str, int]]]:
    """The Boolean-homomorphism laws an element table of the right length
    breaks, as (law, where) pairs: top, bottom, neg at each element, and
    meet and join at each pair a <= b of element indices.

    The laws are decided on atoms first, in O(2^n) reads: a finite Boolean
    algebra is the powerset of its atoms (finite Stone duality), so a table
    is a homomorphism iff it preserves joins, its atom images are pairwise
    disjoint, and they join to the top.

    When the test fails, the pairs read are those that can break meet or
    join.  The join h of the atom images preserves joins, and meets too
    when the images are pairwise disjoint; then meet and join can fail at
    (a, b) only if a, b, a & b or a | b is a defect, an element where the
    table differs from h.  All 4^n/2 pairs are enumerated only when the
    images overlap or those pairs would not be fewer."""
    joins = _atom_joins(table, src)
    seen, disjoint = 0, True
    for i in range(src.atoms):
        image = joins[1 << i]
        disjoint = disjoint and not image & seen
        seen |= image
    defects = [] if joins == list(table) else [a for a, v in enumerate(joins) if table[a] != v]
    if disjoint and not defects and seen == dst.top:
        return
    if table[src.top] != dst.top:
        yield "top", {}
    if table[src.bot] != dst.bot:
        yield "bottom", {}
    for a in src.elements():
        if table[src.neg(a)] != dst.neg(table[a]):
            yield "neg", {"elem": a}
    pairs = _defect_pairs(src, defects) if disjoint else None
    if pairs is None:
        pairs = ((a, b) for a in src.elements() for b in range(a, src.size))
    for a, b in pairs:
        if table[a & b] != table[a] & table[b]:
            yield "meet", {"left": a, "right": b}
        if table[a | b] != table[a] | table[b]:
            yield "join", {"left": a, "right": b}


def right_adjoint_of(src: BoolAlg, dst: BoolAlg, f: Callable[[int], int]) -> tuple[int, ...]:
    """The right adjoint of a join-preserving map f: src -> dst, as a table
    indexed by dst elements: R(b) = join of all a with f(a) <= b.

    f is called once per element of src.  When those values preserve joins
    (`_preserves_joins`), f(a) <= b iff every atom of a has its image below
    b, so R(b) is the join of those atoms, in O(n) per b.  Otherwise the
    join runs over all a, as the definition says."""
    values = [f(a) for a in src.elements()]
    if _preserves_joins(values, src):
        atoms = [(1 << i, values[1 << i]) for i in range(src.atoms)]
        return tuple(src.join_all(bit for bit, v in atoms if dst.leq(v, b)) for b in dst.elements())
    return tuple(src.join_all(a for a, v in enumerate(values) if dst.leq(v, b)) for b in dst.elements())


def subalgebra_atoms(alg: BoolAlg, gens: Iterable[int]) -> list[int]:
    """The atoms of the Boolean subalgebra of alg generated by `gens`, sorted:
    the nonempty cells into which the generators cut the top, each generator
    g splitting a cell c into c & g and c & ~g."""
    cells = [alg.top] if alg.top else []
    for g in gens:
        cells = [part for c in cells for part in (c & g, c & ~g) if part]
    return sorted(cells)


def boolean_closure(alg: BoolAlg, seed: Iterable[int]) -> frozenset[int]:
    """The smallest Boolean subalgebra of alg containing `seed`: every join
    of its atoms."""
    out = [alg.bot]
    for atom in subalgebra_atoms(alg, seed):
        out += [x | atom for x in out]
    return frozenset(out)
