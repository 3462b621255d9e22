"""Finite structures, Tarski evaluation, and countermodel enumeration.

A finite structure interprets function symbols by explicit tables and
predicate symbols by sets of tuples; equality is interpreted as identity.

Formulas are evaluated by two routes:

- `eval_in_structure` walks the formula tree in one structure under one
  assignment.  It is the reference semantics; `falsifying_assignment` loops
  it over the context assignments.
- The block-mask form: `CarrierStructures` numbers the structures of one
  carrier so that, for fixed function tables, the predicate
  interpretations are the bits of one index.  A block of up to 4,096 of
  them is a powerset Boolean algebra: a formula under an assignment
  denotes the mask of the structures it holds in, an atom is a periodic
  mask (or a constant one for the index bits above the block), connectives
  are `& | ^`, and quantifiers are meets and joins over the carrier.
  There is one numbering per carrier size, function symbols and predicate
  list: `carrier_structures` takes it from a bounded cache, and it computes
  the masks of its low cells once.  Every search reads the same numbering,
  and nothing changes it once built.

`countermodel_search` asks `calculus.decide_relational` first, which keeps
its answer on the goal.  A goal the decision proves valid, and on which no
lookup of the scan can fail (every predicate interpreted, no function
symbol, every axiom a sentence; `_total` reads `formula.symbols_of`), has
no countermodel: the calculus is sound in every structure, the empty
carrier included, so the answer is None at every size, and a scan could
raise no error on the way.  The walk may split once for each block the scan
would evaluate, so it never costs more branches than the scan has blocks;
past that it waits on the goal, where a caller with a larger cap
(`prove_bounded`) goes on with it.  Every other goal, refuted, declined or
waiting, or one whose scan may raise, is scanned, so every structure,
assignment and error is the scan's.

The scan, `_countermodel_scan`, filters each block by the masks of the
axioms and of the falsified sequent, then confirms the candidates, lowest
index first, with the reference: the axioms hold and
`falsifying_assignment` finds an assignment.  The masks are taken in the
order the reference runs its checks, and only up to the first check whose
mask fails a lookup (an uninterpreted predicate, a function off its table,
a free variable; see `_Block.candidates`), so a structure outside the mask
is one the plain loop would skip without raising, and the first confirmed
candidate is the plain loop's first countermodel with the same assignment.
When no lookup fails the mask is exact, and the first candidate confirmed
is the first one checked.  tests/test_semantics.py compares each route
with the reference.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .lang import App, Signature, Term, Var
from .formula import (
    And,
    Bot,
    Eq,
    Exists,
    Forall,
    Formula,
    FormulaInContext,
    Imp,
    Not,
    Or,
    Pred,
    Top,
    free_vars,
    symbols_of,
)
from .calculus import Sequent, decide_relational


class SemanticsError(Exception):
    pass


@dataclass
class FiniteStructure:
    carrier: tuple
    functions: dict[str, dict[tuple, object]] = field(default_factory=dict)
    predicates: dict[str, frozenset] = field(default_factory=dict)

    def __post_init__(self):
        if not self.carrier:
            for name, table in self.functions.items():
                if () in table:
                    raise SemanticsError(
                        f"constant {name} cannot be interpreted in the empty structure"
                    )

    def pred(self, name: str) -> frozenset:
        if name not in self.predicates:
            raise SemanticsError(f"predicate {name} has no interpretation")
        return self.predicates[name]


def eval_term(t: Term, m: FiniteStructure, assignment: dict[str, object]):
    if isinstance(t, Var):
        if t.name not in assignment:
            raise SemanticsError(f"variable {t.name} unassigned")
        return assignment[t.name]
    assert isinstance(t, App)
    args = tuple(eval_term(a, m, assignment) for a in t.args)
    table = m.functions.get(t.symbol)
    if table is None or args not in table:
        raise SemanticsError(f"function {t.symbol} undefined at {args}")
    return table[args]


def eval_in_structure(phi, m: FiniteStructure, assignment: Optional[dict] = None) -> bool:
    """Tarski semantics; quantifiers range over the carrier, so both are
    decided vacuously in the empty structure."""
    if isinstance(phi, FormulaInContext):
        phi = phi.formula
    assignment = assignment or {}
    if isinstance(phi, Pred):
        args = tuple(eval_term(t, m, assignment) for t in phi.args)
        return args in m.pred(phi.name)
    if isinstance(phi, Eq):
        return eval_term(phi.left, m, assignment) == eval_term(phi.right, m, assignment)
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Bot):
        return False
    if isinstance(phi, Not):
        return not eval_in_structure(phi.body, m, assignment)
    if isinstance(phi, And):
        return eval_in_structure(phi.left, m, assignment) and eval_in_structure(phi.right, m, assignment)
    if isinstance(phi, Or):
        return eval_in_structure(phi.left, m, assignment) or eval_in_structure(phi.right, m, assignment)
    if isinstance(phi, Imp):
        return (not eval_in_structure(phi.left, m, assignment)) or eval_in_structure(
            phi.right, m, assignment
        )
    if isinstance(phi, Forall):
        return all(
            eval_in_structure(phi.body, m, {**assignment, phi.var: e}) for e in m.carrier
        )
    if isinstance(phi, Exists):
        return any(
            eval_in_structure(phi.body, m, {**assignment, phi.var: e}) for e in m.carrier
        )
    raise SemanticsError(f"not a formula: {phi!r}")


def _falsifies(s: Sequent, m: FiniteStructure, assignment: dict) -> bool:
    return all(eval_in_structure(a, m, assignment) for a in s.antecedent) and not any(
        eval_in_structure(b, m, assignment) for b in s.succedent
    )


def falsifying_assignment(s: Sequent, m: FiniteStructure) -> Optional[dict]:
    """The first context assignment, in `itertools.product` order, that
    satisfies every antecedent and no succedent."""
    for values in itertools.product(m.carrier, repeat=len(s.context)):
        assignment = dict(zip(s.context.vars, values))
        if _falsifies(s, m, assignment):
            return assignment
    return None


# The block-mask route numbers the predicate interpretations of a carrier
# as bits of one index and evaluates 2**_BLOCK_BITS of them at once, so a
# mask is a Python int of at most 4,096 bits (512 bytes).
_BLOCK_BITS = 12
# `_STRIPES[p]` is the 4,096-bit mask of the block indices whose bit p is set.
_STRIPES = tuple(
    int(("1" * (1 << p) + "0" * (1 << p)) * (1 << (_BLOCK_BITS - 1 - p)), 2) for p in range(_BLOCK_BITS)
)


class CarrierStructures:
    """The structures with carrier {0, .., k-1}, numbered in the order in
    which `enumerate_structures` yields them; this class is the one
    definition of that order.

    Structure `i` has function pick `i >> bits` and predicate index
    `i & (2**bits - 1)`.  The pick is a base-k number whose digits, most
    significant first, are the images of the function tables, symbol by
    symbol, each over its domain in `itertools.product` order.  The
    predicate index has one bit per cell, a (predicate, tuple) pair: cells
    run predicate by predicate, each over its domain in `itertools.product`
    order, and the first cell is the most significant bit."""

    def __init__(self, k: int, functions, predicates):
        self.carrier = tuple(range(k))
        self.functions = [(name, list(itertools.product(self.carrier, repeat=a))) for name, a in functions]
        self.picks = k ** sum(len(domain) for _, domain in self.functions)
        domains = [(name, list(itertools.product(self.carrier, repeat=a))) for name, a in predicates]
        self.bits = sum(len(domain) for _, domain in domains)
        bit = itertools.count(self.bits - 1, -1)
        self.cells = [(name, [(t, next(bit)) for t in domain]) for name, domain in domains]
        self.count = self.picks << self.bits
        self.width = width = min(self.bits, _BLOCK_BITS)
        self.full = full = (1 << (1 << width)) - 1
        # per predicate, the masks of its cells below the block width, the
        # same in every block, and its cells above it, constant in a block
        self.low = {name: {t: _STRIPES[bit] & full for t, bit in cells if bit < width} for name, cells in self.cells}
        high = {name: [(t, bit - width) for t, bit in cells if bit >= width] for name, cells in self.cells}
        self.high = {name: cells for name, cells in high.items() if cells}

    def tables(self, pick: int) -> dict[str, dict[tuple, object]]:
        images = []
        for _ in range(sum(len(domain) for _, domain in self.functions)):
            pick, image = divmod(pick, len(self.carrier))
            images.append(image)
        digits = reversed(images)
        return {name: dict(zip(domain, digits)) for name, domain in self.functions}

    def structure(self, index: int) -> FiniteStructure:
        if not 0 <= index < self.count:
            raise IndexError(f"structure {index} of {self.count}")
        predicates = {name: frozenset(t for t, bit in cells if index >> bit & 1) for name, cells in self.cells}
        return FiniteStructure(self.carrier, self.tables(index >> self.bits), predicates)

    def blocks(self, pick: int) -> Iterator[tuple[int, "_Block"]]:
        """The structures of one function pick in blocks of at most 4,096,
        each with the index of its first structure.  Within a block a cell
        among the low bits is a periodic mask and a higher cell is constant.
        When every cell is a low one there is one block, and its atom table
        is `low` itself, shared by every search."""
        width, full, low = self.width, self.full, self.low
        functions = self.tables(pick)
        for block in range(1 << (self.bits - width)):
            atoms = low if not self.high else {**low, **{
                name: {**low[name], **{t: full if block >> b & 1 else 0 for t, b in cells}}
                for name, cells in self.high.items()
            }}
            yield (pick << self.bits) | (block << width), _Block(self.carrier, functions, atoms, full)


class _Block:
    """Structures that share a carrier and function tables and differ only
    in their predicates, one bit each.  A formula denotes the mask of the
    structures it holds in: the powerset Boolean algebra of the block, with
    `& | ^` for the connectives and meets and joins over the carrier for the
    quantifiers."""

    __slots__ = ("carrier", "functions", "atoms", "full")

    def __init__(self, carrier: tuple, functions: dict, atoms: dict, full: int):
        self.carrier, self.functions, self.atoms, self.full = carrier, functions, atoms, full

    def value(self, t: Term, env: dict):
        if isinstance(t, Var):
            return env[t.name]
        return self.functions[t.symbol][tuple(self.value(a, env) for a in t.args)]

    def mask(self, phi: Formula, env: dict) -> int:
        if isinstance(phi, Pred):
            return self.atoms[phi.name].get(tuple(self.value(t, env) for t in phi.args), 0)
        if isinstance(phi, Eq):
            return self.full if self.value(phi.left, env) == self.value(phi.right, env) else 0
        if isinstance(phi, Top):
            return self.full
        if isinstance(phi, Bot):
            return 0
        if isinstance(phi, Not):
            return self.full ^ self.mask(phi.body, env)
        if isinstance(phi, Forall):
            out = self.full
            for e in self.carrier:
                out &= self.mask(phi.body, {**env, phi.var: e})
            return out
        if isinstance(phi, Exists):
            out = 0
            for e in self.carrier:
                out |= self.mask(phi.body, {**env, phi.var: e})
            return out
        left, right = self.mask(phi.left, env), self.mask(phi.right, env)
        if isinstance(phi, And):
            return left & right
        if isinstance(phi, Or):
            return left | right
        return (self.full ^ left) | right

    def candidates(self, axioms: list[Formula], s: Sequent) -> int:
        """The structures that satisfy the axioms and falsify `s`, or more.

        The checks run in the order of the reference ones, axioms first.
        This evaluation visits every subformula under every assignment the
        reference can visit, with the same function tables, so a check that
        fails no lookup here raises in no structure of the block.  A failed
        lookup (an uninterpreted predicate, a function applied off its
        table, an unbound variable) stops the filter: that check might
        raise, so it and the checks after it are left to the confirm step.
        Otherwise the mask holds exactly the countermodels of the block."""
        out = self.full
        try:
            for ax in axioms:
                out &= self.mask(ax, {})
            out &= self.falsifying(s)
        except KeyError:
            pass
        return out

    def falsifying(self, s: Sequent) -> int:
        """The structures with some context assignment that satisfies every
        antecedent and no succedent."""
        out = 0
        for values in itertools.product(self.carrier, repeat=len(s.context)):
            env = dict(zip(s.context.vars, values))
            mask = self.full
            for phi in s.antecedent:
                mask &= self.mask(phi, env)
            for phi in s.succedent:
                mask &= ~self.mask(phi, env)
            out |= mask
        return out


# one numbering per (k, functions, predicates), shared by every search; 64
# holds every carrier size of a few signatures and predicate lists
_numbering = functools.lru_cache(maxsize=64)(CarrierStructures)


def carrier_structures(
    signature: Signature,
    size: int,
    predicates: Optional[Iterable[tuple[str, int]]] = None,
) -> Iterator[CarrierStructures]:
    """The numbered structures of each carrier size k <= size, smallest
    first.  The empty carrier is included unless the signature has
    constants.  `predicates` restricts/extends the interpreted predicate
    symbols, which matters for signatures with infinite predicate
    families.  The numberings are shared by every caller: read them, never
    change them."""
    preds = tuple(signature.predicates if predicates is None else predicates)
    start = 0 if not signature.constants() else 1
    for k in range(start, size + 1):
        yield _numbering(k, tuple(signature.functions), preds)


def enumerate_structures(
    signature: Signature,
    size: int,
    predicates: Optional[list[tuple[str, int]]] = None,
) -> Iterator[FiniteStructure]:
    """All structures with carrier {0, .., k-1} for k <= size, in the order
    `CarrierStructures` numbers them (smaller carriers first,
    interpretations lexicographic); `carrier_structures` says which
    carriers and predicates."""
    for numbered in carrier_structures(signature, size, predicates):
        for index in range(numbered.count):
            yield numbered.structure(index)


def countermodel_search(
    s: Sequent,
    axioms: Iterable[Formula],
    signature: Signature,
    size: int,
    predicates: Optional[list[tuple[str, int]]] = None,
) -> Optional[tuple[FiniteStructure, dict]]:
    """First structure (in enumeration order) satisfying the bounded axiom
    set and falsifying the sequent, with a falsifying assignment.

    `decide_relational` runs first, with one split for each block the scan
    would evaluate.  A goal it proves valid, on which no lookup of the scan
    can fail (`_total`), returns None without enumerating anything: the
    calculus is sound in every structure, the empty one included, so no
    structure of any size falsifies it, and the scan would raise nothing.
    Every other goal is scanned by `_countermodel_scan`."""
    axioms = list(axioms)
    preds = tuple(signature.predicates if predicates is None else predicates)
    blocks = sum(n.picks << (n.bits - n.width) for n in carrier_structures(signature, size, preds))
    if decide_relational(s, axioms, signature, blocks) is True and _total(s, axioms, {name for name, _ in preds}):
        return None
    return _countermodel_scan(s, axioms, signature, size, preds)


def _total(s: Sequent, axioms: list[Formula], interpreted: set[str]) -> bool:
    """Whether no lookup of the scan can fail on `s` and `axioms`, read off
    the symbols kept on each formula: every predicate is interpreted, no
    function symbol occurs (a term is a `Var` or an `App`), and the axioms
    are sentences (a sequent's formulas lie in its context)."""
    for phi in (*s.antecedent, *s.succedent, *axioms):
        preds, functions, _ = symbols_of(phi)
        if functions or any(name not in interpreted for name, _ in preds):
            return False
    return not any(free_vars(ax) for ax in axioms)


def _countermodel_scan(
    s: Sequent,
    axioms: Iterable[Formula],
    signature: Signature,
    size: int,
    predicates: Optional[Iterable[tuple[str, int]]] = None,
) -> Optional[tuple[FiniteStructure, dict]]:
    """`countermodel_search` without the decision: every structure in
    enumeration order.

    Each block of structures is filtered by its masks first; the candidates
    are then confirmed lowest index first by the reference checks, which
    decide, and raise, exactly as without the filter.  When the mask is
    exact, the first candidate is the countermodel and its confirm returns
    at once."""
    axioms = list(axioms)
    for numbered in carrier_structures(signature, size, predicates):
        for pick in range(numbered.picks):
            for first, block in numbered.blocks(pick):
                candidates = block.candidates(axioms, s)
                while candidates:
                    low = candidates & -candidates
                    candidates ^= low
                    m = numbered.structure(first + low.bit_length() - 1)
                    if all(eval_in_structure(ax, m, {}) for ax in axioms):
                        assignment = falsifying_assignment(s, m)
                        if assignment is not None:
                            return m, assignment
    return None
