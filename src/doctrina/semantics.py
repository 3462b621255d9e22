"""Finite structures, Tarski evaluation, and countermodel enumeration.

A finite structure interprets function symbols by explicit tables and
predicate symbols by sets of tuples; equality is interpreted as identity.
Formulas-in-context can also be interpreted as sets of assignment tuples,
which is the powerset-doctrine reading of a formula and is what ties the
calculus to set semantics in tests.

Formulas are evaluated by three routes:

- `eval_in_structure` walks the formula tree in one structure under one
  assignment.  It is the reference semantics.
- The per-structure compiled form: `sequent_valid_in_structure`,
  `falsifying_assignment` and the confirm step of `countermodel_search`
  compile each sequent once into one Python function, kept on the
  sequent, that loops over the context assignments with every variable in
  a positional slot.  It agrees with the reference on every input,
  including the first falsifying assignment and the `SemanticsError`s
  raised (lazily, for what is actually evaluated).
- The block-mask form: `CarrierStructures` numbers the structures of one
  carrier so that, for fixed function tables, the predicate
  interpretations are the bits of one index.  A block of up to 4,096 of
  them is a powerset Boolean algebra: a formula under an assignment
  denotes the mask of the structures it holds in, an atom is a periodic
  mask (or a constant one for the index bits above the block), connectives
  are `& | ^`, and quantifiers are meets and joins over the carrier.

`countermodel_search` filters each block by the masks of the axioms and of
the falsified sequent, then confirms the candidates, lowest index first,
with the reference axiom check and the compiled sequent.  The confirm step
keeps the results exact.  The masks are taken in the order the confirm step
runs its checks, and only up to the first check whose mask fails a lookup
(see `_Block.candidates`), so a structure outside the mask is one the plain
loop would skip without raising, and the first confirmed candidate is the
plain loop's first countermodel with the same assignment.
tests/test_semantics.py compares each route with the reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Optional

from .lang import App, CtxMorphism, Signature, Term, Var
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
)
from .calculus import Sequent


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

    def describe(self) -> str:
        bits = [f"carrier={list(self.carrier)}"]
        for name in sorted(self.functions):
            bits.append(f"{name}={dict(sorted(self.functions[name].items(), key=repr))}")
        for name in sorted(self.predicates):
            bits.append(f"{name}={sorted(self.predicates[name], key=repr)}")
        return "; ".join(bits)


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


def interpret_tuples(fic: FormulaInContext, m: FiniteStructure) -> frozenset[tuple]:
    """The powerset-doctrine interpretation: the set of context assignments
    (as tuples, in context order) satisfying the formula."""
    ctx = fic.context
    out = []
    for values in itertools.product(m.carrier, repeat=len(ctx)):
        if eval_in_structure(fic.formula, m, dict(zip(ctx.vars, values))):
            out.append(values)
    return frozenset(out)


def reindex_tuples(
    f: CtxMorphism, m: FiniteStructure, subset: frozenset[tuple]
) -> frozenset[tuple]:
    """Preimage along the map induced by a tuple of terms: the reindexing of
    the powerset doctrine."""
    out = []
    for values in itertools.product(m.carrier, repeat=len(f.source)):
        assignment = dict(zip(f.source.vars, values))
        image = tuple(eval_term(t, m, assignment) for t in f.components)
        if image in subset:
            out.append(values)
    return frozenset(out)


class _Uninterpreted:
    """Stands in for a predicate the structure leaves uninterpreted: looking
    a tuple up raises, as `FiniteStructure.pred` does, but only once an atom
    over the predicate is actually evaluated."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __contains__(self, args) -> bool:
        raise SemanticsError(f"predicate {self.name} has no interpretation")


def _undefined(symbol: str, args: tuple):
    raise SemanticsError(f"function {symbol} undefined at {args}")


_NO_TABLE = MappingProxyType({})

# The tokenizer rejects more than 200 nested brackets; a subexpression
# nested deeper than this is moved into a helper function of its own.
_MAX_NESTING = 50


class _SequentCompiler:
    """Translates one sequent into the source of a Python function.

    No name from the sequent enters the source: variables become slots
    `v0, v1, ..` (context variables first, then one fresh slot per binder,
    so shadowing is resolved here), predicates become parameters `P0, ..`
    and function symbols `F0, ..`, whose names the generated code reads from
    the tuple `K` only to report an undefined application.  Every expression
    mirrors the short-circuit order of `eval_in_structure`, so the same
    inputs are evaluated and the same errors raised."""

    def __init__(self):
        self.preds: dict[str, int] = {}
        self.funcs: dict[str, int] = {}
        self.helpers: list[str] = []
        self.slots = 0
        self.apps = 0

    def fresh_slot(self) -> str:
        self.slots += 1
        return f"v{self.slots - 1}"

    def hoisted(self, compiled: tuple[str, int], scope: dict[str, str]) -> tuple[str, int]:
        code, nesting = compiled
        if nesting <= _MAX_NESTING:
            return compiled
        params = ", ".join(scope.values())
        name = f"_h{len(self.helpers)}"
        self.helpers.append(f"    def {name}({params}):\n      return {code}\n")
        return f"{name}({params})", 1

    def term(self, t: Term, scope: dict[str, str]) -> tuple[str, int]:
        return self.hoisted(self._term(t, scope), scope)

    def _term(self, t: Term, scope: dict[str, str]) -> tuple[str, int]:
        if isinstance(t, Var):
            return scope[t.name], 0
        assert isinstance(t, App)
        args, nesting = self.arguments(t.args, scope)
        index = self.funcs.setdefault(t.symbol, len(self.funcs))
        key = f"_a{self.apps}"
        self.apps += 1
        code = f"(F{index}[{key}] if ({key} := {args}) in F{index} else _undefined(K[{index}], {key}))"
        return code, nesting + 3

    def arguments(self, ts, scope: dict[str, str]) -> tuple[str, int]:
        parts = [self.term(t, scope) for t in ts]
        code = "(" + "".join(f"{c}, " for c, _ in parts) + ")"
        return code, 1 + max((n for _, n in parts), default=0)

    def formula(self, phi: Formula, scope: dict[str, str]) -> tuple[str, int]:
        return self.hoisted(self._formula(phi, scope), scope)

    def _formula(self, phi: Formula, scope: dict[str, str]) -> tuple[str, int]:
        if isinstance(phi, Pred):
            args, nesting = self.arguments(phi.args, scope)
            table = f"P{self.preds.setdefault(phi.name, len(self.preds))}"
            return f"({args} in {table})", nesting + 1
        if isinstance(phi, Eq):
            (left, ln), (right, rn) = (self.term(t, scope) for t in (phi.left, phi.right))
            return f"({left} == {right})", 1 + max(ln, rn)
        if isinstance(phi, Top):
            return "True", 0
        if isinstance(phi, Bot):
            return "False", 0
        if isinstance(phi, Not):
            body, nesting = self.formula(phi.body, scope)
            return f"(not {body})", nesting + 1
        if isinstance(phi, (And, Or, Imp)):
            (left, ln), (right, rn) = (self.formula(f, scope) for f in (phi.left, phi.right))
            if isinstance(phi, And):
                code = f"({left} and {right})"
            elif isinstance(phi, Or):
                code = f"({left} or {right})"
            else:
                code = f"(not {left} or {right})"
            return code, 1 + max(ln, rn)
        if isinstance(phi, (Forall, Exists)):
            slot = self.fresh_slot()
            body, nesting = self.formula(phi.body, {**scope, phi.var: slot})
            quantifier = "all" if isinstance(phi, Forall) else "any"
            return f"{quantifier}({body} for {slot} in C)", nesting + 1
        raise SemanticsError(f"not a formula: {phi!r}")

    def sequent(self, s: Sequent) -> str:
        scope = {v: self.fresh_slot() for v in s.context.vars}
        ants = [self.formula(a, scope)[0] for a in s.antecedent]
        sucs = [self.formula(b, scope)[0] for b in s.succedent]
        falsified = " and ".join(ants + [f"not ({' or '.join(sucs) or 'False'})"])
        values = "(" + "".join(f"{v}, " for v in scope.values()) + ")"
        params = ", ".join(
            ["C"] + [f"P{i}" for i in range(len(self.preds))] + [f"F{i}" for i in range(len(self.funcs))]
        )
        return (
            "def _build(K, _product, _undefined):\n"
            f"  def _falsify({params}):\n"
            f"{''.join(self.helpers)}"
            f"    for {values} in _product(C, repeat={len(scope)}):\n"
            f"      if {falsified}:\n"
            f"        return {values}\n"
            "    return None\n"
            "  return _falsify\n"
        )


class _CompiledSequent:
    """A sequent's falsification loop as one generated function over the
    structure's carrier, predicate sets and function tables."""

    __slots__ = ("falsify", "vars", "preds", "funcs")

    def __init__(self, s: Sequent):
        compiler = _SequentCompiler()
        source = compiler.sequent(s)
        namespace: dict = {}
        exec(compile(source, "<doctrina compiled sequent>", "exec"), namespace)
        self.funcs = tuple(compiler.funcs)
        self.falsify = namespace["_build"](self.funcs, itertools.product, _undefined)
        self.vars = s.context.vars
        self.preds = tuple((name, _Uninterpreted(name)) for name in compiler.preds)

    def __call__(self, m: FiniteStructure) -> Optional[dict]:
        """The first context assignment, in `itertools.product` order over
        the carrier, that satisfies every antecedent and no succedent."""
        preds, funcs = m.predicates, m.functions
        values = self.falsify(
            m.carrier,
            *[preds.get(name, missing) for name, missing in self.preds],
            *[funcs.get(name) or _NO_TABLE for name in self.funcs],
        )
        return None if values is None else dict(zip(self.vars, values))


def _compiled(s: Sequent) -> _CompiledSequent:
    compiled = getattr(s, "_compiled", None)
    if compiled is None:
        compiled = _CompiledSequent(s)
        object.__setattr__(s, "_compiled", compiled)
    return compiled


def sequent_valid_in_structure(s: Sequent, m: FiniteStructure) -> bool:
    """True when every assignment satisfying all antecedents satisfies some
    succedent."""
    return _compiled(s)(m) is None


def falsifying_assignment(s: Sequent, m: FiniteStructure) -> Optional[dict]:
    """The first context assignment, in `itertools.product` order, that
    satisfies every antecedent and no succedent."""
    return _compiled(s)(m)


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
        among the low bits is a periodic mask and a higher cell is constant."""
        width = min(self.bits, _BLOCK_BITS)
        full = (1 << (1 << width)) - 1
        functions = self.tables(pick)
        for block in range(1 << (self.bits - width)):
            atoms = {
                name: {
                    t: _STRIPES[bit] & full if bit < width else full if block >> (bit - width) & 1 else 0
                    for t, bit in cells
                }
                for name, cells in self.cells
            }
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

        The checks run in the order of the per-structure ones, axioms first.
        This evaluation visits every subformula under every assignment the
        per-structure one can visit, with the same function tables, so a
        check that fails no lookup here raises in no structure of the block.
        A failed lookup (an uninterpreted predicate, a function applied off
        its table, an unbound variable) stops the filter: that check might
        raise, so it and the checks after it are left to the confirm step."""
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


def carrier_structures(
    signature: Signature,
    size: int,
    predicates: Optional[list[tuple[str, int]]] = None,
) -> Iterator[CarrierStructures]:
    """The numbered structures of each carrier size k <= size, smallest
    first.  The empty carrier is included unless the signature has
    constants.  `predicates` restricts/extends the interpreted predicate
    symbols, which matters for signatures with infinite predicate
    families."""
    preds = list(signature.predicates) if predicates is None else list(predicates)
    start = 0 if not signature.constants() else 1
    for k in range(start, size + 1):
        yield CarrierStructures(k, signature.functions, preds)


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

    Each block of structures is filtered by its masks first; the candidates
    are then confirmed lowest index first by the per-structure checks, which
    decide, and raise, exactly as without the filter."""
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
                        assignment = _compiled(s)(m)
                        if assignment is not None:
                            return m, assignment
    return None
