"""The s-expression text format for every document the tools exchange:
formulas, sequents, signatures, theories, structures, proofs, doctrine
descriptions, and markings.  Parsing is whitespace-insensitive, and every
error names its position as a 1-based `line:col`.  Printing is canonical, so
parse after print is the identity on every document the suite produces.
Documents nest at most `MAX_NESTING` brackets deep.

The tree is built once per bracket, not once per token: a list (`SList`)
keeps the token indices of its `(` and its `)`, and an atom is a plain `str`
in its list.  Positions are computed only when an error is raised: an atom's
token index is its parent's `(` plus one plus the tokens of its earlier
siblings (`_at`), and `tokenize` turns a token index into `line:col`."""

from __future__ import annotations

import re
from typing import Optional, Union

from .lang import App, Context, LangError, PredicateFamily, Signature, Term, Var
from .formula import (
    And,
    Bot,
    Eq,
    Exists,
    Forall,
    Formula,
    Imp,
    Not,
    Or,
    Pred,
    Top,
)
from .calculus import _POSITIONAL, ProofTree, Rule, Sequent
from .boolalg import BoolAlg, BoolAlgError
from .category import FPCategory
from .doctrine import Doctrine, Marking
from .semantics import FiniteStructure, SemanticsError
from .syntactic import SyntacticError, Theory


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"parse error at {line}:{col}: {message}")
        self.line = line
        self.col = col


class _Source:
    """The text of one parse.  Its token positions are computed, by
    `tokenize`, only when a node's position is first read: when an error
    is raised."""

    __slots__ = ("text", "positions")

    def __init__(self, text: str):
        self.text = text
        self.positions: Optional[list] = None

    def position(self, k: int) -> tuple[int, int]:
        if self.positions is None:
            self.positions = [(line, col) for _, line, col in tokenize(self.text)]
        return self.positions[k]


class SList:
    """A bracketed list: its items, each a `str` atom or an `SList`, and the
    token indices of its `(` (`index`) and of its `)` (`close`, set when the
    `)` is read)."""

    __slots__ = ("items", "index", "close", "source")

    def __init__(self, items: list, index: int, source: _Source):
        self.items = items
        self.index = index
        self.source = source


class SAtom(str):
    """An atom that knows its token index.  A list holds its atoms as plain
    `str`; this view is built only for a document that is one atom, for an
    atom a reader passes to a reader that may report it, and for an atom
    being reported (`_at`)."""

    def __new__(cls, text: str, index: int, source: _Source):
        atom = super().__new__(cls, text)
        atom.index = index
        atom.source = source
        return atom


SNode = Union[str, SList]

# The formula, term and proof walkers recurse once per bracket of their
# input, with up to four Python frames each; within this limit they stay
# under Python's default recursion limit of 1000, so deeper input is refused
# here instead.
MAX_NESTING = 200

# A bracket, an atom, a comment or a line break.  An atom is a run of
# characters other than brackets, `;` and the four separators: space, tab,
# CR and LF (nothing else separates atoms, so `\x0b` or `\xa0` stays inside
# one).  A comment runs to the end of its line.  `tokenize` matches line
# breaks to count lines; the other separators match nothing and are skipped.
# `parse_many` reads the same brackets and atoms, in the same order, from the
# text with its comments removed.
_COMMENT = re.compile(r";[^\n]*")
_TOKEN = re.compile(rf"[()]|[^(); \t\r\n]+|{_COMMENT.pattern}|\n")


def tokenize(text: str):
    """The brackets and atoms of `text` as (token, line, column) triples,
    1-based, a column counting characters from the start of its line."""
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok == "\n":
            line += 1
            line_start = m.end()
        elif tok[0] != ";":
            yield (tok, line, m.start() - line_start + 1)


def parse_sexpr(text: str) -> SNode:
    nodes = parse_many(text)
    if len(nodes) != 1:
        raise ParseError(f"expected one document, found {len(nodes)}", 1, 1)
    return nodes[0]


def parse_many(text: str) -> list[SNode]:
    """The documents of `text`, a document that is one atom as an `SAtom`.

    The text is split at its brackets, and each run between two brackets
    into atoms at the separators alone, so the loop turns once per bracket.
    The documents are the items of a root list whose `(` is token -1; `k`
    counts the tokens read, in the order of `tokenize`, which gives the
    position of token `k` when an error needs one."""
    source = _Source(text)
    if ";" in text:
        text = _COMMENT.sub("", text)
    text = text.replace("\t", " ").replace("\r", " ").replace("\n", " ")
    root = SList([], -1, source)
    stack = [root]
    items = root.items
    k = 0
    for i, piece in enumerate(text.split("(")):
        for j, run in enumerate(piece.split(")")):
            if j:  # the run follows a `)`
                if len(stack) == 1:
                    raise ParseError("unmatched ')'", *source.position(k))
                stack.pop().close = k
                items = stack[-1].items
                k += 1
            elif i:  # the run follows a `(`
                if len(stack) > MAX_NESTING:
                    raise ParseError(f"nesting deeper than {MAX_NESTING} brackets", *source.position(k))
                node = SList([], k, source)
                items.append(node)
                stack.append(node)
                items = node.items
                k += 1
            if run and run != " ":
                before = len(items)
                items += filter(None, run.split(" "))
                k += len(items) - before
    if len(stack) > 1:
        _fail(stack[-1], "unclosed '('")
    out = root.items
    k = 0
    for i, node in enumerate(out):
        if isinstance(node, SList):
            k = node.close + 1
        else:
            out[i] = SAtom(node, k, source)
            k += 1
    return out


def _at(parent: SList, k: int) -> SNode:
    """Item `k` of `parent`, an atom as an `SAtom`: its token index is the
    parent's `(` plus one plus the tokens of the items before it."""
    node = parent.items[k]
    if isinstance(node, SList):
        return node
    index = parent.index + 1
    for item in parent.items[:k]:
        index += item.close - item.index + 1 if isinstance(item, SList) else 1
    return SAtom(node, index, parent.source)


def _fail(node: Union[SAtom, SList], message: str):
    raise ParseError(message, *node.source.position(node.index))


def _head(node: SNode) -> Optional[str]:
    if isinstance(node, SList) and node.items and isinstance(node.items[0], str):
        return node.items[0]
    return None


def _atom_text(node: SNode, what: str) -> str:
    if not isinstance(node, str):
        _fail(node, f"expected {what}")
    return node


# an integer is ASCII decimal: `int` alone would also read `1_0`, `\u0661`
# and an atom ending in a Unicode space
_DECIMAL = re.compile(r"-?[0-9]+")


def decimal(text: str) -> Optional[int]:
    """`text` as an integer when it is ASCII decimal (`-?[0-9]+`), else None;
    the one reading of integers in documents, options and settings."""
    try:
        return int(text) if _DECIMAL.fullmatch(text) else None
    except ValueError:  # more digits than `int` reads
        return None


def _int(item: SList, k: int, what: str) -> int:
    """Item `k` of `item` as an integer."""
    text = _atom_text(item.items[k], what)
    value = decimal(text)
    if value is None:
        _fail(_at(item, k), f"expected an integer {what}, got {text!r}")
    return value


# --- terms and formulas -------------------------------------------------------


def parse_term(node: SNode) -> Term:
    if isinstance(node, str):
        return Var(str(node))  # a plain `str`, also for an `SAtom`
    if not node.items:
        _fail(node, "empty term")
    sym = _atom_text(node.items[0], "function symbol")
    return App(sym, tuple(parse_term(a) for a in node.items[1:]))


def term_sexpr(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    assert isinstance(t, App)
    if not t.args:
        return f"({t.symbol})"
    return "(" + " ".join([t.symbol] + [term_sexpr(a) for a in t.args]) + ")"


_CONNECTIVES = {"true", "false", "not", "and", "or", "imp", "forall", "exists", "="}


def parse_formula(node: SNode) -> Formula:
    if isinstance(node, str):
        if node == "true":
            return Top()
        if node == "false":
            return Bot()
        return Pred(str(node))  # a plain `str`, also for an `SAtom`
    if not node.items:
        _fail(node, "empty formula")
    head = _atom_text(node.items[0], "formula head")
    rest = node.items[1:]
    if head == "true" and not rest:
        return Top()
    if head == "false" and not rest:
        return Bot()
    if head == "not":
        if len(rest) != 1:
            _fail(node, "not takes one argument")
        return Not(parse_formula(rest[0]))
    if head in ("and", "or"):
        if len(rest) < 2:
            _fail(node, f"{head} takes at least two arguments")
        parts = [parse_formula(r) for r in rest]
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = (And if head == "and" else Or)(p, out)
        return out
    if head == "imp":
        if len(rest) != 2:
            _fail(node, "imp takes two arguments")
        return Imp(parse_formula(rest[0]), parse_formula(rest[1]))
    if head in ("forall", "exists"):
        if len(rest) != 2:
            _fail(node, f"{head} takes a variable and a body")
        v = _atom_text(rest[0], "bound variable")
        body = parse_formula(rest[1])
        return (Forall if head == "forall" else Exists)(v, body)
    if head == "=":
        if len(rest) != 2:
            _fail(node, "= takes two terms")
        return Eq(parse_term(rest[0]), parse_term(rest[1]))
    return Pred(head, tuple(parse_term(a) for a in rest))


def formula_sexpr(phi: Formula) -> str:
    """The formula's document text, kept on the node after the first call
    as `canonical_form` keeps its result: a proof repeats the same formula
    objects at many nodes, and each is printed once."""
    text = getattr(phi, "_sexpr", None)
    if text is None:
        text = _formula_text(phi)
        object.__setattr__(phi, "_sexpr", text)
    return text


def _formula_text(phi: Formula) -> str:
    if isinstance(phi, Top):
        return "true"
    if isinstance(phi, Bot):
        return "false"
    if isinstance(phi, Pred):
        if not phi.args:
            return phi.name
        return "(" + " ".join([phi.name] + [term_sexpr(t) for t in phi.args]) + ")"
    if isinstance(phi, Eq):
        return f"(= {term_sexpr(phi.left)} {term_sexpr(phi.right)})"
    if isinstance(phi, Not):
        return f"(not {formula_sexpr(phi.body)})"
    if isinstance(phi, And):
        return f"(and {formula_sexpr(phi.left)} {formula_sexpr(phi.right)})"
    if isinstance(phi, Or):
        return f"(or {formula_sexpr(phi.left)} {formula_sexpr(phi.right)})"
    if isinstance(phi, Imp):
        return f"(imp {formula_sexpr(phi.left)} {formula_sexpr(phi.right)})"
    if isinstance(phi, Forall):
        return f"(forall {phi.var} {formula_sexpr(phi.body)})"
    if isinstance(phi, Exists):
        return f"(exists {phi.var} {formula_sexpr(phi.body)})"
    raise ParseError(f"cannot print {phi!r}")


# --- sequents ------------------------------------------------------------------


def parse_sequent(node: SNode) -> Sequent:
    if _head(node) != "seq":
        _fail(node, "expected (seq (ctx ...) (ants ...) (sucs ...))")
    ctx_node = ants_node = sucs_node = None
    for k, item in enumerate(node.items[1:], 1):
        h = _head(item)
        if h == "ctx":
            ctx_node = item
        elif h == "ants":
            ants_node = item
        elif h == "sucs":
            sucs_node = item
        else:
            _fail(_at(node, k), "expected a ctx, ants, or sucs section")
    if ctx_node is None:
        _fail(node, "missing (ctx ...)")
    vars_ = tuple(_atom_text(v, "variable") for v in ctx_node.items[1:])
    try:
        ctx = Context(vars_)
    except Exception as e:
        _fail(ctx_node, str(e))
    ants = tuple(parse_formula(f) for f in (ants_node.items[1:] if ants_node else []))
    sucs = tuple(parse_formula(f) for f in (sucs_node.items[1:] if sucs_node else []))
    try:
        return Sequent(ctx, ants, sucs)
    except Exception as e:
        _fail(node, str(e))


def sequent_sexpr(s: Sequent) -> str:
    ctx = " ".join(s.context.vars)
    ants = " ".join(formula_sexpr(f) for f in s.antecedent)
    sucs = " ".join(formula_sexpr(f) for f in s.succedent)
    return f"(seq (ctx{' ' + ctx if ctx else ''}) (ants{' ' + ants if ants else ''}) (sucs{' ' + sucs if sucs else ''}))"


# --- signatures and theories ----------------------------------------------------


def parse_signature(node: SNode) -> Signature:
    if _head(node) != "signature":
        _fail(node, "expected (signature ...)")
    functions: list[tuple[str, int]] = []
    predicates: list[tuple[str, int]] = []
    families: list[PredicateFamily] = []
    for k, item in enumerate(node.items[1:], 1):
        h = _head(item)
        if h in ("functions", "predicates"):
            symbols = functions if h == "functions" else predicates
            for j, f in enumerate(item.items[1:], 1):
                if not isinstance(f, SList) or len(f.items) != 2:
                    _fail(_at(item, j), "expected (name arity)")
                symbols.append((_atom_text(f.items[0], "name"), _int(f, 1, "arity")))
        elif h == "families":
            for fam in item.items[1:]:
                families.append(PredicateFamily(_atom_text(fam, "family prefix")))
        elif item == "equality" or h == "equality":
            # `=` is identity in every signature: the item is read and means nothing
            continue
        else:
            _fail(_at(node, k), "unknown signature section")
    try:
        return Signature(tuple(functions), tuple(predicates), tuple(families))
    except LangError as e:
        _fail(node, str(e))


def signature_sexpr(sig: Signature) -> str:
    parts = ["signature"]
    if sig.functions:
        parts.append("(functions " + " ".join(f"({n} {a})" for n, a in sig.functions) + ")")
    if sig.predicates:
        parts.append("(predicates " + " ".join(f"({n} {a})" for n, a in sig.predicates) + ")")
    if sig.families:
        parts.append("(families " + " ".join(f.prefix for f in sig.families) + ")")
    return "(" + " ".join(parts) + ")"


def parse_theory(node: SNode) -> Theory:
    if _head(node) != "theory":
        _fail(node, "expected (theory (signature ...) (axioms ...))")
    sig = None
    axioms: list[Formula] = []
    axioms_node = node
    for k, item in enumerate(node.items[1:], 1):
        h = _head(item)
        if h == "signature":
            sig = parse_signature(item)
        elif h == "axioms":
            axioms = [parse_formula(f) for f in item.items[1:]]
            axioms_node = item
        else:
            _fail(_at(node, k), "unknown theory section")
    if sig is None:
        _fail(node, "theory needs a signature")
    try:
        return Theory(sig, tuple(axioms))
    except SyntacticError as e:
        _fail(axioms_node, str(e))


def theory_sexpr(theory: Theory) -> str:
    axioms = " ".join(formula_sexpr(a) for a in theory.axioms)
    return f"(theory {signature_sexpr(theory.signature)} (axioms{' ' + axioms if axioms else ''}))"


# --- structures -----------------------------------------------------------------


def parse_structure(node: SNode) -> FiniteStructure:
    if _head(node) != "structure":
        _fail(node, "expected (structure (carrier ...) ...)")
    carrier: tuple = ()
    functions: dict[str, dict[tuple, object]] = {}
    predicates: dict[str, frozenset] = {}
    for k, item in enumerate(node.items[1:], 1):
        h = _head(item)
        if h == "carrier":
            carrier = tuple(_atom_text(e, "carrier element") for e in item.items[1:])
        elif h in ("fun", "pred") and len(item.items) < 2:
            _fail(item, f"{h} needs a name")
        elif h == "fun":
            name = _atom_text(item.items[1], "function name")
            table = {}
            for j, entry in enumerate(item.items[2:], 2):
                if not isinstance(entry, SList) or len(entry.items) != 2:
                    _fail(_at(item, j), "expected ((args...) value)")
                args_node, val = entry.items
                if not isinstance(args_node, SList):
                    _fail(_at(entry, 0), "expected an argument tuple")
                args = tuple(_atom_text(a, "argument") for a in args_node.items)
                table[args] = _atom_text(val, "value")
            functions[name] = table
        elif h == "pred":
            name = _atom_text(item.items[1], "predicate name")
            tuples = []
            for j, entry in enumerate(item.items[2:], 2):
                if not isinstance(entry, SList):
                    _fail(_at(item, j), "expected a tuple")
                tuples.append(tuple(_atom_text(a, "element") for a in entry.items))
            predicates[name] = frozenset(tuples)
        else:
            _fail(_at(node, k), "unknown structure section")
    try:
        return FiniteStructure(carrier, functions, predicates)
    except SemanticsError as e:
        _fail(node, str(e))


def structure_sexpr(m: FiniteStructure) -> str:
    parts = ["structure", "(carrier " + " ".join(str(e) for e in m.carrier) + ")"
             if m.carrier else "(carrier)"]
    for name in sorted(m.functions):
        entries = " ".join(
            f"(({' '.join(map(str, args))}) {val})"
            for args, val in sorted(m.functions[name].items(), key=repr)
        )
        parts.append(f"(fun {name}{' ' + entries if entries else ''})")
    for name in sorted(m.predicates):
        entries = " ".join(
            "(" + " ".join(map(str, t)) + ")" for t in sorted(m.predicates[name], key=repr)
        )
        parts.append(f"(pred {name}{' ' + entries if entries else ''})")
    return "(" + " ".join(parts) + ")"


# --- proofs ---------------------------------------------------------------------


def parse_proof(node: SNode) -> ProofTree:
    if _head(node) != "proof":
        _fail(node, "expected (proof (rule ...) (concl ...) (premises ...))")
    rule = None
    concl = None
    premises: list[ProofTree] = []
    for k, item in enumerate(node.items[1:], 1):
        h = _head(item)
        if h == "rule":
            if len(item.items) < 2:
                _fail(item, "rule needs a tag")
            tag = _atom_text(item.items[1], "rule tag")
            kw = {}
            for j, arg in enumerate(item.items[2:], 2):
                if not isinstance(arg, SList) or len(arg.items) != 2:
                    _fail(_at(item, j), "expected (key value) rule argument")
                key = _atom_text(arg.items[0], "rule argument key")
                val = arg.items[1]
                if key in ("pos", "which"):
                    kw[key] = _int(arg, 1, key)
                elif key in ("term", "term2"):
                    kw[key] = parse_term(val)
                elif key == "var":
                    kw[key] = _atom_text(val, "variable")
                elif key == "formula":
                    kw[key] = parse_formula(val)
                else:
                    _fail(arg, f"unknown rule argument {key}")
            rule = Rule(tag, **kw)
        elif h == "concl":
            if len(item.items) != 2:
                _fail(item, "concl takes one sequent")
            concl = parse_sequent(_at(item, 1))
        elif h == "premises":
            premises = [parse_proof(_at(item, j)) for j in range(1, len(item.items))]
        else:
            _fail(_at(node, k), "unknown proof section")
    if rule is None or concl is None:
        _fail(node, "proof needs a rule and a conclusion")
    return ProofTree(concl, rule, tuple(premises))


def proof_sexpr(p: ProofTree) -> str:
    """Printed with an explicit stack, so proofs deeper than Python's
    recursion limit print too."""
    out: list[str] = []
    stack: list = [p]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        r = item.rule
        args = []
        if r.tag in _POSITIONAL:
            args.append(f"(pos {r.pos})")
        if r.tag in ("LAnd", "ROr"):
            args.append(f"(which {r.which})")
        if r.term is not None:
            args.append(f"(term {term_sexpr(r.term)})")
        if r.term2 is not None:
            args.append(f"(term2 {term_sexpr(r.term2)})")
        if r.var is not None:
            args.append(f"(var {r.var})")
        if r.formula is not None:
            args.append(f"(formula {formula_sexpr(r.formula)})")
        rule = "(rule " + " ".join([r.tag] + args) + ")"
        out.append(f"(proof {rule} (concl {sequent_sexpr(item.conclusion)}) (premises")
        stack.append("))")
        for q in reversed(item.premises):
            stack += (q, " ")
    return "".join(out)


# --- doctrines and markings -------------------------------------------------------


# the parts each doctrine section takes after its head; the open sections
# take any number of further parts: more objects, or their table entries
_DOCTRINE_PARTS = {
    "objects": 0, "terminal": 1, "morphism": 3, "identity": 2, "compose": 3,
    "product": 5, "pairing": 3, "fiber": 2, "reindex": 1, "forall": 2, "delta": 2,
}
_OPEN_SECTIONS = ("objects", "reindex", "forall")


def _element(item: SList, k: int, alg: Optional[BoolAlg], what: str) -> int:
    v = _int(item, k, what)
    if alg is not None and (v < 0 or v >> alg.atoms):
        _fail(_at(item, k), f"{what} {v} is not an element of a fiber with {alg.atoms} atoms")
    return v


def _elements(item: SList, start: int, alg: Optional[BoolAlg], what: str) -> tuple[int, ...]:
    """The integer entries of `item` from part `start` on, each an element
    of `alg` unless it is None: read in one pass when every entry is
    unsigned ASCII decimal, and entry by entry, as `_int` reads them,
    otherwise or to report the first entry that is not one."""
    items = item.items[start:]
    try:
        digits = "".join(items)
        if digits.isascii() and digits.isdigit():
            values = tuple(map(int, items))
            if alg is None or not max(values) >> alg.atoms:
                return values
    except (TypeError, ValueError):  # a list entry, or more digits than `int` reads
        pass
    return tuple(_element(item, k, alg, what) for k in range(start, len(item.items)))


def _table(item: SList, start: int, over: BoolAlg, into: BoolAlg) -> tuple[int, ...]:
    """The entries of a table section from part `start` on: one per element
    of `over` (a huge atom count is refused before its size is built), each
    an element of `into`."""
    count = len(item.items) - start
    if over.atoms >= count.bit_length() or count != over.size:
        _fail(item, f"table has {count} entries for a fiber with {over.atoms} atoms")
    return _elements(item, start, into, "table entry")


def parse_doctrine(node: SNode) -> Doctrine:
    """A doctrine document.  Besides the syntax, the parser checks what the
    verifiers take for granted: every listed object has an identity, a fiber
    and a chosen product with every listed object; every name in a section
    is a listed object or a declared morphism; and every table has one entry
    per element of its fiber, each an element of the fiber it lands in."""
    if _head(node) != "doctrine":
        _fail(node, "expected (doctrine ...)")
    sections: dict[str, list[SList]] = {h: [] for h in _DOCTRINE_PARTS}
    for k, item in enumerate(node.items[1:], 1):
        h = _head(item)
        if h not in _DOCTRINE_PARTS:
            _fail(_at(node, k), "unknown doctrine section")
        n, given = _DOCTRINE_PARTS[h], len(item.items) - 1
        if given < n or (given > n and h not in _OPEN_SECTIONS):
            at_least = "at least " if h in _OPEN_SECTIONS else ""
            _fail(item, f"{h} takes {at_least}{n} part{'s' * (n != 1)}, got {given}")
        sections[h].append(item)

    objects: list[str] = []
    for item in sections["objects"]:
        objects = [_atom_text(o, "object") for o in item.items[1:]]
    listed = set(objects)

    def obj(item: SList, k: int) -> str:
        text = _atom_text(item.items[k], "object")
        if text not in listed:
            _fail(_at(item, k), f"{text} is not a listed object")
        return text

    morphisms: dict[str, tuple[str, str]] = {}
    for item in sections["morphism"]:
        name = _atom_text(item.items[1], "morphism")
        morphisms[name] = (obj(item, 2), obj(item, 3))

    def mor(item: SList, k: int) -> str:
        text = _atom_text(item.items[k], "morphism")
        if text not in morphisms:
            _fail(_at(item, k), f"{text} is not a declared morphism")
        return text

    if not sections["terminal"]:
        _fail(node, "doctrine needs a terminal object")
    terminal = obj(sections["terminal"][-1], 1)
    ident = {obj(item, 1): mor(item, 2) for item in sections["identity"]}
    comp = {(mor(item, 1), mor(item, 2)): mor(item, 3) for item in sections["compose"]}
    products = {
        (obj(item, 1), obj(item, 2)): (obj(item, 3), mor(item, 4), mor(item, 5))
        for item in sections["product"]
    }
    pairings = {(mor(item, 1), mor(item, 2)): mor(item, 3) for item in sections["pairing"]}
    fibers: dict[str, BoolAlg] = {}
    for item in sections["fiber"]:
        try:
            fibers[obj(item, 1)] = BoolAlg(_int(item, 2, "atom count"))
        except BoolAlgError as e:
            _fail(_at(item, 2), str(e))
    for x in objects:
        for what, given in (("identity", ident), ("fiber", fibers)):
            if x not in given:
                _fail(node, f"object {x} has no {what}")
        for y in objects:
            if (x, y) not in products:
                _fail(node, f"no chosen product of {x} and {y}")

    reindex: dict[str, tuple[int, ...]] = {}
    for item in sections["reindex"]:
        f = mor(item, 1)
        x, y = morphisms[f]
        reindex[f] = _table(item, 2, fibers[y], fibers[x])
    forall: dict[tuple[str, str], tuple[int, ...]] = {}
    for item in sections["forall"]:
        a, b = obj(item, 1), obj(item, 2)
        forall[(a, b)] = _table(item, 3, fibers[products[(a, b)][0]], fibers[a])
    delta: dict[str, int] = {}
    for item in sections["delta"]:
        x = obj(item, 1)
        delta[x] = _elements(item, 2, fibers[products[(x, x)][0]], "element")[0]
    cat = FPCategory(tuple(objects), morphisms, comp, ident, terminal, products, pairings)
    return Doctrine(cat, fibers, reindex, forall=forall or None, delta=delta or None)


def doctrine_sexpr(d: Doctrine) -> str:
    cat = d.base
    parts = ["doctrine"]
    parts.append("(objects " + " ".join(cat.objects) + ")")
    parts.append(f"(terminal {cat.terminal})")
    for name, (s, t) in sorted(cat.morphisms.items()):
        parts.append(f"(morphism {name} {s} {t})")
    for obj, name in sorted(cat.ident.items()):
        parts.append(f"(identity {obj} {name})")
    for (g, f), gf in sorted(cat.comp.items()):
        parts.append(f"(compose {g} {f} {gf})")
    for (a, b), (p, pr1, pr2) in sorted(cat.products.items()):
        parts.append(f"(product {a} {b} {p} {pr1} {pr2})")
    for (f, g), fg in sorted(cat.pairings.items()):
        parts.append(f"(pairing {f} {g} {fg})")
    for obj in cat.objects:
        parts.append(f"(fiber {obj} {d.fibers[obj].atoms})")
    for name in sorted(d.reindex):
        parts.append(f"(reindex {name} " + " ".join(map(str, d.reindex[name])) + ")")
    if d.forall is not None:
        for (a, b), table in sorted(d.forall.items()):
            parts.append(f"(forall {a} {b} " + " ".join(map(str, table)) + ")")
    if d.delta is not None:
        for obj, e in sorted(d.delta.items()):
            parts.append(f"(delta {obj} {e})")
    return "(" + "\n  ".join(parts) + ")"


def parse_marking(node: SNode, doctrine: Doctrine) -> Marking:
    """A marking document of `doctrine`.  Each element marked on one of its
    objects must lie in that object's fiber; objects the doctrine does not
    have are kept unchecked for the verifiers to report."""
    if _head(node) != "marking":
        _fail(node, "expected (marking (object elems...) ...)")
    out: Marking = {}
    for k, item in enumerate(node.items[1:], 1):
        if not isinstance(item, SList) or not item.items:
            _fail(_at(node, k), "expected (object elems...)")
        obj = _atom_text(item.items[0], "object")
        out[obj] = frozenset(_elements(item, 1, doctrine.fibers.get(obj), "element"))
    return out


def marking_sexpr(m: Marking) -> str:
    parts = ["marking"]
    for obj in sorted(m):
        parts.append(f"({obj} " + " ".join(map(str, sorted(m[obj]))) + ")"
                     if m[obj] else f"({obj})")
    return "(" + " ".join(parts) + ")"
