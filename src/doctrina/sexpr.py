"""The s-expression text format for every document the tools exchange:
formulas, sequents, signatures, theories, structures, proofs, doctrine
descriptions, and markings.  Parsing is whitespace-insensitive with
position-annotated errors; printing is canonical, so parse after print is
the identity on every document the suite produces.  Documents nest at most
`MAX_NESTING` brackets deep."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .lang import App, Context, PredicateFamily, Signature, Term, Var
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
from .boolalg import BoolAlg
from .category import FPCategory
from .doctrine import Doctrine, Marking
from .semantics import FiniteStructure
from .syntactic import Theory


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"parse error at {line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass
class SAtom:
    text: str
    line: int
    col: int


@dataclass
class SList:
    items: list
    line: int
    col: int


SNode = Union[SAtom, SList]

_DELIMS = set("(); \t\r\n")

# The formula, term and proof walkers recurse once per bracket of their
# input, with up to four Python frames each; within this limit they stay
# under Python's default recursion limit of 1000, so deeper input is refused
# here instead.
MAX_NESTING = 200


def tokenize(text: str):
    line, col = 1, 0
    i = 0
    while i < len(text):
        c = text[i]
        col += 1
        if c == "\n":
            line += 1
            col = 0
            i += 1
            continue
        if c in " \t\r":
            i += 1
            continue
        if c == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if c in "()":
            yield (c, line, col)
            i += 1
            continue
        start = i
        start_col = col
        while i < len(text) and text[i] not in _DELIMS:
            i += 1
            col += 1
        col -= 1
        yield (text[start:i], line, start_col)


def parse_sexpr(text: str) -> SNode:
    nodes = parse_many(text)
    if len(nodes) != 1:
        raise ParseError(f"expected one document, found {len(nodes)}", 1, 1)
    return nodes[0]


def parse_many(text: str) -> list[SNode]:
    stack: list[SList] = []
    out: list[SNode] = []
    for tok, line, col in tokenize(text):
        if tok == "(":
            if len(stack) == MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} brackets", line, col)
            stack.append(SList([], line, col))
        elif tok == ")":
            if not stack:
                raise ParseError("unmatched ')'", line, col)
            done = stack.pop()
            (stack[-1].items if stack else out).append(done)
        else:
            (stack[-1].items if stack else out).append(SAtom(tok, line, col))
    if stack:
        raise ParseError("unclosed '('", stack[-1].line, stack[-1].col)
    return out


def _fail(node: SNode, message: str):
    raise ParseError(message, node.line, node.col)


def _head(node: SNode) -> Optional[str]:
    if isinstance(node, SList) and node.items and isinstance(node.items[0], SAtom):
        return node.items[0].text
    return None


def _atom_text(node: SNode, what: str) -> str:
    if not isinstance(node, SAtom):
        _fail(node, f"expected {what}")
    return node.text


def _int(node: SNode, what: str) -> int:
    text = _atom_text(node, what)
    try:
        return int(text)
    except ValueError:
        _fail(node, f"expected an integer {what}, got {text!r}")


# --- terms and formulas -------------------------------------------------------


def parse_term(node: SNode) -> Term:
    if isinstance(node, SAtom):
        return Var(node.text)
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
    if isinstance(node, SAtom):
        if node.text == "true":
            return Top()
        if node.text == "false":
            return Bot()
        return Pred(node.text)
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
    for item in node.items[1:]:
        h = _head(item)
        if h == "ctx":
            ctx_node = item
        elif h == "ants":
            ants_node = item
        elif h == "sucs":
            sucs_node = item
        else:
            _fail(item, "expected a ctx, ants, or sucs section")
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
    has_eq = False
    for item in node.items[1:]:
        h = _head(item)
        if h == "functions":
            for f in item.items[1:]:
                if not isinstance(f, SList) or len(f.items) != 2:
                    _fail(f, "expected (name arity)")
                functions.append((_atom_text(f.items[0], "name"), _int(f.items[1], "arity")))
        elif h == "predicates":
            for p in item.items[1:]:
                if not isinstance(p, SList) or len(p.items) != 2:
                    _fail(p, "expected (name arity)")
                predicates.append((_atom_text(p.items[0], "name"), _int(p.items[1], "arity")))
        elif h == "families":
            for fam in item.items[1:]:
                families.append(PredicateFamily(_atom_text(fam, "family prefix")))
        elif isinstance(item, SAtom) and item.text == "equality":
            has_eq = True
        elif h == "equality":
            has_eq = True
        else:
            _fail(item, "unknown signature section")
    return Signature(tuple(functions), tuple(predicates), has_eq, tuple(families))


def signature_sexpr(sig: Signature) -> str:
    parts = ["signature"]
    if sig.functions:
        parts.append("(functions " + " ".join(f"({n} {a})" for n, a in sig.functions) + ")")
    if sig.predicates:
        parts.append("(predicates " + " ".join(f"({n} {a})" for n, a in sig.predicates) + ")")
    if sig.families:
        parts.append("(families " + " ".join(f.prefix for f in sig.families) + ")")
    if sig.has_equality:
        parts.append("equality")
    return "(" + " ".join(parts) + ")"


def parse_theory(node: SNode) -> Theory:
    if _head(node) != "theory":
        _fail(node, "expected (theory (signature ...) (axioms ...))")
    sig = None
    axioms: list[Formula] = []
    for item in node.items[1:]:
        h = _head(item)
        if h == "signature":
            sig = parse_signature(item)
        elif h == "axioms":
            axioms = [parse_formula(f) for f in item.items[1:]]
        else:
            _fail(item, "unknown theory section")
    if sig is None:
        _fail(node, "theory needs a signature")
    return Theory(sig, tuple(axioms))


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
    for item in node.items[1:]:
        h = _head(item)
        if h == "carrier":
            carrier = tuple(_atom_text(e, "carrier element") for e in item.items[1:])
        elif h == "fun":
            name = _atom_text(item.items[1], "function name")
            table = {}
            for entry in item.items[2:]:
                if not isinstance(entry, SList) or len(entry.items) != 2:
                    _fail(entry, "expected ((args...) value)")
                args_node, val = entry.items
                if not isinstance(args_node, SList):
                    _fail(args_node, "expected an argument tuple")
                args = tuple(_atom_text(a, "argument") for a in args_node.items)
                table[args] = _atom_text(val, "value")
            functions[name] = table
        elif h == "pred":
            name = _atom_text(item.items[1], "predicate name")
            tuples = []
            for entry in item.items[2:]:
                if not isinstance(entry, SList):
                    _fail(entry, "expected a tuple")
                tuples.append(tuple(_atom_text(a, "element") for a in entry.items))
            predicates[name] = frozenset(tuples)
        else:
            _fail(item, "unknown structure section")
    return FiniteStructure(carrier, functions, predicates)


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
    for item in node.items[1:]:
        h = _head(item)
        if h == "rule":
            tag = _atom_text(item.items[1], "rule tag")
            kw = {}
            for arg in item.items[2:]:
                if not isinstance(arg, SList) or len(arg.items) != 2:
                    _fail(arg, "expected (key value) rule argument")
                key = _atom_text(arg.items[0], "rule argument key")
                val = arg.items[1]
                if key in ("pos", "which"):
                    kw[key] = _int(val, key)
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
            concl = parse_sequent(item.items[1])
        elif h == "premises":
            premises = [parse_proof(p) for p in item.items[1:]]
        else:
            _fail(item, "unknown proof section")
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


def parse_doctrine(node: SNode) -> Doctrine:
    if _head(node) != "doctrine":
        _fail(node, "expected (doctrine ...)")
    objects: list[str] = []
    terminal = None
    morphisms: dict[str, tuple[str, str]] = {}
    ident: dict[str, str] = {}
    comp: dict[tuple[str, str], str] = {}
    products: dict[tuple[str, str], tuple[str, str, str]] = {}
    pairings: dict[tuple[str, str], str] = {}
    fibers: dict[str, BoolAlg] = {}
    reindex: dict[str, tuple[int, ...]] = {}
    forall: dict[tuple[str, str], tuple[int, ...]] = {}
    exists: dict[tuple[str, str], tuple[int, ...]] = {}
    delta: dict[str, int] = {}
    for item in node.items[1:]:
        h = _head(item)
        rest = item.items[1:] if isinstance(item, SList) else []
        if h == "objects":
            objects = [_atom_text(o, "object") for o in rest]
        elif h == "terminal":
            terminal = _atom_text(rest[0], "terminal object")
        elif h == "morphism":
            name, s, t = (_atom_text(x, "morphism part") for x in rest)
            morphisms[name] = (s, t)
        elif h == "identity":
            obj, name = (_atom_text(x, "identity part") for x in rest)
            ident[obj] = name
        elif h == "compose":
            g, f, gf = (_atom_text(x, "composition part") for x in rest)
            comp[(g, f)] = gf
        elif h == "product":
            a, b, p, pr1, pr2 = (_atom_text(x, "product part") for x in rest)
            products[(a, b)] = (p, pr1, pr2)
        elif h == "pairing":
            f, g, fg = (_atom_text(x, "pairing part") for x in rest)
            pairings[(f, g)] = fg
        elif h == "fiber":
            obj = _atom_text(rest[0], "object")
            fibers[obj] = BoolAlg(_int(rest[1], "atom count"))
        elif h == "reindex":
            name = _atom_text(rest[0], "morphism")
            reindex[name] = tuple(_int(v, "table entry") for v in rest[1:])
        elif h == "forall":
            a = _atom_text(rest[0], "object")
            b = _atom_text(rest[1], "object")
            forall[(a, b)] = tuple(_int(v, "table entry") for v in rest[2:])
        elif h == "exists":
            a = _atom_text(rest[0], "object")
            b = _atom_text(rest[1], "object")
            exists[(a, b)] = tuple(_int(v, "table entry") for v in rest[2:])
        elif h == "delta":
            obj = _atom_text(rest[0], "object")
            delta[obj] = _int(rest[1], "element")
        else:
            _fail(item, "unknown doctrine section")
    if terminal is None:
        _fail(node, "doctrine needs a terminal object")
    cat = FPCategory(tuple(objects), morphisms, comp, ident, terminal, products, pairings)
    return Doctrine(
        cat,
        fibers,
        reindex,
        forall or None,
        exists or None,
        delta or None,
    )


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
    if d.exists is not None:
        for (a, b), table in sorted(d.exists.items()):
            parts.append(f"(exists {a} {b} " + " ".join(map(str, table)) + ")")
    if d.delta is not None:
        for obj, e in sorted(d.delta.items()):
            parts.append(f"(delta {obj} {e})")
    return "(" + "\n  ".join(parts) + ")"


def parse_marking(node: SNode) -> Marking:
    if _head(node) != "marking":
        _fail(node, "expected (marking (object elems...) ...)")
    out: Marking = {}
    for item in node.items[1:]:
        if not isinstance(item, SList) or not item.items:
            _fail(item, "expected (object elems...)")
        obj = _atom_text(item.items[0], "object")
        out[obj] = frozenset(_int(v, "element") for v in item.items[1:])
    return out


def marking_sexpr(m: Marking) -> str:
    parts = ["marking"]
    for obj in sorted(m):
        parts.append(f"({obj} " + " ".join(map(str, sorted(m[obj]))) + ")"
                     if m[obj] else f"({obj})")
    return "(" + " ".join(parts) + ")"
