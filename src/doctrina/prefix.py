"""The decidable word-language theory and its prefix-criterion entailment.

The signature has one n-ary predicate for every n, and the theory links the
levels: each n-tuple satisfies the n-th predicate exactly when it extends to
a satisfying (n+1)-tuple.  Models are prefix-closed, properly-extendable
word languages; entailment between conjunctions and disjunctions of atoms
reduces to a tuple-prefix test, which makes the quantifier-free fragment
decidable and drives the no-least-fragment experiments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .lang import Context, PredicateFamily, Signature, Var, canonical_context, pool_var
from .formula import (
    Bot,
    Exists,
    Forall,
    Formula,
    Not,
    Pred,
    Top,
    iff,
    is_quantifier_free,
    to_dnf,
)
from .calculus import Budget, Sequent, prove_bounded
from .doctrine import Violation, violation
from .semantics import FiniteStructure, eval_in_structure
from .syntactic import (
    EntailmentOracle,
    Proved,
    QfResult,
    Refuted,
    Theory,
    Unknown,
)


class PrefixError(Exception):
    pass


FAMILY = PredicateFamily("R")
SIGNATURE = Signature(families=(FAMILY,))


def axiom_alpha(n: int) -> Formula:
    """The n-th axiom: the n-ary predicate holds of a tuple iff some
    extension by one more variable satisfies the next predicate."""
    if n < 0:
        raise PrefixError("axiom index must be >= 0")
    head = [Var(pool_var(i)) for i in range(1, n + 1)]
    lhs = Pred(FAMILY.name(n), tuple(head))
    rhs = Exists(pool_var(n + 1), Pred(FAMILY.name(n + 1), tuple(head + [Var(pool_var(n + 1))])))
    out: Formula = iff(lhs, rhs)
    for i in range(n, 0, -1):
        out = Forall(pool_var(i), out)
    return out


def prefix_theory() -> Theory:
    return Theory(SIGNATURE, (), axiom_alpha)


@dataclass(frozen=True)
class PrefixAtom:
    """An atom of the word-language signature over a context of length k:
    the m-ary predicate applied to the variables at the given 1-based
    positions."""

    positions: tuple[int, ...]

    @property
    def arity(self) -> int:
        return len(self.positions)

    def formula(self, ctx: Context) -> Pred:
        for i in self.positions:
            if not 1 <= i <= len(ctx):
                raise PrefixError(f"variable position {i} out of context range")
        return Pred(
            FAMILY.name(self.arity), tuple(Var(ctx.vars[i - 1]) for i in self.positions)
        )

    def word(self, assignment: Sequence) -> tuple:
        return tuple(assignment[i - 1] for i in self.positions)


def atom_from_formula(phi: Formula, ctx: Context) -> PrefixAtom:
    if not isinstance(phi, Pred):
        raise PrefixError(f"not an atom: {phi!r}")
    arity = FAMILY.arity_of(phi.name)
    if arity is None or arity != len(phi.args):
        raise PrefixError(f"not a word-language atom: {phi!r}")
    positions = []
    for t in phi.args:
        if not isinstance(t, Var) or t.name not in ctx:
            raise PrefixError(f"atom argument {t!r} is not a context variable")
        positions.append(ctx.index(t.name) + 1)
    return PrefixAtom(tuple(positions))


def prefix_entails(positives: Sequence[PrefixAtom], negatives: Sequence[PrefixAtom]) -> bool:
    """Whether the conjunction of the positives entails the disjunction of
    the negatives modulo the theory: some negative tuple is a prefix of some
    positive tuple.  Empty sides entail nothing (the conjunction over the
    empty set is top, the disjunction bottom)."""
    for p in positives:
        for n in negatives:
            if n.positions == p.positions[: len(n.positions)]:
                return True
    return False


@dataclass(frozen=True)
class WordLanguageModel:
    """A truncated word-language model: all words have length at most the
    truncation, the language is prefix-closed, and every strictly shorter
    word extends properly within the language."""

    alphabet: tuple
    truncation: int
    words: frozenset

    def as_structure(self) -> FiniteStructure:
        preds = {}
        for n in range(self.truncation + 1):
            preds[FAMILY.name(n)] = frozenset(w for w in self.words if len(w) == n)
        return FiniteStructure(tuple(self.alphabet), {}, preds)


def verify_T_axioms(m: WordLanguageModel, up_to: int) -> list[Violation]:
    """Prefix closure, truncated extendability, and truth of the axioms up
    to the requested level, by direct evaluation in the truncated model."""
    if up_to + 1 > m.truncation:
        raise PrefixError("truncation too short for the requested axiom level")
    out: list[Violation] = []
    for w in m.words:
        if len(w) > m.truncation:
            out.append(violation("word-too-long", word=w))
        if w and w[:-1] not in m.words:
            out.append(violation("prefix-closure", word=w))
    for w in m.words:
        if len(w) < m.truncation and not any(
            w == v[: len(w)] and len(v) > len(w) for v in m.words
        ):
            out.append(violation("extendability", word=w))
    struct = m.as_structure()
    for j in range(up_to + 1):
        if not eval_in_structure(axiom_alpha(j), struct, {}):
            out.append(violation("axiom", level=j))
    return out


def word_countermodel(
    positives: Sequence[PrefixAtom],
    negatives: Sequence[PrefixAtom],
    k: int,
    truncation: Optional[int] = None,
) -> tuple[WordLanguageModel, dict]:
    """The countermodel of an unentailed atom inequality: letters are the
    context variables plus one fresh padding letter, the language is the
    prefix closure of the positive words plus their paddings up to the
    truncation."""
    if prefix_entails(positives, negatives):
        raise PrefixError("entailment holds; no countermodel exists")
    arities = [a.arity for a in list(positives) + list(negatives)] + [0]
    trunc = truncation if truncation is not None else max(arities) + 1
    letters = tuple(pool_var(i) for i in range(1, k + 1))
    assignment_tuple = letters
    alphabet = letters + ("c",)
    words: set[tuple] = set()
    for p in positives:
        w = p.word(assignment_tuple)
        for i in range(len(w) + 1):
            words.add(w[:i])
        for l in range(1, trunc - len(w) + 1):
            words.add(w + ("c",) * l)
    model = WordLanguageModel(alphabet, trunc, frozenset(words))
    assignment = {pool_var(i): letters[i - 1] for i in range(1, k + 1)}
    return model, assignment


def qf_entails_modT(phi: Formula, psi: Formula, ctx: Context) -> bool:
    """Exact entailment between quantifier-free formulas over word-language
    atoms: every clause of the canonical disjunctive normal form of
    phi-and-not-psi must be inconsistent, which the prefix criterion
    decides."""
    if not (is_quantifier_free(phi) and is_quantifier_free(psi)):
        raise PrefixError("qf_entails_modT requires quantifier-free formulas")
    from .formula import And

    for pos, neg in to_dnf(And(phi, Not(psi))):
        p_atoms = [atom_from_formula(a, ctx) for a in pos]
        n_atoms = [atom_from_formula(a, ctx) for a in neg]
        if not prefix_entails(p_atoms, n_atoms):
            return False
    return True


def qf_equivalent_modT(phi: Formula, psi: Formula, ctx: Context) -> bool:
    return qf_entails_modT(phi, psi, ctx) and qf_entails_modT(psi, phi, ctx)


class PrefixOracle(EntailmentOracle):
    """Entailment for quantifier-free sequents over word-language atoms:
    exact refutations come with the word countermodel, positive answers are
    certified by bounded proof search from the linking axioms."""

    name = "prefix"

    def __init__(self, budget: Budget = Budget(max_depth=10)):
        self.budget = budget
        self.theory = prefix_theory()

    def decide(self, s: Sequent):
        from .formula import And, conj, disj

        formulas = list(s.antecedent) + list(s.succedent)
        if not all(is_quantifier_free(f) for f in formulas):
            return Unknown("not quantifier-free")
        try:
            phi = conj(s.antecedent)
            psi = disj(s.succedent)
            clauses = to_dnf(And(phi, Not(psi)))
            parsed = [
                (
                    [atom_from_formula(a, s.context) for a in pos],
                    [atom_from_formula(a, s.context) for a in neg],
                )
                for pos, neg in clauses
            ]
            arities = [atom_from_formula(a, s.context).arity
                       for f in formulas for a in _pred_atoms(f)] or [0]
        except PrefixError as e:
            return Unknown(str(e))
        for p_atoms, n_atoms in parsed:
            if not prefix_entails(p_atoms, n_atoms):
                # truncated above every atom of the sequent, so that each
                # predicate it mentions is interpreted; word_countermodel
                # keys its assignment by x1..xk, the sequent by its context
                model, pooled = word_countermodel(
                    p_atoms, n_atoms, len(s.context), max(arities) + 1
                )
                assignment = {v: pooled[pool_var(i)] for i, v in enumerate(s.context.vars, 1)}
                return Refuted(model.as_structure(), assignment, self.name)
        axioms = self.theory.relevant_axioms(max(arities))
        proof = prove_bounded(s, axioms, self.budget, SIGNATURE)
        if proof is not None:
            return Proved(proof, self.name)
        return Unknown("entailed modulo the theory, but no bounded certificate")


def _pred_atoms(phi: Formula) -> list[Pred]:
    from .formula import atoms_of

    return [a for a in atoms_of(phi) if isinstance(a, Pred)]


# --- the layer-wise fragments -------------------------------------------------


def level_atoms(ctx: Context, min_arity: int, max_arity: int) -> list[PrefixAtom]:
    out = []
    for m in range(min_arity, max_arity + 1):
        for positions in itertools.product(range(1, len(ctx) + 1), repeat=m):
            out.append(PrefixAtom(positions))
    return out


def realizable_valuations(atoms: Sequence[PrefixAtom]) -> list[tuple[bool, ...]]:
    """All truth assignments of the given atoms jointly realizable in a word
    model: exactly those whose true/false split is not entailed."""
    out = []
    for bits in itertools.product((False, True), repeat=len(atoms)):
        pos = [a for a, b in zip(atoms, bits) if b]
        neg = [a for a, b in zip(atoms, bits) if not b]
        if not prefix_entails(pos, neg):
            out.append(bits)
    return out


def p0n_membership(
    phi: Formula, n: int, ctx: Context, arity_bound: Optional[int] = None
) -> QfResult:
    """Membership of a quantifier-free formula in the fragment generated by
    the predicates of arity at least n, within the stated candidate arity
    bound.  Complete over that space: the answer is a witness verified in
    both directions, or a definite no.

    A witness over the high-arity atoms exists exactly when the formula's
    truth is a function of those atoms across all realizable valuations;
    the witness is then the disjunction of the realized satisfying
    patterns, and is double-checked through the exact entailment."""
    if not is_quantifier_free(phi):
        raise PrefixError("p0n_membership requires a quantifier-free formula")
    from .formula import atoms_of, conj, disj, eval_prop

    own_atoms = [atom_from_formula(a, ctx) for a in atoms_of(phi)]
    if all(a.arity >= n for a in own_atoms):
        return QfResult("yes", phi)
    bound = arity_bound if arity_bound is not None else max(
        [n] + [a.arity for a in own_atoms]
    ) + 1
    candidates = level_atoms(ctx, n, bound)
    joint = own_atoms + [c for c in candidates if c not in own_atoms]
    formulas = {a: a.formula(ctx) for a in joint}
    patterns: dict[tuple[bool, ...], bool] = {}
    for bits in realizable_valuations(joint):
        val = dict(zip((formulas[a] for a in joint), bits))
        truth = eval_prop(phi, val)
        key = tuple(b for a, b in zip(joint, bits) if a in candidates)
        if key in patterns and patterns[key] != truth:
            return QfResult("no")
        patterns[key] = truth
    witness = disj(
        [
            conj([formulas[a] if b else Not(formulas[a])
                  for a, b in zip([c for c in joint if c in candidates], key)])
            for key, truth in sorted(patterns.items())
            if truth
        ]
    )
    if qf_equivalent_modT(phi, witness, ctx):
        return QfResult("yes", witness)
    return QfResult("no")


@dataclass
class ExperimentReport:
    lines: list[str]
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations


def intersection_experiment(k: int, arity_bound: int, n_max: int) -> ExperimentReport:
    """Every quantifier-free formula over the context atoms, other than the
    two constants, leaves some level-n fragment for n up to the bound; only
    top and bottom survive every level."""
    ctx = canonical_context(k)
    atoms = level_atoms(ctx, 0, arity_bound)
    if len(atoms) > 4:
        raise PrefixError("atom space too large for the exhaustive experiment")
    from .formula import conj, disj, eval_prop

    formulas = [a.formula(ctx) for a in atoms]
    realizable = realizable_valuations(atoms)
    lines: list[str] = []
    violations: list[Violation] = []
    seen_functions: set[tuple[bool, ...]] = set()
    for keep in itertools.product((False, True), repeat=1 << len(atoms)):
        minterms = [
            conj([f if b else Not(f) for f, b in zip(formulas, bits)])
            for i, bits in enumerate(itertools.product((False, True), repeat=len(atoms)))
            if keep[i]
        ]
        phi = disj(minterms)
        profile = tuple(
            eval_prop(phi, dict(zip(formulas, bits))) for bits in realizable
        )
        if profile in seen_functions:
            continue
        seen_functions.add(profile)
        if all(profile):
            lines.append(f"SKIP top {phi!r}")
            continue
        if not any(profile):
            lines.append(f"SKIP bottom {phi!r}")
            continue
        excluded_at = None
        for n in range(n_max + 1):
            res = p0n_membership(phi, n, ctx, arity_bound=max(arity_bound, n) + 1)
            if res.kind == "no":
                excluded_at = n
                break
        if excluded_at is None:
            violations.append(violation("not-excluded", formula=repr(phi)))
        else:
            lines.append(f"EXCLUDED n={excluded_at} {phi!r}")
    return ExperimentReport(sorted(lines), violations)


def does_not_generate_demo() -> ExperimentReport:
    """The separating models showing the two-constant subfunctor does not
    generate: in each context the nullary atom differs from all four
    closed-under-quantifiers candidates."""
    r0 = Pred(FAMILY.name(0))
    exists_top = Exists(pool_var(1), Top())
    lines: list[str] = []
    violations: list[Violation] = []

    def model_all_true(alphabet: tuple) -> WordLanguageModel:
        # every word over the alphabet, up to the truncation
        trunc = 2
        full = set()
        for length in range(trunc + 1):
            for w in itertools.product(alphabet, repeat=length):
                full.add(w)
        return WordLanguageModel(alphabet, trunc, frozenset(full))

    empty_model = WordLanguageModel((), 2, frozenset())
    one_all = model_all_true(("a",))
    one_none = WordLanguageModel(("a",), 2, frozenset())

    for name, model in (("empty", empty_model), ("one-all", one_all), ("one-none", one_none)):
        errs = verify_T_axioms(model, 1)
        if errs:
            violations += [Violation(f"{name}-" + v.kind, v.data) for v in errs]

    cases = [
        ("top", Top(), empty_model, {}, 0),
        ("bottom", Bot(), one_all, {}, 0),
        ("exists-top", exists_top, one_none, {pool_var(1): "a"}, 1),
        ("not-exists-top", Not(exists_top), one_all, {pool_var(1): "a"}, 1),
    ]
    for label, candidate, model, assignment, k in cases:
        struct = model.as_structure()
        v_r0 = eval_in_structure(r0, struct, assignment)
        v_cand = eval_in_structure(candidate, struct, assignment)
        if v_r0 == v_cand:
            violations.append(violation("not-separated", candidate=label))
        lines.append(
            f"SEPARATED {label} context-size={k} model={model.alphabet!r}/{sorted(model.words)!r} "
            f"nullary={v_r0} candidate={v_cand}"
        )
    return ExperimentReport(lines, violations)
