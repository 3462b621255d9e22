"""Command-line driver: proof checking, bounded proving, depth queries,
entailment oracles, doctrine verification, stratification, and the
word-language experiments.

Exit codes: 0 verified/proved/decided-positive, 1 refuted or verification
failure (with a certificate in the report), 2 unknown or budget exhausted,
3 parse, well-formedness or input error.  Reports are deterministic sorted
lines: each command returns its exit code and its lines, and `main` writes
them once.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Optional

from .category import CategoryError
from .lang import Context, LangError, Signature
from .formula import FormulaError, FormulaInContext, free_vars, qa_depth
from .calculus import Budget, ProofError, check_proof
# an explicit re-export: bench/tracing.py wraps cli.prove_bounded
from .calculus import prove_bounded as prove_bounded
from .doctrine import (
    DoctrineError,
    find_fibered_equalities,
    layer_step,
    report_lines,
    verify_boolean_doctrine,
    verify_elementary,
    verify_first_order,
)
# an explicit re-export: bench/tracing.py wraps cli.check_forall_tables
from .doctrine import check_forall_tables as check_forall_tables
from .stratify import FragmentError, stratify, verify_one_step, verify_qff
# an explicit re-export: bench/tracing.py wraps cli.verify_qa_stratified
from .stratify import verify_qa_stratified as verify_qa_stratified
# an explicit re-export: bench/tracing.py wraps cli.countermodel_search
from .semantics import SemanticsError, countermodel_search as countermodel_search
from .syntactic import (
    BoundedOracle,
    Proved,
    Refuted,
    SyntacticError,
    Theory,
    TruthTableOracle,
    check_arities,
    lt_leq,
    universal_consequences,
    completion_leq,
    enumerate_qf,
    atom_pool,
)
from .prefix import PrefixError, PrefixOracle, prefix_theory
from . import sexpr
from .sexpr import ParseError


EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_PARSE = 3


class InputError(Exception):
    """A bad input or setting that has no position in a document: a file
    that is not UTF-8, a bad `DOCTRINA_BUDGET`, a missing option."""


def _names_a_file(arg: str) -> bool:
    try:
        return Path(arg).exists()
    except OSError:  # a name too long to be a file, say
        return False


def load_text(arg: str) -> str:
    """Documents are read from a file when the argument names one, otherwise
    the argument itself is the document text."""
    if not arg.lstrip().startswith("(") and _names_a_file(arg):
        try:
            return Path(arg).read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            raise InputError(f"{arg} is not valid UTF-8: {e.reason} at byte {e.start}") from None
    return arg


# how many theory texts `load_theory` keeps parsed, the most recent ones
THEORY_TEXTS_KEPT = 8


def load_theory(arg: Optional[str]) -> Theory:
    """The theory a `--theory` argument names.  A document is read on every
    call, but parsed once for each text: the last `THEORY_TEXTS_KEPT` texts
    keep their `Theory`, whose axioms keep what the prover derives from them
    (canonical forms, symbols, hashes).  A text that fails to parse is not
    kept, so it fails again on every call."""
    if arg is None or arg == "none":
        return Theory(Signature())
    if arg == "prefix":
        return prefix_theory()
    return _parsed_theory(load_text(arg))


@functools.lru_cache(maxsize=THEORY_TEXTS_KEPT)
def _parsed_theory(text: str) -> Theory:
    return sexpr.parse_theory(sexpr.parse_sexpr(text))


def default_budget(args) -> Budget:
    depth = args.budget
    if depth is None:
        text = os.environ.get("DOCTRINA_BUDGET", "8")
        depth = sexpr.decimal(text)
        if depth is None:
            raise InputError(f"DOCTRINA_BUDGET must be an integer, got {text!r}")
    return Budget(max_depth=depth, max_term_depth=args.term_depth, max_nodes=args.max_nodes)


def _pool_key(name: str):
    if name.startswith("x") and name[1:].isdigit():
        return (0, int(name[1:]), name)
    return (1, 0, name)


def _assignment_text(assignment: dict) -> str:
    # carrier elements print with str(), matching the structure certificates
    return "[" + ", ".join(f"{k}={v}" for k, v in sorted(assignment.items())) + "]"


def infer_context(*formulas) -> Context:
    vs = set()
    for f in formulas:
        vs |= free_vars(f)
    return Context(tuple(sorted(vs, key=_pool_key)))


def make_oracle(kind: str, theory: Theory, budget: Budget, model_size: int):
    """The entailment oracle named on the command line; the budget and the
    model size bound only the bounded oracle, the other two are exact, and
    refuse a theory they would not decide modulo: the truth table takes a
    signature without axioms, the prefix oracle only the prefix theory."""
    if kind == "truthtable":
        if theory.axioms or theory.axiom_family is not None:
            raise InputError("the truthtable oracle decides over a theory without axioms; "
                             "use the bounded oracle")
        return TruthTableOracle(theory.signature)
    if kind == "prefix":
        if theory != prefix_theory():
            raise InputError("the prefix oracle decides modulo the prefix theory only; "
                             "give --theory prefix or leave it out")
        return PrefixOracle()
    return BoundedOracle(theory, budget, model_size)


# --- subcommands ---------------------------------------------------------------


def cmd_check_proof(args) -> tuple[int, list[str]]:
    proof = sexpr.parse_proof(sexpr.parse_sexpr(load_text(args.proof)))
    theory = load_theory(args.theory)
    formulas, stack = [], [proof]
    while stack:
        node = stack.pop()
        formulas += node.conclusion.antecedent + node.conclusion.succedent
        if node.rule.formula is not None:
            formulas.append(node.rule.formula)
        stack.extend(node.premises)
    check_arities(theory, formulas)
    result = check_proof(proof, theory, theory.signature)
    if result.ok:
        return EXIT_POSITIVE, ["VERDICT pass"]
    path = ",".join(map(str, result.path)) or "root"
    return EXIT_NEGATIVE, [f"VIOLATION rule-check path={path} reason={result.reason}", "VERDICT fail"]


def cmd_prove(args) -> tuple[int, list[str]]:
    s = sexpr.parse_sequent(sexpr.parse_sexpr(load_text(args.sequent)))
    theory = load_theory(args.theory)
    check_arities(theory, s.antecedent + s.succedent)
    verdict = BoundedOracle(theory, default_budget(args), model_size=args.model_size).decide(s)
    if isinstance(verdict, Proved):
        return EXIT_POSITIVE, ["VERDICT proved", "CERTIFICATE " + sexpr.proof_sexpr(verdict.proof)]
    if isinstance(verdict, Refuted):
        m = verdict.structure
        name = "empty structure" if not m.carrier else f"structure of size {len(m.carrier)}"
        return EXIT_UNKNOWN, [
            f"NOTE countermodel: {name}, assignment " + _assignment_text(verdict.assignment),
            "CERTIFICATE " + sexpr.structure_sexpr(m),
            "VERDICT unknown",
        ]
    return EXIT_UNKNOWN, ["VERDICT unknown"]


def cmd_qa_depth(args) -> tuple[int, list[str]]:
    phi = sexpr.parse_formula(sexpr.parse_sexpr(load_text(args.formula)))
    return EXIT_POSITIVE, [str(qa_depth(phi))]


def cmd_entail(args) -> tuple[int, list[str]]:
    phi = sexpr.parse_formula(sexpr.parse_sexpr(load_text(args.phi)))
    psi = sexpr.parse_formula(sexpr.parse_sexpr(load_text(args.psi)))
    theory = load_theory(args.theory if args.theory else ("prefix" if args.oracle == "prefix" else None))
    check_arities(theory, (phi, psi))
    budget = default_budget(args)
    ctx = infer_context(phi, psi)
    oracle = make_oracle(args.oracle, theory, budget, args.model_size)
    verdict = lt_leq(oracle, FormulaInContext(phi, ctx), FormulaInContext(psi, ctx))
    if isinstance(verdict, Proved):
        return EXIT_POSITIVE, [
            f"VERDICT proved method={verdict.method}",
            "CERTIFICATE " + sexpr.proof_sexpr(verdict.proof),
        ]
    if isinstance(verdict, Refuted):
        return EXIT_NEGATIVE, [
            f"VERDICT refuted method={verdict.method}",
            "CERTIFICATE " + sexpr.structure_sexpr(verdict.structure),
            "NOTE assignment " + _assignment_text(verdict.assignment),
        ]
    return EXIT_UNKNOWN, [f"VERDICT unknown note={verdict.note}"]


def cmd_verify_doctrine(args) -> tuple[int, list[str]]:
    d = sexpr.parse_doctrine(sexpr.parse_sexpr(load_text(args.doctrine)))
    reads_marking = args.level in ("qff", "one-step", "stratified")
    if reads_marking != bool(args.marking):
        raise InputError(f"{args.level} level " + ("needs" if reads_marking else "takes no") + " --marking")
    marking = sexpr.parse_marking(sexpr.parse_sexpr(load_text(args.marking)), d) if reads_marking else None
    # the doctrine verifiers read the fibers along the category's endpoints,
    # so they run only over a base that passes its own check
    notes: list[str] = []
    levels: list = []
    violations = [f"VIOLATION category detail={e}" for e in d.base.check()]
    if not violations:
        violations, levels = _doctrine_violations(args, d, marking, notes)
    # the one line that depends on the verb: stratify also prints the layers
    if args.command == "stratify":
        notes = [f"LEVEL {n} " + sexpr.marking_sexpr(level) for n, level in enumerate(levels)] + notes
    if violations:
        return EXIT_NEGATIVE, notes + sorted(violations) + ["VERDICT fail"]
    return EXIT_POSITIVE, notes + ["VERDICT pass"]


def _doctrine_violations(args, d, marking, notes: list[str]) -> tuple[list[str], list]:
    """The violation lines of the verifiers `args.level` runs, and the layers
    the stratified level built; their NOTE lines go to `notes`."""
    violations = []
    levels = []
    vs = verify_boolean_doctrine(d)
    if args.level in ("first-order", "elementary", "qff", "one-step", "stratified") and not vs:
        vs += verify_first_order(d)
    if not vs and args.level == "elementary":
        if d.delta is not None:
            vs += verify_elementary(d, d.delta)
        else:
            family = find_fibered_equalities(d)
            if family is None:
                violations.append("VIOLATION no-fibered-equality")
            else:
                notes.append("NOTE fibered equalities " + str(sorted(family.items())))
    if not vs and args.level == "qff":
        vs += verify_qff(d, marking)
    if not vs and args.level == "one-step":
        p1 = layer_step(d, marking, d.universal_tables())
        vs += verify_one_step(d, marking, p1)
    if not vs and args.level == "stratified":
        try:
            # the layers of a fragment of a first-order doctrine are QA-stratified
            seq = stratify(d, marking)
            levels = seq.levels
            notes.append(f"NOTE stabilization index {seq.stabilization_index}")
        except FragmentError as e:
            vs += e.violations  # the lines `--level qff` prints
        except DoctrineError as e:
            violations.append(f"VIOLATION stratify detail={e}")
    return violations + report_lines(vs), levels


def cmd_prefix_demo(args) -> tuple[int, list[str]]:
    from .prefix import does_not_generate_demo, intersection_experiment

    lines: list[str] = []
    ok = True
    if args.which in ("intersection", "no-least"):
        exp = intersection_experiment(args.k, args.arity, args.nmax)
        lines += sorted(exp.lines) + sorted(report_lines(exp.violations))
        ok = ok and exp.ok
    if args.which in ("separations", "no-least"):
        demo = does_not_generate_demo()
        lines += sorted(demo.lines) + sorted(report_lines(demo.violations))
        ok = ok and demo.ok
    if ok:
        return EXIT_POSITIVE, lines + ["VERDICT pass"]
    return EXIT_NEGATIVE, lines + ["VERDICT fail"]


def cmd_complete(args) -> tuple[int, list[str]]:
    from .lang import canonical_context

    theory = load_theory(args.theory)
    budget = default_budget(args)
    contexts = [canonical_context(n) for n in range(args.ctx_size + 1)]

    def bodies(ctx: Context):
        atoms = atom_pool(theory.signature, ctx)
        return enumerate_qf(atoms, args.body_size)

    if args.phi and args.psi:
        phi = sexpr.parse_formula(sexpr.parse_sexpr(load_text(args.phi)))
        psi = sexpr.parse_formula(sexpr.parse_sexpr(load_text(args.psi)))
        check_arities(theory, (phi, psi))
        ctx = infer_context(phi, psi)
        verdict = completion_leq(
            theory,
            FormulaInContext(phi, ctx),
            FormulaInContext(psi, ctx),
            [s for s, _ in universal_consequences(theory, contexts, bodies, budget)],
            budget=budget,
            model_size=args.model_size,
        )
        if isinstance(verdict, Proved):
            return EXIT_POSITIVE, ["VERDICT proved", "CERTIFICATE " + sexpr.proof_sexpr(verdict.proof)]
        if isinstance(verdict, Refuted):
            return EXIT_NEGATIVE, ["VERDICT refuted", "CERTIFICATE " + sexpr.structure_sexpr(verdict.structure)]
        return EXIT_UNKNOWN, ["VERDICT unknown"]

    check_arities(theory, ())
    found = universal_consequences(theory, contexts, bodies, budget)
    lines = ["CONSEQUENCE " + sexpr.formula_sexpr(sentence) for sentence, _proof in found]
    return EXIT_POSITIVE, lines + [f"VERDICT enumerated {len(found)}"]


def cmd_models(args) -> tuple[int, list[str]]:
    s = sexpr.parse_sequent(sexpr.parse_sexpr(load_text(args.sequent)))
    theory = load_theory(args.theory)
    check_arities(theory, s.antecedent + s.succedent)
    refuted = BoundedOracle(theory, model_size=args.size).refute(s)
    if refuted is not None:
        m = refuted.structure
        name = "empty structure" if not m.carrier else f"structure of size {len(m.carrier)}"
        return EXIT_NEGATIVE, [
            f"VERDICT refuted by {name}",
            "CERTIFICATE " + sexpr.structure_sexpr(m),
            "NOTE assignment " + _assignment_text(refuted.assignment),
        ]
    return EXIT_UNKNOWN, ["VERDICT unknown no countermodel up to size " + str(args.size)]


def integer(text: str) -> int:
    """An integer option, read by the documents' rule (`sexpr.decimal`)."""
    value = sexpr.decimal(text)
    if value is None:
        raise ValueError(text)  # argparse names the option and the value
    return value


def _usage_error(parser: argparse.ArgumentParser, message: str):
    """A usage error is an input error: `main` answers it with exit 3 and one
    `ERROR` line, where argparse would print the usage and exit 2."""
    raise InputError(message)


class _Parser(argparse.ArgumentParser):
    # argparse reports every usage error through `self.error`; the
    # subcommand parsers are of the same class
    error = _usage_error


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every `main` call: `parse_args` returns a fresh
    namespace and leaves no state on the parser, and settings such as
    `DOCTRINA_BUDGET` are read per call, in `default_budget`."""
    p = _Parser(prog="doctrina")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, theory=True):
        if theory:
            sp.add_argument("--theory", default=None, help="theory file, 'prefix', or 'none'")
        sp.add_argument("--budget", type=integer, default=None, help="max proof depth")
        sp.add_argument("--term-depth", dest="term_depth", type=integer, default=2)
        sp.add_argument("--max-nodes", dest="max_nodes", type=integer, default=20000)
        sp.add_argument("--model-size", dest="model_size", type=integer, default=2)

    sp = sub.add_parser("check-proof")
    sp.add_argument("proof")
    sp.add_argument("--theory", default=None)
    sp.set_defaults(func=cmd_check_proof)

    sp = sub.add_parser("prove")
    sp.add_argument("sequent")
    common(sp)
    sp.set_defaults(func=cmd_prove)

    sp = sub.add_parser("qa-depth")
    sp.add_argument("formula")
    sp.set_defaults(func=cmd_qa_depth)

    sp = sub.add_parser("entail")
    sp.add_argument("phi")
    sp.add_argument("psi")
    sp.add_argument("--oracle", choices=("truthtable", "prefix", "bounded"), default="bounded")
    common(sp)
    sp.set_defaults(func=cmd_entail)

    sp = sub.add_parser("verify-doctrine")
    sp.add_argument("doctrine")
    sp.add_argument(
        "--level",
        choices=("boolean", "first-order", "elementary", "qff", "one-step", "stratified"),
        default="first-order",
    )
    sp.add_argument("--marking", default=None)
    sp.set_defaults(func=cmd_verify_doctrine)

    sp = sub.add_parser("stratify")
    sp.add_argument("doctrine")
    sp.add_argument("marking")
    sp.set_defaults(func=cmd_verify_doctrine, level="stratified")

    sp = sub.add_parser("prefix-demo")
    sp.add_argument("which", choices=("intersection", "no-least", "separations"))
    sp.add_argument("--k", type=integer, default=1)
    sp.add_argument("--arity", type=integer, default=2)
    sp.add_argument("--nmax", type=integer, default=3)
    sp.set_defaults(func=cmd_prefix_demo)

    sp = sub.add_parser("complete")
    sp.add_argument("theory")
    sp.add_argument("--phi", default=None)
    sp.add_argument("--psi", default=None)
    sp.add_argument("--body-size", dest="body_size", type=integer, default=3)
    sp.add_argument("--ctx-size", dest="ctx_size", type=integer, default=2)
    common(sp, theory=False)
    sp.set_defaults(func=cmd_complete)

    sp = sub.add_parser("models")
    sp.add_argument("sequent")
    sp.add_argument("--theory", default=None)
    sp.add_argument("--size", type=integer, default=2)
    sp.set_defaults(func=cmd_models)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code, lines = args.func(args)
        sys.stdout.write("".join(line + "\n" for line in lines))
        return code
    except (
        ParseError, InputError, LangError, FormulaError, ProofError, CategoryError, DoctrineError,
        SemanticsError, SyntacticError, PrefixError, OSError,
    ) as e:
        print(f"ERROR {e}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:
        # the recursive walkers and the prover's one frame per proof level
        print("ERROR input too deep or too wide to process", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
