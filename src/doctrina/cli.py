"""Command-line driver: proof checking, bounded proving, depth queries,
entailment oracles, doctrine verification, stratification, and the
word-language experiments.

Exit codes: 0 verified/proved/decided-positive, 1 refuted or verification
failure (with a certificate in the report), 2 unknown or budget exhausted,
3 parse or well-formedness error.  Reports are deterministic sorted lines,
buffered and flushed once.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

from .lang import Context, LangError, Signature
from .formula import FormulaError, FormulaInContext, free_vars, qa_depth
from .calculus import Budget, ProofError, check_proof
# an explicit re-export: bench/tracing.py wraps cli.prove_bounded
from .calculus import prove_bounded as prove_bounded
from .doctrine import (
    DoctrineError,
    check_forall_tables,
    find_fibered_equalities,
    report_lines,
    verify_boolean_doctrine,
    verify_elementary,
    verify_first_order,
)
from .stratify import (
    layer_step,
    stratify,
    verify_one_step,
    verify_qa_stratified,
    verify_qff,
)
from .semantics import SemanticsError, countermodel_search
from .syntactic import (
    BoundedOracle,
    Proved,
    Refuted,
    SyntacticError,
    Theory,
    TruthTableOracle,
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


class Report:
    """Accumulates report lines; emitted once, sorted within each block."""

    def __init__(self):
        self.lines: list[str] = []

    def add(self, line: str):
        self.lines.append(line)

    def add_sorted(self, lines):
        self.lines.extend(sorted(lines))

    def flush(self, out=None):
        out = out or sys.stdout
        out.write("\n".join(self.lines) + ("\n" if self.lines else ""))


def load_text(arg: str) -> str:
    """Documents are read from a file when the argument names one, otherwise
    the argument itself is the document text."""
    if not arg.lstrip().startswith("(") and Path(arg).exists():
        return Path(arg).read_text(encoding="utf-8")
    return arg


def load_theory(arg: Optional[str]) -> Theory:
    if arg is None or arg == "none":
        return Theory(Signature())
    if arg == "prefix":
        return prefix_theory()
    return sexpr.parse_theory(sexpr.parse_sexpr(load_text(arg)))


def default_budget(args) -> Budget:
    depth = args.budget
    if depth is None:
        depth = int(os.environ.get("DOCTRINA_BUDGET", "8"))
    return Budget(
        max_depth=depth,
        max_term_depth=getattr(args, "term_depth", 2),
        max_nodes=getattr(args, "max_nodes", 20000),
    )


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
    if kind == "truthtable":
        return TruthTableOracle(theory.signature, budget)
    if kind == "prefix":
        return PrefixOracle(budget)
    return BoundedOracle(theory, budget, model_size)


# --- subcommands ---------------------------------------------------------------


def cmd_check_proof(args) -> int:
    report = Report()
    proof = sexpr.parse_proof(sexpr.parse_sexpr(load_text(args.proof)))
    theory = load_theory(args.theory)
    result = check_proof(proof, theory, theory.signature)
    if result.ok:
        report.add("VERDICT pass")
        report.flush()
        return EXIT_POSITIVE
    report.add(f"VIOLATION rule-check path={','.join(map(str, result.path)) or 'root'} reason={result.reason}")
    report.add("VERDICT fail")
    report.flush()
    return EXIT_NEGATIVE


def cmd_prove(args) -> int:
    report = Report()
    s = sexpr.parse_sequent(sexpr.parse_sexpr(load_text(args.sequent)))
    theory = load_theory(args.theory)
    verdict = BoundedOracle(theory, default_budget(args), model_size=args.model_size).decide(s)
    if isinstance(verdict, Proved):
        report.add("VERDICT proved")
        report.add("CERTIFICATE " + sexpr.proof_sexpr(verdict.proof))
        report.flush()
        return EXIT_POSITIVE
    if isinstance(verdict, Refuted):
        m = verdict.structure
        name = "empty structure" if not m.carrier else f"structure of size {len(m.carrier)}"
        report.add(f"NOTE countermodel: {name}, assignment " + _assignment_text(verdict.assignment))
        report.add("CERTIFICATE " + sexpr.structure_sexpr(m))
    report.add("VERDICT unknown")
    report.flush()
    return EXIT_UNKNOWN


def cmd_qa_depth(args) -> int:
    phi = sexpr.parse_formula(sexpr.parse_sexpr(load_text(args.formula)))
    print(qa_depth(phi))
    return EXIT_POSITIVE


def cmd_entail(args) -> int:
    report = Report()
    phi = sexpr.parse_formula(sexpr.parse_sexpr(load_text(args.phi)))
    psi = sexpr.parse_formula(sexpr.parse_sexpr(load_text(args.psi)))
    theory = load_theory(args.theory if args.theory else ("prefix" if args.oracle == "prefix" else None))
    budget = default_budget(args)
    ctx = infer_context(phi, psi)
    oracle = make_oracle(args.oracle, theory, budget, args.model_size)
    verdict = lt_leq(oracle, FormulaInContext(phi, ctx), FormulaInContext(psi, ctx))
    if isinstance(verdict, Proved):
        report.add(f"VERDICT proved method={verdict.method}")
        report.add("CERTIFICATE " + sexpr.proof_sexpr(verdict.proof))
        report.flush()
        return EXIT_POSITIVE
    if isinstance(verdict, Refuted):
        report.add(f"VERDICT refuted method={verdict.method}")
        report.add("CERTIFICATE " + sexpr.structure_sexpr(verdict.structure))
        report.add("NOTE assignment " + _assignment_text(verdict.assignment))
        report.flush()
        return EXIT_NEGATIVE
    report.add(f"VERDICT unknown note={verdict.note}")
    report.flush()
    return EXIT_UNKNOWN


def cmd_verify_doctrine(args) -> int:
    report = Report()
    d = sexpr.parse_doctrine(sexpr.parse_sexpr(load_text(args.doctrine)))
    cat_errors = d.base.check()
    violations = [f"VIOLATION category detail={e}" for e in cat_errors]
    vs = verify_boolean_doctrine(d)
    if args.level in ("first-order", "elementary", "qff", "one-step", "stratified") and not vs:
        vs += verify_first_order(d)
        vs += check_forall_tables(d)
    marking = None
    if args.marking:
        marking = sexpr.parse_marking(sexpr.parse_sexpr(load_text(args.marking)))
    if not vs and args.level == "elementary":
        if d.delta is not None:
            vs += verify_elementary(d, d.delta)
        else:
            family = find_fibered_equalities(d)
            if family is None:
                violations.append("VIOLATION no-fibered-equality")
            else:
                report.add("NOTE fibered equalities " + str(sorted(family.items())))
    if not vs and args.level == "qff":
        if marking is None:
            raise ParseError("qff level needs --marking")
        vs += verify_qff(d, marking)
    if not vs and args.level == "one-step":
        if marking is None:
            raise ParseError("one-step level needs --marking")
        from .doctrine import all_forced_universals

        tables = d.forall if d.forall is not None else all_forced_universals(d)
        p1 = layer_step(d, marking, tables)
        vs += verify_one_step(d, marking, p1)
    if not vs and args.level == "stratified":
        if marking is None:
            raise ParseError("stratified level needs --marking")
        try:
            seq = stratify(d, marking)
            vs += verify_qa_stratified(seq)
            report.add(f"NOTE stabilization index {seq.stabilization_index}")
        except DoctrineError as e:
            violations.append(f"VIOLATION stratify detail={e}")
    violations += report_lines(vs)
    if violations:
        report.add_sorted(violations)
        report.add("VERDICT fail")
        report.flush()
        return EXIT_NEGATIVE
    report.add("VERDICT pass")
    report.flush()
    return EXIT_POSITIVE


def cmd_stratify(args) -> int:
    report = Report()
    d = sexpr.parse_doctrine(sexpr.parse_sexpr(load_text(args.doctrine)))
    marking = sexpr.parse_marking(sexpr.parse_sexpr(load_text(args.marking)))
    try:
        seq = stratify(d, marking)
    except DoctrineError as e:
        report.add(f"VIOLATION stratify detail={e}")
        report.add("VERDICT fail")
        report.flush()
        return EXIT_NEGATIVE
    errs = verify_qa_stratified(seq)
    for n, level in enumerate(seq.levels):
        report.add(f"LEVEL {n} " + sexpr.marking_sexpr(level))
    report.add(f"NOTE stabilization index {seq.stabilization_index}")
    if errs:
        report.add_sorted(report_lines(errs))
        report.add("VERDICT fail")
        report.flush()
        return EXIT_NEGATIVE
    report.add("VERDICT pass")
    report.flush()
    return EXIT_POSITIVE


def cmd_prefix_demo(args) -> int:
    from .prefix import does_not_generate_demo, intersection_experiment

    report = Report()
    ok = True
    if args.which in ("intersection", "no-least"):
        exp = intersection_experiment(args.k, args.arity, args.nmax)
        report.add_sorted(exp.lines)
        report.add_sorted(report_lines(exp.violations))
        ok = ok and exp.ok
    if args.which in ("separations", "no-least"):
        demo = does_not_generate_demo()
        report.add_sorted(demo.lines)
        report.add_sorted(report_lines(demo.violations))
        ok = ok and demo.ok
    report.add("VERDICT pass" if ok else "VERDICT fail")
    report.flush()
    return EXIT_POSITIVE if ok else EXIT_NEGATIVE


def cmd_complete(args) -> int:
    from .lang import canonical_context

    report = Report()
    theory = load_theory(args.theory)
    budget = default_budget(args)
    contexts = [canonical_context(n) for n in range(args.ctx_size + 1)]

    def bodies(ctx: Context):
        atoms = atom_pool(theory.signature, ctx)
        return enumerate_qf(atoms, args.body_size)

    if args.phi and args.psi:
        phi = sexpr.parse_formula(sexpr.parse_sexpr(load_text(args.phi)))
        psi = sexpr.parse_formula(sexpr.parse_sexpr(load_text(args.psi)))
        ctx = infer_context(phi, psi)
        verdict = completion_leq(
            theory,
            FormulaInContext(phi, ctx),
            FormulaInContext(psi, ctx),
            budget=budget,
            model_size=args.model_size,
            consequence_contexts=contexts,
            consequence_bodies=bodies,
        )
        if isinstance(verdict, Proved):
            report.add("VERDICT proved")
            report.add("CERTIFICATE " + sexpr.proof_sexpr(verdict.proof))
            report.flush()
            return EXIT_POSITIVE
        if isinstance(verdict, Refuted):
            report.add("VERDICT refuted")
            report.add("CERTIFICATE " + sexpr.structure_sexpr(verdict.structure))
            report.flush()
            return EXIT_NEGATIVE
        report.add("VERDICT unknown")
        report.flush()
        return EXIT_UNKNOWN

    found = universal_consequences(theory, contexts, bodies, budget)
    for sentence, _proof in found:
        report.add("CONSEQUENCE " + sexpr.formula_sexpr(sentence))
    report.add(f"VERDICT enumerated {len(found)}")
    report.flush()
    return EXIT_POSITIVE


def cmd_models(args) -> int:
    report = Report()
    s = sexpr.parse_sequent(sexpr.parse_sexpr(load_text(args.sequent)))
    theory = load_theory(args.theory)
    oracle = BoundedOracle(theory, model_size=args.size)
    axioms = oracle.axioms_for(s)
    found = countermodel_search(
        s, axioms, theory.signature, args.size, oracle.predicates_for(s, axioms)
    )
    if found is not None:
        m, assignment = found
        name = "empty structure" if not m.carrier else f"structure of size {len(m.carrier)}"
        report.add(f"VERDICT refuted by {name}")
        report.add("CERTIFICATE " + sexpr.structure_sexpr(m))
        report.add("NOTE assignment " + _assignment_text(assignment))
        report.flush()
        return EXIT_NEGATIVE
    report.add("VERDICT unknown no countermodel up to size " + str(args.size))
    report.flush()
    return EXIT_UNKNOWN


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="doctrina")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, theory=True, budget=True):
        if theory:
            sp.add_argument("--theory", default=None, help="theory file, 'prefix', or 'none'")
        if budget:
            sp.add_argument("--budget", type=int, default=None, help="max proof depth")
            sp.add_argument("--term-depth", dest="term_depth", type=int, default=2)
            sp.add_argument("--max-nodes", dest="max_nodes", type=int, default=20000)
        sp.add_argument("--model-size", dest="model_size", type=int, default=2)

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
    sp.set_defaults(func=cmd_stratify)

    sp = sub.add_parser("prefix-demo")
    sp.add_argument("which", choices=("intersection", "no-least", "separations"))
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--arity", type=int, default=2)
    sp.add_argument("--nmax", type=int, default=3)
    sp.set_defaults(func=cmd_prefix_demo)

    sp = sub.add_parser("complete")
    sp.add_argument("theory")
    sp.add_argument("--phi", default=None)
    sp.add_argument("--psi", default=None)
    sp.add_argument("--body-size", dest="body_size", type=int, default=3)
    sp.add_argument("--ctx-size", dest="ctx_size", type=int, default=2)
    common(sp, theory=False)
    sp.set_defaults(func=cmd_complete)

    sp = sub.add_parser("models")
    sp.add_argument("sequent")
    sp.add_argument("--theory", default=None)
    sp.add_argument("--size", type=int, default=2)
    sp.set_defaults(func=cmd_models)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ParseError, LangError, FormulaError, ProofError, DoctrineError, SemanticsError,
        SyntacticError, PrefixError, OSError,
    ) as e:
        print(f"ERROR {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
