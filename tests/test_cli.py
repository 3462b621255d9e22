import dataclasses
import importlib
import io
import os
import pathlib
import random
import subprocess
import sys

import pytest

from doctrina.calculus import Sequent, check_proof, prove_bounded
from doctrina.cli import build_parser, infer_context, main
from doctrina import cli, sexpr
from doctrina.sexpr import MAX_NESTING
from doctrina.boolalg import BoolAlg
from doctrina.category import chain_category
from doctrina.doctrine import full_marking, hbx_doctrine, subset_doctrine
from doctrina.formula import conj, disj
from doctrina.lang import canonical_context
from doctrina.semantics import eval_in_structure, falsifying_assignment
from doctrina.stratify import stratify
from doctrina.syntactic import atom_pool, enumerate_qf

from helpers import goals_mixing_f, one_entry_mutant, record_blocks
from test_stratify import chain_doctrine_with_proper_fragment


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_qa_depth_example(capsys):
    code, out = run_cli(["qa-depth", "(exists y (forall x (R x y)))"], capsys)
    assert code == 0
    assert out.strip() == "2"


def test_prove_empty_existential_unknown_with_countermodel(capsys):
    code, out = run_cli(
        ["prove", "(seq (ctx) (ants) (sucs (exists x true)))", "--budget", "6"], capsys
    )
    assert code == 2
    assert "VERDICT unknown" in out
    assert "empty structure" in out


def test_prove_positive(capsys):
    code, out = run_cli(["prove", "(seq (ctx x) (ants (P x)) (sucs (P x)))"], capsys)
    assert code == 0
    assert "VERDICT proved" in out
    assert "CERTIFICATE (proof" in out


def test_entail_prefix_example(capsys):
    code, out = run_cli(["entail", "(R2 x1 x2)", "(R1 x1)", "--oracle", "prefix"], capsys)
    assert code == 0
    assert "VERDICT proved" in out
    assert "CERTIFICATE" in out


def test_entail_prefix_refuted(capsys):
    code, out = run_cli(["entail", "(R2 x1 x2)", "(R1 x2)", "--oracle", "prefix"], capsys)
    assert code == 1
    assert "VERDICT refuted" in out
    assert "CERTIFICATE (structure" in out


def test_entail_truthtable_unknown(capsys):
    code, out = run_cli(
        ["entail", "(forall x (P x))", "(P y)", "--oracle", "truthtable"], capsys
    )
    assert code == 2
    assert "VERDICT unknown" in out


def test_entail_proves_a_goal_the_countermodel_search_cannot_evaluate(capsys):
    # no theory declares f; the search interprets it, as the checker reads
    # the goal, and finds no countermodel, and Id closes the goal
    code, out = run_cli(["entail", "(P (f x))", "(P (f x))"], capsys)
    assert code == 0
    assert "VERDICT proved method=bounded" in out


def test_check_proof_roundtrip(tmp_path, capsys):
    code, out = run_cli(["prove", "(seq (ctx x) (ants (P x)) (sucs (P x)))"], capsys)
    proof_text = [l for l in out.splitlines() if l.startswith("CERTIFICATE ")][0]
    proof_text = proof_text[len("CERTIFICATE "):]
    path = tmp_path / "id.prf"
    path.write_text(proof_text, encoding="utf-8")
    code, out = run_cli(["check-proof", str(path)], capsys)
    assert code == 0
    assert out.strip() == "VERDICT pass"


def test_check_proof_failure_reports_path(capsys):
    bad = "(proof (rule Id) (concl (seq (ctx x) (ants (P x)) (sucs true))) (premises))"
    code, out = run_cli(["check-proof", bad], capsys)
    assert code == 1
    assert "VIOLATION rule-check" in out
    assert "VERDICT fail" in out


REFLEXIVITY = "(seq (ctx x1) (ants) (sucs (= x1 x1)))"
P_THEORY = "(theory (signature (predicates (P 1))) (axioms))"


def test_equality_is_identity_in_every_signature(capsys):
    # no signature declares `=`: EqRefl proves x1 = x1 and checks with no
    # theory, under a theory that names no equality and under one that
    # still does; no structure falsifies the goal
    code, out = run_cli(["prove", REFLEXIVITY], capsys)
    certificate = f"(proof (rule EqRefl (term x1)) (concl {REFLEXIVITY}) (premises))"
    assert (code, out) == (0, f"VERDICT proved\nCERTIFICATE {certificate}\n")
    equality_theory = "(theory (signature (predicates (P 1)) equality) (axioms))"
    for theory in ([], ["--theory", P_THEORY], ["--theory", equality_theory]):
        assert run_cli(["prove", REFLEXIVITY] + theory, capsys) == (code, out)
        assert run_cli(["check-proof", certificate] + theory, capsys) == (0, "VERDICT pass\n")
    code, out = run_cli(["models", REFLEXIVITY, "--size", "3"], capsys)
    assert (code, out) == (2, "VERDICT unknown no countermodel up to size 3\n")
    # a rule term may use the goal's own function symbols
    code, out = run_cli(["prove", "(seq (ctx x1) (ants) (sucs (= (f x1) (f x1))))"], capsys)
    assert code == 0 and "(rule EqRefl (term (f x1)))" in out
    certificate = out.splitlines()[1][len("CERTIFICATE "):]
    assert run_cli(["check-proof", certificate], capsys) == (0, "VERDICT pass\n")


def test_check_proof_refuses_a_witness_outside_the_signature(capsys):
    # the constant c would make the empty structure, which refutes the goal,
    # no structure; a theory that declares c makes the proof check
    goal = "(seq (ctx) (ants) (sucs (exists x true)))"
    witness = (
        f"(proof (rule RExists (pos 0) (term (c))) (concl {goal}) (premises"
        " (proof (rule RTop (pos 0)) (concl (seq (ctx) (ants) (sucs true))) (premises))))"
    )
    refused = (
        "VIOLATION rule-check path=root reason=RExists term c uses a function symbol"
        " outside the signature and the goal\nVERDICT fail\n"
    )
    for theory in ([], ["--theory", P_THEORY]):
        assert run_cli(["check-proof", witness] + theory, capsys) == (1, refused)
    code, out = run_cli(["models", goal, "--size", "0"], capsys)
    assert code == 1 and "empty structure" in out
    with_c = ["--theory", "(theory (signature (functions (c 0))) (axioms))"]
    code, out = run_cli(["prove", goal] + with_c, capsys)
    assert code == 0
    certificate = out.splitlines()[1][len("CERTIFICATE "):]
    assert run_cli(["check-proof", certificate] + with_c, capsys) == (0, "VERDICT pass\n")


ALL_P_THEORY = "(theory (signature (predicates (P 1))) (axioms (forall x (P x))))"


def test_calls_with_one_theory_text_share_the_theory(tmp_path, monkeypatch, capsys):
    # the text is parsed once: calls that give it inline or in a file hand
    # the oracle one Theory, which nothing can change, and report alike
    seen = []
    make_oracle = cli.make_oracle

    def recording(kind, theory, budget, model_size):
        seen.append(theory)
        return make_oracle(kind, theory, budget, model_size)

    monkeypatch.setattr(cli, "make_oracle", recording)
    path = tmp_path / "theory.sexpr"
    path.write_text(ALL_P_THEORY)
    first = run_cli(["entail", "true", "(P x)", "--theory", ALL_P_THEORY], capsys)
    assert first[0] == 0 and "(rule TheoryAxiom (formula (forall x (P x))))" in first[1]
    assert run_cli(["entail", "true", "(P x)", "--theory", ALL_P_THEORY], capsys) == first
    assert run_cli(["entail", "true", "(P x)", "--theory", str(path)], capsys) == first
    assert len(seen) == 3 and seen[0] is seen[1] is seen[2]
    with pytest.raises(dataclasses.FrozenInstanceError):
        seen[0].axioms = ()


def test_a_theory_file_rewritten_between_calls_is_read_anew(tmp_path, capsys):
    path = tmp_path / "theory.sexpr"
    argv = ["entail", "true", "(P x)", "--theory", str(path)]
    path.write_text(ALL_P_THEORY)
    assert run_cli(argv, capsys)[1].startswith("VERDICT proved")
    path.write_text("(theory (signature (predicates (P 1))) (axioms))")
    assert run_cli(argv, capsys) == (
        1, "VERDICT refuted method=bounded\nCERTIFICATE (structure (carrier 0) (pred P))\nNOTE assignment [x=0]\n"
    )
    path.write_text(ALL_P_THEORY)
    assert run_cli(argv, capsys)[1].startswith("VERDICT proved")


@pytest.mark.parametrize("theory, error", [
    ("(theory (signature (predicates (P 1))) (axioms (P x)))", "parse error at 1:40: axiom P(x) is not a sentence"),
    ("(theory (signature (predicates (P 1))) (axioms (forall x (P x)))", "parse error at 1:1: unclosed '('"),
])
def test_an_ill_formed_theory_exits_3_on_every_call(theory, error, capsys):
    # a text that fails to parse is not kept, so it fails again
    kept = cli._parsed_theory.cache_info().currsize
    for _ in range(3):
        assert main(["entail", "true", "(P x)", "--theory", theory]) == 3
        assert capsys.readouterr() == ("", f"ERROR {error}\n")
    assert cli._parsed_theory.cache_info().currsize == kept


def test_the_theory_cache_keeps_at_most_its_bound(capsys):
    texts = [f"(theory (signature (predicates (P 1) (R{i} 0))) (axioms))"
             for i in range(cli.THEORY_TEXTS_KEPT + 3)]
    oldest = cli.load_theory(texts[0])
    for text in texts:
        assert run_cli(["entail", "(P x)", "(P x)", "--theory", text], capsys)[0] == 0
        assert cli._parsed_theory.cache_info().currsize <= cli.THEORY_TEXTS_KEPT
    assert cli._parsed_theory.cache_info().maxsize == cli.THEORY_TEXTS_KEPT
    newest = cli.load_theory(texts[-1])
    assert cli.load_theory(texts[-1]) is newest
    assert cli.load_theory(texts[0]) is not oldest
    assert cli.load_theory(texts[0]) == oldest


def test_truthtable_countermodel_reads_back(capsys):
    # the carrier is numbered and f's table is total over it, so the printed
    # certificate parses and still falsifies the entailment
    code, out = run_cli(["entail", "(P (f x))", "(P x)", "--oracle", "truthtable"], capsys)
    assert (code, out) == (1, (
        "VERDICT refuted method=truthtable\n"
        "CERTIFICATE (structure (carrier 0 1) (fun f ((0) 0) ((1) 0)) (pred P (0)))\n"
        "NOTE assignment [x=1]\n"
    ))
    m = sexpr.parse_structure(sexpr.parse_sexpr(out.splitlines()[1][len("CERTIFICATE "):]))
    assignment = {"x": "1"}
    phi, psi = (sexpr.parse_formula(sexpr.parse_sexpr(t)) for t in ("(P (f x))", "(P x)"))
    assert eval_in_structure(phi, m, assignment) and not eval_in_structure(psi, m, assignment)


def test_models_empty_structure(capsys):
    code, out = run_cli(
        ["models", "(seq (ctx) (ants) (sucs (exists x true)))", "--size", "0"], capsys
    )
    assert code == 1
    assert "empty structure" in out
    assert "CERTIFICATE (structure (carrier))" in out


def test_models_none_found(capsys):
    code, out = run_cli(
        ["models", "(seq (ctx x) (ants (P x)) (sucs (P x)))", "--size", "2"], capsys
    )
    assert code == 2


def test_models_of_a_valid_goal_enumerates_no_structure(capsys, monkeypatch):
    # the decision proves the goal valid, so no size needs a scan (2**42
    # structures at size 6); at size 5 the report is the full scan's
    from doctrina import semantics

    scanned = record_blocks(monkeypatch)
    goal = "(seq (ctx x) (ants (Q x x)) (sucs (exists y (Q x y))))"
    assert run_cli(["models", goal, "--size", "6"], capsys) == (2, "VERDICT unknown no countermodel up to size 6\n")
    decided = run_cli(["models", goal, "--size", "5"], capsys)
    assert scanned == []
    monkeypatch.setattr(semantics, "decide_relational", lambda *args: None)
    assert run_cli(["models", goal, "--size", "5"], capsys) == decided
    assert len(scanned) == 1 + 1 + 1 + 1 + 2**4 + 2**13  # Q at sizes 0 to 5: 0, 1, 4, 9, 16, 25 bits


def test_verify_doctrine_pass(tmp_path, capsys):
    d = subset_doctrine({"E": (), "U": ("*",)})
    path = tmp_path / "subset.doc"
    path.write_text(sexpr.doctrine_sexpr(d), encoding="utf-8")
    code, out = run_cli(["verify-doctrine", str(path), "--level", "first-order"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == "VERDICT pass"
    code, out = run_cli(["verify-doctrine", str(path), "--level", "elementary"], capsys)
    assert code == 0


def test_verify_doctrine_catches_mutation(tmp_path, capsys):
    d = subset_doctrine({"E": (), "U": ("*",)})
    bad = dict(d.forall)
    bad[("U", "U")] = (1, 1)
    d = d.with_tables(forall=bad)
    path = tmp_path / "bad.doc"
    path.write_text(sexpr.doctrine_sexpr(d), encoding="utf-8")
    code, out = run_cli(["verify-doctrine", str(path), "--level", "first-order"], capsys)
    assert code == 1
    assert "VIOLATION" in out
    assert "VERDICT fail" in out


def test_verify_doctrine_qff_level(tmp_path, capsys):
    d = subset_doctrine({"E": (), "U": ("*",)})
    dpath = tmp_path / "subset.doc"
    dpath.write_text(sexpr.doctrine_sexpr(d), encoding="utf-8")
    mpath = tmp_path / "marking.mrk"
    mpath.write_text(sexpr.marking_sexpr(full_marking(d)), encoding="utf-8")
    code, out = run_cli(
        ["verify-doctrine", str(dpath), "--level", "qff", "--marking", str(mpath)], capsys
    )
    assert code == 0


def test_stratify_command(tmp_path, capsys):
    d = subset_doctrine({"E": (), "U": ("*",)})
    dpath = tmp_path / "subset.doc"
    dpath.write_text(sexpr.doctrine_sexpr(d), encoding="utf-8")
    mpath = tmp_path / "marking.mrk"
    mpath.write_text(sexpr.marking_sexpr(full_marking(d)), encoding="utf-8")
    code, out = run_cli(["stratify", str(dpath), str(mpath)], capsys)
    assert code == 0
    assert "LEVEL 0" in out
    assert "VERDICT pass" in out


def test_stratify_fails_every_mutant_as_verify_doctrine_does(capsys):
    # with a full marking there is one level and no pair for
    # verify_qa_stratified to check, so only the checks that run before it
    # (category, Boolean, first-order) see these mutants
    d = hbx_doctrine(chain_category(3), "c1", BoolAlg(2))
    marking = sexpr.marking_sexpr(full_marking(d))
    rng = random.Random(3)
    for kind in ("reindex", "forall"):
        for _ in range(100):
            text = sexpr.doctrine_sexpr(one_entry_mutant(rng, d, kind))
            code, out = run_cli(["stratify", text, marking], capsys)
            expected = run_cli(["verify-doctrine", text, "--level", "stratified", "--marking", marking], capsys)
            assert (code, out) == expected, kind
            assert code == 1 and "\nVIOLATION " in "\n" + out, (kind, out)


def _passing_pairs():
    for n in range(1, 5):
        for i in range(1, n + 1):
            for k in range(1, 4):
                d = hbx_doctrine(chain_category(n), f"c{i}", BoolAlg(k))
                yield d, full_marking(d)
    d = subset_doctrine({"E": (), "U": ("*",)})
    yield d, full_marking(d)
    yield chain_doctrine_with_proper_fragment()


def test_stratify_prints_its_levels_then_the_verify_doctrine_report(capsys):
    levels_seen = set()
    for d, marking in _passing_pairs():
        text, mtext = sexpr.doctrine_sexpr(d), sexpr.marking_sexpr(marking)
        code, out = run_cli(["stratify", text, mtext], capsys)
        _, report = run_cli(["verify-doctrine", text, "--level", "stratified", "--marking", mtext], capsys)
        seq = stratify(d, marking)
        levels = "".join(f"LEVEL {n} {sexpr.marking_sexpr(m)}\n" for n, m in enumerate(seq.levels))
        assert code == 0 and report.endswith("VERDICT pass\n"), report
        assert out == levels + report
        levels_seen.add(len(seq.levels))
    assert levels_seen == {1, 2}


@pytest.mark.parametrize("level", ["qff", "one-step", "stratified"])
@pytest.mark.parametrize("doctrine", ["passing", "failing"])
def test_a_level_that_needs_a_marking_exits_3_without_one(level, doctrine, capsys):
    d = hbx_doctrine(chain_category(2), "c1", BoolAlg(2))
    if doctrine == "failing":
        d = one_entry_mutant(random.Random(0), d, "reindex")
    text = sexpr.doctrine_sexpr(d)
    verdict = run_cli(["verify-doctrine", text, "--level", "first-order"], capsys)[0]
    assert verdict == (0 if doctrine == "passing" else 1)
    assert main(["verify-doctrine", text, "--level", level]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR {level} level needs --marking\n"


@pytest.mark.parametrize("level", ["boolean", "first-order", "elementary"])
def test_a_level_that_reads_no_marking_exits_3_with_one(level, capsys):
    text = sexpr.doctrine_sexpr(subset_doctrine({"E": (), "U": ("*",)}))
    # the marking is refused before it is parsed: this one is not a document
    assert main(["verify-doctrine", text, "--level", level, "--marking", "(marking (E 0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR {level} level takes no --marking\n"


@pytest.mark.parametrize("level", ["qff", "one-step", "stratified"])
def test_a_marked_object_the_doctrine_lacks_is_reported(level, capsys):
    text = sexpr.doctrine_sexpr(subset_doctrine({"E": (), "U": ("*",)}))
    marking = "(marking (E 0) (U 0 1) (Z 0 5 7))"
    code, out = run_cli(["verify-doctrine", text, "--level", level, "--marking", marking], capsys)
    assert code == 1 and out.endswith("VERDICT fail\n"), out
    assert "VIOLATION marking-unknown level=P0 X=Z" in out
    assert "NOTE stabilization index" not in out


def test_a_marking_that_is_no_fragment_gets_the_qff_report_at_every_level(capsys):
    # one line per violation, however many there are: the chain of 4 with
    # only its bounds marked breaks generation at six entries
    chain = hbx_doctrine(chain_category(4), "c2", BoolAlg(2))
    subsets = subset_doctrine({"E": (), "U": ("*",)})
    cases = [
        (chain, sexpr.marking_sexpr({x: frozenset({0, chain.fiber(x).top}) for x in chain.base.objects})),
        (subsets, "(marking (E 0) (U 0 1) (Z 0 5 7))"),
        (subsets, "(marking (E 0) (U 1))"),
    ]
    violations = []
    for d, marking in cases:
        text = sexpr.doctrine_sexpr(d)
        qff = run_cli(["verify-doctrine", text, "--level", "qff", "--marking", marking], capsys)
        assert run_cli(["verify-doctrine", text, "--level", "stratified", "--marking", marking], capsys) == qff
        assert run_cli(["stratify", text, marking], capsys) == qff
        violations.append(sum(line.startswith("VIOLATION ") for line in qff[1].splitlines()))
        assert qff[0] == 1 and qff[1].endswith("VERDICT fail\n"), qff
    assert violations[0] > 5 and min(violations) >= 1, violations


def test_the_stratified_level_compares_no_adjoint_of_a_table_that_keeps_the_laws(monkeypatch, capsys):
    # a universal table that keeps monotonicity, the unit and the counit is
    # the forced adjoint, so only a pair whose table breaks one is compared;
    # the layers stratify builds are not checked again
    from doctrina import cli, doctrine

    # the package exports a function named stratify, so look the module up
    stratify_module = importlib.import_module("doctrina.stratify")
    d = hbx_doctrine(chain_category(3), "c2", BoolAlg(2))
    mutant = one_entry_mutant(random.Random(1), d, "forall")
    (pair,) = [k for k in d.forall if mutant.forall[k] != d.forall[k]]
    marking = sexpr.marking_sexpr(full_marking(d))
    compared, checked = [], []
    forced_universal = doctrine.forced_universal

    def counted(d, x, y):
        compared.append((x, y))
        return forced_universal(d, x, y)

    monkeypatch.setattr(doctrine, "forced_universal", counted)
    for module in (cli, stratify_module):
        monkeypatch.setattr(module, "verify_qa_stratified", lambda seq: checked.append(seq) or [])
    argv = ["verify-doctrine", sexpr.doctrine_sexpr(d), "--level", "stratified", "--marking", marking]
    assert run_cli(argv, capsys)[0] == 0
    assert compared == [] and checked == []
    argv[1] = sexpr.doctrine_sexpr(mutant)
    code, out = run_cli(argv, capsys)
    assert code == 1 and f"VIOLATION forall-not-adjoint X={pair[0]} Y={pair[1]} " in out
    assert compared == [pair] and checked == []


def test_prefix_demo_separations(capsys):
    code, out = run_cli(["prefix-demo", "separations"], capsys)
    assert code == 0
    assert out.count("SEPARATED") == 4
    assert "VERDICT pass" in out


def test_prefix_demo_intersection(capsys):
    code, out = run_cli(
        ["prefix-demo", "intersection", "--k", "1", "--arity", "1", "--nmax", "2"], capsys
    )
    assert code == 0
    assert "EXCLUDED" in out


def test_complete_enumeration(tmp_path, capsys):
    thy = (
        "(theory (signature (predicates (P 1))) (axioms (forall x (P x))))"
    )
    code, out = run_cli(
        ["complete", thy, "--body-size", "2", "--ctx-size", "1", "--budget", "5"], capsys
    )
    assert code == 0
    assert "CONSEQUENCE" in out
    assert any("(P x1)" in l for l in out.splitlines())


def test_complete_order_query(capsys):
    thy = "(theory (signature (predicates (P 1))) (axioms (forall x (P x))))"
    code, out = run_cli(
        ["complete", thy, "--phi", "true", "--psi", "(P x1)", "--body-size", "2",
         "--ctx-size", "1", "--budget", "5"],
        capsys,
    )
    assert code == 0
    assert "VERDICT proved" in out


SYMMETRIC_Q_THEORY = (
    "(theory (signature (predicates (P 1) (Q 2)))"
    " (axioms (forall x (forall y (imp (Q x y) (Q y x))))))"
)


def test_complete_refutes_only_with_models_of_the_theory(capsys):
    # symmetry (a body of size 4) is not among the enumerated consequences,
    # and Q(x1,x2) |- Q(x2,x1) holds in every model of it
    code, out = run_cli(
        ["complete", SYMMETRIC_Q_THEORY, "--phi", "(Q x1 x2)", "--psi", "(Q x2 x1)"], capsys
    )
    assert (code, out) == (2, "VERDICT unknown\n")


@pytest.mark.parametrize(
    "theory",
    [
        SYMMETRIC_Q_THEORY,
        "(theory (signature (predicates (P 1)) equality) (axioms))",
        "(theory (signature (predicates (P 1) (Q 2)) equality)"
        " (axioms (forall x (forall y (imp (Q x y) (= x y))))))",
    ],
    ids=["symmetric", "equality", "equality-functional"],
)
def test_complete_certificates_check(theory, capsys):
    # a refutation is a model of T that falsifies the goal; a proof checks
    # against the universal consequences the same options enumerate
    options = ["--body-size", "3", "--ctx-size", "2", "--budget", "5"]
    t = sexpr.parse_theory(sexpr.parse_sexpr(theory))
    code, out = run_cli(["complete", theory] + options, capsys)
    assert code == 0
    universal = [
        sexpr.parse_formula(sexpr.parse_sexpr(line[len("CONSEQUENCE "):]))
        for line in out.splitlines() if line.startswith("CONSEQUENCE ")
    ]
    rng = random.Random(25)
    pool = enumerate_qf(atom_pool(t.signature, canonical_context(2)), 3)
    verdicts = set()
    for _ in range(25):
        phi, psi = rng.choice(pool), rng.choice(pool)
        argv = ["complete", theory, "--phi", sexpr.formula_sexpr(phi),
                "--psi", sexpr.formula_sexpr(psi)] + options
        code, out = run_cli(argv, capsys)
        lines = out.splitlines()
        verdicts.add(lines[0])
        goal = Sequent(infer_context(phi, psi), (phi,), (psi,))
        if code == 1:
            m = sexpr.parse_structure(sexpr.parse_sexpr(lines[1][len("CERTIFICATE "):]))
            assert all(eval_in_structure(ax, m, {}) for ax in t.axioms), argv
            assert falsifying_assignment(goal, m) is not None, argv
        elif code == 0:
            proof = sexpr.parse_proof(sexpr.parse_sexpr(lines[1][len("CERTIFICATE "):]))
            assert proof.conclusion == goal, argv
            assert check_proof(proof, universal).ok, argv
        else:
            assert (code, lines) == (2, ["VERDICT unknown"]), argv
    assert {"VERDICT proved", "VERDICT refuted"} <= verdicts


def test_parse_error_exit_code(capsys):
    code = main(["qa-depth", "(forall x"])
    assert code == 3


def test_reports_are_deterministic(capsys):
    args = ["prefix-demo", "separations"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2


def test_budget_env_override(capsys, monkeypatch):
    # an absurdly small default budget from the environment blocks the proof
    goal = "(seq (ctx x) (ants (P x) (Q x)) (sucs (and (P x) (Q x))))"
    monkeypatch.setenv("DOCTRINA_BUDGET", "0")
    code, out = run_cli(["prove", goal], capsys)
    assert code == 2
    monkeypatch.setenv("DOCTRINA_BUDGET", "8")
    code, out = run_cli(["prove", goal], capsys)
    assert code == 0
    # every call shares one parser, which keeps neither the environment nor
    # an earlier call's --budget
    assert build_parser() is build_parser()
    assert run_cli(["prove", goal, "--budget", "0"], capsys)[0] == 2
    assert run_cli(["prove", goal], capsys)[0] == 0
    monkeypatch.setenv("DOCTRINA_BUDGET", "0")
    assert run_cli(["prove", goal], capsys)[0] == 2


@pytest.mark.parametrize(
    "argv, budget, message",
    [
        (["--budget", "\u0663"], None, "ERROR argument --budget: invalid integer value: '\u0663'"),
        (["--budget", "abc"], None, "ERROR argument --budget: invalid integer value: 'abc'"),
        ([], " 1_0", "ERROR DOCTRINA_BUDGET must be an integer, got ' 1_0'"),
    ],
    ids=["arabic-indic-digit", "letters", "underscore-and-space-in-env"],
)
def test_integer_options_are_ascii_decimal(argv, budget, message, capsys, monkeypatch):
    # options and DOCTRINA_BUDGET read integers as documents do, and a
    # value that is not one exits 3 with one ERROR line, not with a verdict
    if budget is not None:
        monkeypatch.setenv("DOCTRINA_BUDGET", budget)
    assert main(["prove", "(seq (ctx x) (ants (P x)) (sucs (P x)))", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message + "\n"


def test_usage_errors_exit_3_and_help_exits_0(capsys):
    # exit 2 means unknown, so a usage error is an input error like any other
    assert main(["frobnicate"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ERROR argument command: invalid choice: 'frobnicate'") and err.count("\n") == 1
    assert main(["prove"]) == 3
    assert capsys.readouterr().err == "ERROR the following arguments are required: sequent\n"
    with pytest.raises(SystemExit) as exited:
        main(["prove", "--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: doctrina prove")


def test_a_negative_budget_runs_no_round(capsys):
    # `-1` is an integer; a deepening with no round finds no proof
    code, out = run_cli(["prove", "(seq (ctx x) (ants (P x)) (sucs (P x)))", "--budget", "-1"], capsys)
    assert (code, out) == (2, "VERDICT unknown\n")


def test_an_unproved_valid_goal_with_an_undeclared_function_is_unknown(capsys):
    # the scan interprets the undeclared `f` and finds no countermodel; the
    # search runs out of nodes, so the goal is unknown, not an input error
    goal = "(seq (ctx x) (ants) (sucs (or (Q (f x)) true)))"
    assert run_cli(["prove", goal, "--budget", "0", "--max-nodes", "1"], capsys) == (2, "VERDICT unknown\n")
    # with the nodes to find it, the proof is the answer
    assert run_cli(["prove", goal, "--budget", "0"], capsys)[0] == 0


def _run_subprocess(argv, seed="0", extra_env=None):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(path)}
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, "-m", "doctrina.cli"] + argv,
        env=env, capture_output=True, text=True, timeout=300,
    )


def _nested_not(depth):
    return "(not " * depth + "P" + ")" * depth


def _deep_documents(depth):
    # each document nests exactly `depth` brackets deep
    return {
        "qa-depth": ["qa-depth", _nested_not(depth)],
        "prove": ["prove", f"(seq (ctx) (ants) (sucs {_nested_not(depth - 2)}))"],
    }


def test_nesting_limit_itself_parses(capsys):
    for verb, argv in _deep_documents(MAX_NESTING).items():
        code, out = run_cli(argv, capsys)
        assert code in (0, 2), verb
        assert out


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3000])
def test_nesting_beyond_limit_exits_3_without_traceback(depth):
    for verb, argv in _deep_documents(depth).items():
        run = _run_subprocess(argv)
        assert run.returncode == 3, (verb, run.stderr[-300:])
        assert run.stderr.startswith("ERROR "), verb
        assert "nesting deeper than" in run.stderr
        assert "Traceback" not in run.stderr


PQ_THEORY = (
    "(theory (signature (predicates (P 1) (Q 2)))"
    " (axioms (forall x (P x)) (forall x (forall y (imp (Q x y) (Q y x))))))"
)


def test_reports_do_not_depend_on_hash_seed():
    hbx = hbx_doctrine(chain_category(3), "c2", BoolAlg(2))
    hbx_text = sexpr.doctrine_sexpr(hbx)
    hbx_marking = sexpr.marking_sexpr(full_marking(hbx))
    runs = [
        ["prove", "(seq (ctx x y) (ants (Q x y)) (sucs (and (P y) (Q y x))))",
         "--theory", PQ_THEORY],
        ["entail", "(Q x1 x2)", "(Q x1 x1)", "--oracle", "bounded", "--theory", PQ_THEORY],
        ["entail", "(and (R2 x1 x2) (R1 x2))", "(R3 x2 x1 x1)", "--oracle", "prefix"],
        ["models", "(seq (ctx x y) (ants (Q x y)) (sucs (Q y x)))", "--size", "2"],
        ["complete", PQ_THEORY, "--body-size", "2", "--ctx-size", "1"],
        ["verify-doctrine", hbx_text, "--level", "stratified", "--marking", hbx_marking],
        ["stratify", hbx_text, hbx_marking],
    ]
    for argv in runs:
        first, second = (_run_subprocess(argv, seed) for seed in ("1", "2"))
        assert first.stdout, (argv[0], first.stderr[-300:])
        assert "Traceback" not in first.stderr + second.stderr
        assert (first.returncode, first.stdout) == (second.returncode, second.stdout), argv[0]


def _falsified(formulas: tuple, m, assignment: dict) -> bool:
    """Whether `assignment` makes the antecedent formulas true and the
    succedent formulas false in `m`."""
    ants, sucs = formulas
    return all(eval_in_structure(f, m, assignment) for f in ants) and not any(
        eval_in_structure(f, m, assignment) for f in sucs
    )


def test_goals_with_an_undeclared_function_get_certified_answers(capsys):
    # half the formulas read f, which the theory does not declare: every verb
    # answers, every countermodel reads back as a model of the theory's
    # axioms that falsifies the goal, and every proof checks
    theory = sexpr.parse_theory(sexpr.parse_sexpr(PQ_THEORY))
    budget = ["--budget", "4", "--max-nodes", "100"]
    seen = set()
    for s in goals_mixing_f(random.Random(93), 40):
        phi, psi = conj(s.antecedent), disj(s.succedent)
        ctx = infer_context(phi, psi)
        runs = {
            "models": (["models", sexpr.sequent_sexpr(s), "--theory", PQ_THEORY], s),
            "prove": (["prove", sexpr.sequent_sexpr(s), "--theory", PQ_THEORY] + budget, s),
            "entail": (["entail", sexpr.formula_sexpr(phi), sexpr.formula_sexpr(psi), "--oracle", "bounded",
                        "--theory", PQ_THEORY] + budget, Sequent(ctx, (phi,), (psi,))),
            "complete": (["complete", PQ_THEORY, "--phi", sexpr.formula_sexpr(phi), "--psi", sexpr.formula_sexpr(psi),
                          "--body-size", "1", "--ctx-size", "0"] + budget, Sequent(ctx, (phi,), (psi,))),
        }
        for verb, (argv, goal) in runs.items():
            code, out = run_cli(argv, capsys)
            assert code in (0, 1, 2), (verb, argv)
            lines = out.splitlines()
            certificate = next((l[len("CERTIFICATE "):] for l in lines if l.startswith("CERTIFICATE ")), None)
            if certificate is None:
                seen.add((verb, "unknown"))
            elif certificate.startswith("(proof"):
                proof = sexpr.parse_proof(sexpr.parse_sexpr(certificate))
                assert proof.conclusion == goal, argv
                assert check_proof(proof, theory, theory.signature).ok, argv
                seen.add((verb, "proved"))
            else:
                m = sexpr.parse_structure(sexpr.parse_sexpr(certificate))
                assert all(eval_in_structure(ax, m, {}) for ax in theory.axioms), argv
                notes = [l.split("assignment ", 1)[1] for l in lines if "assignment [" in l]
                if verb == "complete":
                    assert not notes and falsifying_assignment(goal, m) is not None, argv
                else:
                    pairs = notes[0][1:-1]
                    assignment = dict(p.split("=") for p in pairs.split(", ")) if pairs else {}
                    assert _falsified((goal.antecedent, goal.succedent), m, assignment), argv
                seen.add((verb, "refuted with f" if "(fun f " in certificate else "refuted"))
    assert {(verb, "refuted with f") for verb in ("models", "prove", "entail", "complete")} <= seen, seen
    assert {("prove", "proved"), ("entail", "proved"), ("models", "unknown")} <= seen, seen


def test_undeclared_function_symbols_are_interpreted_by_models_and_entail(capsys):
    goal = "(seq (ctx x1) (ants) (sucs (= (f x1) (f x1))))"
    assert run_cli(["models", goal], capsys) == (2, "VERDICT unknown no countermodel up to size 2\n")
    code, out = run_cli(["entail", "(P (f x))", "(P x)"], capsys)
    verdict, certificate, note = out.splitlines()
    assert (code, verdict) == (1, "VERDICT refuted method=bounded")
    assert "(fun f " in certificate
    m = sexpr.parse_structure(sexpr.parse_sexpr(certificate[len("CERTIFICATE "):]))
    assignment = dict(p.split("=") for p in note[len("NOTE assignment ["):-1].split(", "))
    phi, psi = (sexpr.parse_formula(sexpr.parse_sexpr(t)) for t in ("(P (f x))", "(P x)"))
    assert _falsified(((phi,), (psi,)), m, assignment)


def test_a_valid_goal_with_a_five_ary_undeclared_function_is_proved_without_a_scan(monkeypatch, capsys):
    # f/5 has 2 ** 32 tables at size 2, so no scan runs: the prover answers
    # each verb at once, and `models` says that it did not scan
    from doctrina import syntactic

    real = syntactic.countermodel_search

    def search(s, axioms, signature, size, predicates=None):
        assert ("f", 5) not in signature.functions, "a scan of 2 ** 32 tables"
        return real(s, axioms, signature, size, predicates)

    monkeypatch.setattr(syntactic, "countermodel_search", search)
    atom = "(P (f x x x x x))"
    goal = f"(seq (ctx x) (ants {atom}) (sucs {atom}))"
    assert run_cli(["entail", atom, atom], capsys)[1].startswith("VERDICT proved method=bounded\n")
    code, out = run_cli(["prove", goal], capsys)
    assert (code, out.splitlines()[0]) == (0, "VERDICT proved")
    proof = out.splitlines()[1][len("CERTIFICATE "):]
    assert run_cli(["check-proof", proof], capsys) == (0, "VERDICT pass\n")
    complete = ["complete", P1_THEORY, "--phi", atom, "--body-size", "1", "--ctx-size", "0"]
    assert run_cli(complete + ["--psi", atom], capsys)[1].startswith("VERDICT proved\n")
    assert run_cli(complete + ["--psi", "(P x)", "--max-nodes", "100"], capsys) == (2, "VERDICT unknown\n")
    assert run_cli(["models", goal], capsys) == (
        2, "VERDICT unknown not scanned: the undeclared function symbols have too many tables\n")
    # f/3 has 256 tables, within the scan
    code, out = run_cli(["entail", "(P (f x x x))", "(P x)"], capsys)
    assert code == 1 and "(fun f " in out


@pytest.mark.parametrize(
    "argv",
    [
        # ParseError, positioned at the axioms: a theory axiom with a free variable
        ["complete", "(theory (signature (predicates (P 1))) (axioms (P x)))",
         "--body-size", "1", "--ctx-size", "0"],
        # PrefixError: the experiment's atom space is too large
        ["prefix-demo", "intersection", "--k", "2", "--arity", "3"],
        # RecursionError: each dropped duplicate costs the prover one frame;
        # the sequent is valid, so no countermodel answers it first
        ["prove", "(seq (ctx) (ants" + " P" * 2000 + ") (sucs (or Q P)))"],
    ],
    ids=["syntactic", "prefix", "wide-sequent"],
)
def test_ill_formed_input_exits_3_without_traceback(argv):
    run = _run_subprocess(argv)
    assert run.returncode == 3, run.stderr[-300:]
    assert run.stderr.startswith("ERROR "), run.stderr[-300:]
    assert "Traceback" not in run.stderr


def test_a_semantics_error_exits_3_with_one_error_line(monkeypatch, capsys):
    # every scan of the verbs interprets the symbols it reads, so no document
    # makes one raise; an error that still reaches `main` is an input error
    from doctrina import syntactic
    from doctrina.semantics import SemanticsError

    def failing(*args):
        raise SemanticsError("function f undefined at (0,)")

    monkeypatch.setattr(syntactic, "countermodel_search", failing)
    assert main(["models", "(seq (ctx x) (ants) (sucs (P x)))"]) == 3
    assert capsys.readouterr() == ("", "ERROR function f undefined at (0,)\n")


def test_wide_valid_sequent_is_proved_with_one_frame_per_level():
    # 599 dropped duplicates stack 600 proof levels, one prover frame each,
    # under the default recursion limit
    goal = "(seq (ctx) (ants" + " (or P P)" * 600 + ") (sucs P))"
    run = _run_subprocess(["prove", goal])
    assert run.returncode == 0, run.stderr[-300:]
    verdict, certificate = run.stdout.splitlines()
    assert verdict == "VERDICT proved"
    tree = prove_bounded(sexpr.parse_sequent(sexpr.parse_sexpr(goal)))
    assert check_proof(tree)
    assert certificate == "CERTIFICATE " + sexpr.proof_sexpr(tree)


P1_THEORY = "(theory (signature (predicates (P 1))) (axioms))"
P2_AXIOM_THEORY = "(theory (signature (predicates (P 1))) (axioms (forall x (P x x))))"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["entail", "(P x y)", "(P x)", "--theory", P1_THEORY], "used at arity 2 but declared at arity 1"),
        (["entail", "(P x)", "(P x x)"], "used at arities 1 and 2"),
        (["entail", "(P x)", "(P x x)", "--oracle", "truthtable"], "used at arities 1 and 2"),
        (["entail", "(P x)", "(P x x)", "--oracle", "prefix"], "used at arities 1 and 2"),
        (["models", "(seq (ctx x) (ants (P x x)) (sucs (P x)))"], "used at arities 1 and 2"),
        (["prove", "(seq (ctx x) (ants (P x x)) (sucs (P x)))"], "used at arities 1 and 2"),
        (["complete", P1_THEORY, "--phi", "(P x)", "--psi", "(P x x)"], "used at arity 2 but declared at arity 1"),
        (["complete", P2_AXIOM_THEORY], "used at arity 2 but declared at arity 1"),
        (["prove", "(seq (ctx x) (ants) (sucs (P x)))", "--theory", P2_AXIOM_THEORY],
         "used at arity 2 but declared at arity 1"),
        (["check-proof", "(proof (rule Id) (concl (seq (ctx x) (ants (P x x)) (sucs (P x x)))) (premises))",
          "--theory", P1_THEORY], "used at arity 2 but declared at arity 1"),
        (["check-proof", "(proof (rule LW (pos 1)) (concl (seq (ctx x) (ants (P x) (Q x)) (sucs (P x))))"
          " (premises (proof (rule Id) (concl (seq (ctx x) (ants (P x x)) (sucs (P x x)))) (premises))))"],
         "used at arities 1 and 2"),
        (["check-proof", "(proof (rule TheoryAxiom (formula (forall x (P x x))))"
          " (concl (seq (ctx) (ants) (sucs (forall x (P x))))) (premises))"], "used at arities 1 and 2"),
    ],
    ids=["entail-declared", "entail-bounded", "entail-truthtable", "entail-prefix", "models", "prove",
         "complete-order", "complete-axiom", "prove-axiom", "check-proof-declared", "check-proof-premise",
         "check-proof-rule-formula"],
)
def test_predicate_used_at_two_arities_exits_3(argv, message, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"ERROR predicate P is {message}\n"


F1_THEORY = "(theory (signature (functions (f 1)) (predicates (P 1))) (axioms))"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["prove", "(seq (ctx x1) (ants (P (f x1))) (sucs (P (f x1 x1))))"], "used at arities 1 and 2"),
        (["prove", "(seq (ctx x1) (ants) (sucs (P (f x1 x1))))", "--theory", F1_THEORY],
         "used at arity 2 but declared at arity 1"),
        (["entail", "(P (f x))", "(= x (f x x))"], "used at arities 1 and 2"),
        (["models", "(seq (ctx x) (ants (= (f x) (f x x))) (sucs))"], "used at arities 1 and 2"),
        (["entail", "(P (f (f x x)))", "(P x)", "--theory", F1_THEORY], "used at arity 2 but declared at arity 1"),
    ],
    ids=["prove", "prove-declared", "entail-equality", "models", "entail-nested-declared"],
)
def test_function_used_at_two_arities_exits_3(argv, message, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"ERROR function f is {message}\n"


def test_predicate_family_names_keep_their_handling(capsys):
    # the prefix oracle answers a family atom at the wrong arity with Unknown
    code, out = run_cli(["entail", "(R1 x)", "(R1 x x)", "--oracle", "prefix"], capsys)
    assert code == 2
    assert out == "VERDICT unknown note=not a word-language atom: R1(x, x)\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["entail", "(P x)", "(Q x)", "--oracle", "truthtable", "--theory",
          "(theory (signature (predicates (P 1) (Q 1))) (axioms (forall x (imp (P x) (Q x)))))"],
         "the truthtable oracle decides over a theory without axioms; use the bounded oracle"),
        (["entail", "(P x)", "(Q x)", "--oracle", "truthtable", "--theory", "prefix"],
         "the truthtable oracle decides over a theory without axioms; use the bounded oracle"),
        (["entail", "true", "(R1 x1)", "--oracle", "prefix", "--theory",
          "(theory (signature (families R)) (axioms (forall x (R1 x))))"],
         "the prefix oracle decides modulo the prefix theory only; give --theory prefix or leave it out"),
        (["entail", "(R2 x1 x2)", "(R1 x1)", "--oracle", "prefix", "--theory", "none"],
         "the prefix oracle decides modulo the prefix theory only; give --theory prefix or leave it out"),
    ],
    ids=["truthtable-axioms", "truthtable-prefix", "prefix-other-theory", "prefix-none"],
)
def test_exact_oracles_refuse_a_theory_they_would_ignore(argv, message, capsys):
    # each answered `VERDICT refuted` with a structure that breaks the
    # theory's axioms, or decided modulo another theory than the one given
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"ERROR {message}\n"


def test_exact_oracles_keep_the_theories_they_decide_modulo(capsys):
    signature_only = "(theory (signature (predicates (P 1) (Q 1))) (axioms))"
    code, out = run_cli(["entail", "(P x)", "(Q x)", "--oracle", "truthtable", "--theory", signature_only], capsys)
    assert code == 1 and out.startswith("VERDICT refuted method=truthtable\n")
    code, out = run_cli(["entail", "(R2 x1 x2)", "(R1 x1)", "--oracle", "prefix", "--theory", "prefix"], capsys)
    assert code == 0 and out.startswith("VERDICT proved method=prefix\n")


def test_an_argument_too_long_to_be_a_file_name_is_the_document(capsys):
    code, out = run_cli(["qa-depth", "P" * 300], capsys)
    assert code == 0
    assert out == "0\n"


def test_wide_refutable_sequent_is_answered_before_the_prover_recurses(capsys):
    code, out = run_cli(["prove", "(seq (ctx) (ants" + " P" * 600 + ") (sucs Q))"], capsys)
    assert code == 2
    assert "NOTE countermodel: empty structure, assignment []" in out
    assert "CERTIFICATE (structure (carrier) (pred P ()) (pred Q))" in out


# a one-object doctrine over the terminal category, minus its tables
ONE_OBJECT = (
    "(doctrine (objects a) (terminal a) (morphism i a a) (identity a i) (compose i i i)"
    " (product a a a i i) (pairing i i i) (fiber a 1){})"
)


def _zeroed_exists_document():
    # the subset doctrine of {} and {*} with a carried existential table of
    # zeros appended, the section format of earlier versions
    d = subset_doctrine({"E": (), "U": ("*",)})
    extra = "".join(
        f" (exists {x} {y}" + " 0" * d.product_fiber(x, y).size + ")"
        for x in d.base.objects
        for y in d.base.objects
    )
    return sexpr.doctrine_sexpr(d)[:-1] + extra + ")"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-doctrine", "(doctrine (terminal))"], "terminal takes 1 part, got 0"),
        (["verify-doctrine", "(doctrine (objects a) (terminal a) (morphism f a))"],
         "morphism takes 3 parts, got 2"),
        (["verify-doctrine", "(doctrine (objects a) (terminal a) (fiber a -1))"],
         "atom count must be >= 0"),
        (["verify-doctrine", ONE_OBJECT.format(" (reindex i 0 5)")],
         "table entry 5 is not an element of a fiber with 1 atoms"),
        (["verify-doctrine", ONE_OBJECT.format(" (reindex i 0)")], "table has 1 entries"),
        (["verify-doctrine", ONE_OBJECT.format(" (forall a b 0 1)")], "b is not a listed object"),
        (["verify-doctrine", ONE_OBJECT.format(" (reindex j 0 1)")], "j is not a declared morphism"),
        (["verify-doctrine", ONE_OBJECT.format("").replace(" (fiber a 1)", "")],
         "object a has no fiber"),
        (["verify-doctrine", "(doctrine (objects a) (terminal a))"], "object a has no identity"),
        (["stratify", "(doctrine (objects a) (terminal a))", "(marking (a 0))"],
         "object a has no identity"),
        (["verify-doctrine", ONE_OBJECT.format("").replace(" (product a a a i i)", "")],
         "no chosen product of a and a"),
        (["verify-doctrine", ONE_OBJECT.format(" (reindex i 0 1)"), "--level", "qff",
          "--marking", "(marking (a 0 9))"], "element 9 is not an element of a fiber"),
        (["check-proof", "(proof (rule) (concl (seq (ctx) (ants) (sucs true))))"],
         "rule needs a tag"),
        (["check-proof", "(proof (rule RTop) (concl))"], "concl takes one sequent"),
        (["verify-doctrine", _zeroed_exists_document(), "--level", "elementary"],
         "unknown doctrine section"),
    ],
    ids=[
        "terminal-arity", "morphism-arity", "negative-atoms", "entry-outside-fiber",
        "short-table", "unlisted-object", "undeclared-morphism", "no-fiber", "no-identity",
        "stratify-no-identity", "no-product", "marked-outside-fiber", "rule-without-tag",
        "empty-concl", "exists-section",
    ],
)
def test_hostile_documents_exit_3_with_a_positioned_error(argv, message):
    run = _run_subprocess(argv)
    assert run.returncode == 3, run.stderr[-300:]
    assert run.stderr.startswith("ERROR parse error at "), run.stderr[-300:]
    assert message in run.stderr, run.stderr[-300:]
    assert "Traceback" not in run.stderr


def _without_forall_e_e():
    text = sexpr.doctrine_sexpr(subset_doctrine({"E": (), "U": ("*",)}))
    return "\n".join(line for line in text.splitlines() if "(forall E E" not in line)


def _subset01_with(old, new):
    text = sexpr.doctrine_sexpr(subset_doctrine({"E": (), "U": ("*",)}))
    assert old in text
    return text.replace(old, new)


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (["verify-doctrine", ONE_OBJECT.format(" (reindex i 0 1)"), "--level", "one-step",
          "--marking", "(marking)"], 1, "VIOLATION marking-missing level=P0 X=a"),
        # stratify runs the checks of verify-doctrine --level stratified,
        # whose first-order and Boolean verifiers report the missing tables
        (["stratify", _without_forall_e_e(), "(marking (E 0) (U 0 1))"], 1,
         "VIOLATION forall-missing X=E Y=E"),
        (["stratify", ONE_OBJECT.format(""), "(marking (a 0 1))"], 1,
         "VIOLATION reindex-table f=i"),
        (["verify-doctrine", ONE_OBJECT.format(" (reindex i 0 1)").replace(" (compose i i i)", "")],
         3, "ERROR no composite of i after i"),
        # declared morphisms with the wrong endpoints as structure maps: the
        # category check reports them and the doctrine verifiers do not run
        (["verify-doctrine", _subset01_with("(product U E E E->U[]", "(product U E E E->E[]"),
          "--level", "first-order"], 1,
         "VIOLATION category detail=projections of U x E have wrong endpoints"),
        (["verify-doctrine", _subset01_with("(identity U U->U[0])", "(identity U E->E[])")], 1,
         "VIOLATION category detail=bad identity for U"),
    ],
    ids=["one-step-unmarked-object", "stratify-partial-forall", "stratify-no-reindex",
         "no-composite", "wrong-endpoint-projection", "wrong-endpoint-identity"],
)
def test_incomplete_doctrines_are_answered_without_traceback(argv, code, line):
    run = _run_subprocess(argv)
    assert run.returncode == code, run.stderr[-300:]
    assert line in (run.stdout + run.stderr).splitlines(), run.stdout + run.stderr[-300:]
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize(
    "case", ["bad-utf8", "bad-budget-env", "missing-marking", "phi-without-psi", "psi-without-phi"]
)
def test_bad_file_or_environment_exits_3_without_traceback(case, tmp_path):
    bad = tmp_path / "bad.seq"
    bad.write_bytes(b"(seq (ctx) (ants) (sucs P\xff))")
    if case == "bad-utf8":
        run = _run_subprocess(["prove", str(bad)])
    elif case == "bad-budget-env":
        run = _run_subprocess(["prove", "(seq (ctx) (ants) (sucs P))"], extra_env={"DOCTRINA_BUDGET": "x"})
    elif case in ("phi-without-psi", "psi-without-phi"):
        # `complete` with one of the two formulas would print the consequences
        option = "--" + case[:3]
        run = _run_subprocess(["complete", PQ_THEORY, option, "(P x1)"])
        assert run.stdout == "", run.stdout
    else:
        doc = tmp_path / "subset.doc"
        doc.write_text(sexpr.doctrine_sexpr(subset_doctrine({"E": (), "U": ("*",)})), encoding="utf-8")
        run = _run_subprocess(["verify-doctrine", str(doc), "--level", "qff"])
    assert run.returncode == 3, run.stderr[-300:]
    assert run.stderr.startswith("ERROR ") and run.stderr.count("\n") == 1, run.stderr[-300:]
    assert "Traceback" not in run.stderr
    # these errors have no position in a document
    assert "0:0" not in run.stderr, run.stderr


def test_unwritable_stdout_exits_3(monkeypatch, capsys):
    # the report is written inside main's error handling
    class Unwritable(io.StringIO):
        def write(self, text):
            raise OSError("stdout is closed")

    monkeypatch.setattr(sys, "stdout", Unwritable())
    assert main(["qa-depth", "(P x)"]) == 3
    assert capsys.readouterr().err == "ERROR stdout is closed\n"


def test_deep_proof_prints_its_certificate():
    # 175 nested implications: the proof is twice as deep as the formula
    chain = "P"
    for _ in range(175):
        chain = f"(imp P {chain})"
    run = _run_subprocess(["prove", f"(seq (ctx) (ants) (sucs {chain}))"])
    assert run.returncode == 0, run.stderr[-300:]
    assert "Traceback" not in run.stderr
    assert "\nCERTIFICATE (proof " in "\n" + run.stdout
