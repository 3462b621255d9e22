import io
import os
import pathlib
import subprocess
import sys

import pytest

from doctrina.cli import main
from doctrina import sexpr
from doctrina.sexpr import MAX_NESTING
from doctrina.doctrine import subset_doctrine
from doctrina.doctrine import full_marking


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


def _run_subprocess(argv, seed="0"):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(path)}
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
    runs = [
        ["prove", "(seq (ctx x y) (ants (Q x y)) (sucs (and (P y) (Q y x))))",
         "--theory", PQ_THEORY],
        ["entail", "(Q x1 x2)", "(Q x1 x1)", "--oracle", "bounded", "--theory", PQ_THEORY],
        ["entail", "(and (R2 x1 x2) (R1 x2))", "(R3 x2 x1 x1)", "--oracle", "prefix"],
        ["models", "(seq (ctx x y) (ants (Q x y)) (sucs (Q y x)))", "--size", "2"],
        ["complete", PQ_THEORY, "--body-size", "2", "--ctx-size", "1"],
    ]
    for argv in runs:
        first, second = (_run_subprocess(argv, seed) for seed in ("1", "2"))
        assert first.stdout, (argv[0], first.stderr[-300:])
        assert "Traceback" not in first.stderr + second.stderr
        assert (first.returncode, first.stdout) == (second.returncode, second.stdout), argv[0]


@pytest.mark.parametrize(
    "argv",
    [
        # SemanticsError: the countermodel search meets f with no table
        ["prove", "(seq (ctx x) (ants) (sucs (Q (f (f x)))))", "--budget", "3"],
        # SyntacticError: a theory axiom with a free variable
        ["complete", "(theory (signature (predicates (P 1))) (axioms (P x)))",
         "--body-size", "1", "--ctx-size", "0"],
        # PrefixError: the experiment's atom space is too large
        ["prefix-demo", "intersection", "--k", "2", "--arity", "3"],
    ],
    ids=["semantics", "syntactic", "prefix"],
)
def test_ill_formed_input_exits_3_without_traceback(argv):
    run = _run_subprocess(argv)
    assert run.returncode == 3, run.stderr[-300:]
    assert run.stderr.startswith("ERROR "), run.stderr[-300:]
    assert "Traceback" not in run.stderr


def test_deep_proof_prints_its_certificate():
    # 175 nested implications: the proof is twice as deep as the formula
    chain = "P"
    for _ in range(175):
        chain = f"(imp P {chain})"
    run = _run_subprocess(["prove", f"(seq (ctx) (ants) (sucs {chain}))"])
    assert run.returncode == 0, run.stderr[-300:]
    assert "Traceback" not in run.stderr
    assert "\nCERTIFICATE (proof " in "\n" + run.stdout
