"""The benchmark's workloads: seeded request streams, the timed call into
`doctrina` for one request, and the untimed re-check of its verdict.
BENCHMARK.json lists `sound-sweep`, `entail` and `doctrine-verify`;
`entail-prefix` is runnable but unlisted (see `EntailPrefix`).

Every generator draws from its own `random.Random(seed)` and only ever
picks from lists and tuples, so a seed gives the same requests under any
PYTHONHASHSEED.  Goals are never filtered by outcome or cost: the node
budget bounds each request, and goals it cannot settle count as undecided.

A workload calls `doctrina` only through `self.api` (sound-sweep) or
`doctrina.cli.main` (entail, doctrine-verify), so the traced run can put
spans around those calls without touching the library's source.
"""

from __future__ import annotations

import collections
import contextlib
import io
import random
import types
from dataclasses import dataclass

from doctrina import cli, sexpr
from doctrina.boolalg import BoolAlg
from doctrina.calculus import Budget, Sequent, check_proof, prove_bounded
from doctrina.category import chain_category
from doctrina.doctrine import full_marking, hbx_doctrine, random_doctrine
from doctrina.formula import (
    And, Bot, Exists, Forall, Imp, Not, Or, Pred, Top, free_vars, rectify,
)
from doctrina.lang import Context, Signature, Var, pool_var
from doctrina.prefix import axiom_alpha, prefix_theory, qf_entails_modT
from doctrina.semantics import SemanticsError, countermodel_search, eval_in_structure
from doctrina.syntactic import Theory


SIG = Signature(predicates=(("P", 1), ("Q", 2)))

# sound-sweep: criterion-1-shaped goals over P/1 and Q/2 under one node
# budget.  One-variable contexts, small formulas and two or three succedents
# keep each exhaustive size-3 scan near 0.1 s (2 vCPUs, Python 3.11.7) and
# the proved share near 0.8, so a run holds ~400 goals and its median falls
# inside the proved goals rather than between the proved and refuted ones.
SWEEP_BUDGET = Budget(max_depth=6, max_term_depth=2, max_nodes=500)
SWEEP_MODEL_SIZE = 3
SWEEP_CONTEXT = Context(("x1",))
SWEEP_ANTECEDENTS = (1, 2)
SWEEP_SUCCEDENTS = (2, 3)
SWEEP_MAX_SIZE = 3

# entail: one --budget / --max-nodes pair for both oracles
ENTAIL_DEPTH = 4
ENTAIL_NODES = 100
ENTAIL_MODEL_SIZE = 2

# doctrine-verify: hom-power doctrines hbx(chain n, c_i, B_k) and random
# Boolean doctrines over chains of at most 3 objects
HBX_CHAINS = (2, 3, 4)
HBX_MAX_ATOMS = 6
RANDOM_MAX_OBJECTS = 3
RANDOM_MAX_ATOMS = 8

EXIT_FOR = {"proved": 0, "refuted": 1, "unknown": 2}


def _p(v: str):
    return Pred("P", (Var(v),))


def _q(a: str, b: str):
    return Pred("Q", (Var(a), Var(b)))


# criterion 10's universal theory: everything is P, and Q is symmetric
UNIVERSAL_THEORY = Theory(
    SIG,
    (
        Forall("x", _p("x")),
        Forall("x", Forall("y", Imp(_q("x", "y"), _q("y", "x")))),
    ),
)


def _pool_key(name: str):
    if name.startswith("x") and name[1:].isdigit():
        return (0, int(name[1:]), name)
    return (1, 0, name)


def pq_formula(rng: random.Random, variables: tuple, size: int):
    """A random formula over P/1 and Q/2 with at most `size` nodes; bound
    variables come from x4..x6 and the result is rectified."""
    atoms = [
        _p(rng.choice(variables)),
        _q(rng.choice(variables), rng.choice(variables)),
        Top(),
        Bot(),
    ]
    if size <= 1:
        return rng.choice(atoms)
    kind = rng.randrange(6)
    if kind == 0:
        return Not(pq_formula(rng, variables, size - 1))
    if kind in (1, 2, 3):
        left = rng.randint(1, size - 2) if size > 2 else 1
        ctor = (And, Or, Imp)[kind - 1]
        return ctor(pq_formula(rng, variables, left), pq_formula(rng, variables, size - 1 - left))
    fresh = pool_var(rng.randint(4, 6))
    inner = variables if fresh in variables else variables + (fresh,)
    ctor = Forall if kind == 4 else Exists
    return rectify(ctor(fresh, pq_formula(rng, inner, size - 1)), avoid=variables)


def prefix_formula(rng: random.Random, k: int, size: int):
    """A random quantifier-free formula over R0..R3 applied to x1..xk."""
    if size <= 1:
        m = rng.randint(0, 3)
        return Pred(f"R{m}", tuple(Var(pool_var(rng.randint(1, k))) for _ in range(m)))
    kind = rng.randrange(4)
    if kind == 0:
        return Not(prefix_formula(rng, k, size - 1))
    left = rng.randint(1, size - 2) if size > 2 else 1
    ctor = (And, Or, Imp)[kind - 1]
    return ctor(prefix_formula(rng, k, left), prefix_formula(rng, k, size - 1 - left))


def inferred_context(*formulas) -> Context:
    names = set()
    for f in formulas:
        names |= free_vars(f)
    return Context(tuple(sorted(names, key=_pool_key)))


def run_cli(main, argv: list) -> tuple:
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@dataclass
class Checked:
    """The re-check of one request: whether its verdict is definite and
    certified, why it failed (None when it did not), and the text the
    determinism digest is taken over."""

    decided: bool
    failure: str | None
    digest: str


def _report_parts(text: str) -> dict:
    parts: dict = {"notes": []}
    for line in text.splitlines():
        head, _, rest = line.partition(" ")
        if head == "VERDICT":
            parts["verdict"] = rest.split(" ")[0]
        elif head == "CERTIFICATE":
            parts["certificate"] = rest
        elif head == "NOTE":
            parts["notes"].append(rest)
        elif head == "VIOLATION":
            parts.setdefault("violations", []).append(rest)
    return parts


def _parse_assignment(note: str) -> dict:
    body = note[len("assignment ["):-1]
    return dict(item.split("=", 1) for item in body.split(", ")) if body else {}


class Workload:
    """A seeded request stream plus the timed call and the re-check."""

    name = ""
    # the layers a traced run reports; prefix and formula (to_dnf) are
    # reached only through the prefix oracle
    layers = ("sexpr", "cli", "syntactic", "calculus", "semantics",
              "doctrine", "category", "stratify")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.generated = 0
        self.queue: collections.deque = collections.deque()

    def prefetch(self, n: int) -> None:
        while len(self.queue) < n:
            self.queue.extend(self._generate(self.generated))
            self.generated += 1

    def next_request(self):
        if not self.queue:
            self.prefetch(1)
        return self.queue.popleft()

    def _generate(self, i: int) -> list:
        """The requests of the i-th generation step, in order."""
        raise NotImplementedError

    def execute(self, req):
        raise NotImplementedError

    def recheck(self, req, result) -> Checked:
        raise NotImplementedError


# --- sound-sweep ------------------------------------------------------------------


@dataclass
class SweepGoal:
    sequent: Sequent


class SoundSweep(Workload):
    """Criterion-1-shaped goals: prove with the empty theory, check the proof,
    then scan every structure of size <= 3 (a miss for proved goals, a first
    hit for refutable ones)."""

    name = "sound-sweep"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.api = types.SimpleNamespace(
            prove_bounded=prove_bounded,
            check_proof=check_proof,
            countermodel_search=countermodel_search,
        )

    def _generate(self, i: int) -> list:
        ctx = SWEEP_CONTEXT
        rng = self.rng
        n_ant = rng.randint(*SWEEP_ANTECEDENTS)
        n_suc = rng.randint(*SWEEP_SUCCEDENTS)
        ants = tuple(pq_formula(rng, ctx.vars, rng.randint(1, SWEEP_MAX_SIZE)) for _ in range(n_ant))
        sucs = tuple(pq_formula(rng, ctx.vars, rng.randint(1, SWEEP_MAX_SIZE)) for _ in range(n_suc))
        return [SweepGoal(Sequent(ctx, ants, sucs))]

    def execute(self, req: SweepGoal):
        api = self.api
        s = req.sequent
        proof = api.prove_bounded(s, (), SWEEP_BUDGET, SIG)
        check = api.check_proof(proof, (), SIG) if proof is not None else None
        found = api.countermodel_search(s, (), SIG, SWEEP_MODEL_SIZE)
        return proof, check, found

    def recheck(self, req: SweepGoal, result) -> Checked:
        proof, check, found = result
        s = req.sequent
        if proof is not None:
            text = sexpr.proof_sexpr(proof)
            if not check.ok:
                return Checked(True, f"proof rejected: {check.reason}", text)
            if found is not None:
                return Checked(True, "proved goal has a countermodel of size <= 3", text)
            return Checked(True, _recheck_proof(text, s, (), SIG), "proved " + text)
        if found is None:
            return Checked(False, None, "unknown")
        m, assignment = found
        text = f"refuted {sexpr.structure_sexpr(m)} {sorted(assignment.items())}"
        if not all(eval_in_structure(a, m, assignment) for a in s.antecedent) or any(
            eval_in_structure(b, m, assignment) for b in s.succedent
        ):
            return Checked(True, "countermodel does not falsify the goal", text)
        return Checked(True, None, text)


def _recheck_proof(text: str, goal: Sequent, theory, signature) -> str | None:
    """Parse a printed proof back and check it concludes the goal."""
    tree = sexpr.parse_proof(sexpr.parse_sexpr(text))
    if sexpr.sequent_sexpr(tree.conclusion) != sexpr.sequent_sexpr(goal):
        return "certificate concludes a different sequent"
    result = check_proof(tree, theory, signature)
    return None if result.ok else f"parsed certificate rejected: {result.reason}"


# --- entail -----------------------------------------------------------------------


@dataclass
class EntailGoal:
    oracle: str
    phi: object
    psi: object
    argv: list


class Entail(Workload):
    """In-process `doctrina entail` calls with the bounded oracle, modulo
    criterion 10's universal theory."""

    name = "entail"
    oracle = "bounded"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.theory_text = sexpr.theory_sexpr(UNIVERSAL_THEORY)
        self.prefix = prefix_theory()
        self.main = cli.main

    def _generate(self, i: int) -> list:
        rng = self.rng
        budget = ["--budget", str(ENTAIL_DEPTH), "--max-nodes", str(ENTAIL_NODES)]
        if self.oracle == "bounded":
            k = i % 2 + 1
            variables = tuple(pool_var(j) for j in range(1, k + 1))
            phi = pq_formula(rng, variables, rng.randint(1, 4))
            psi = pq_formula(rng, variables, rng.randint(1, 4))
            argv = ["entail", sexpr.formula_sexpr(phi), sexpr.formula_sexpr(psi),
                    "--oracle", "bounded", "--theory", self.theory_text,
                    "--model-size", str(ENTAIL_MODEL_SIZE)] + budget
            return [EntailGoal("bounded", phi, psi, argv)]
        k = i % 3 + 1
        phi = prefix_formula(rng, k, rng.randint(1, 4))
        psi = prefix_formula(rng, k, rng.randint(1, 3))
        argv = ["entail", sexpr.formula_sexpr(phi), sexpr.formula_sexpr(psi),
                "--oracle", "prefix"] + budget
        return [EntailGoal("prefix", phi, psi, argv)]

    def execute(self, req: EntailGoal):
        return run_cli(self.main, req.argv)

    def recheck(self, req: EntailGoal, result) -> Checked:
        code, out, err = result
        digest = f"{code}\n{out}"
        parts = _report_parts(out)
        verdict = parts.get("verdict")
        if verdict not in EXIT_FOR:
            return Checked(False, f"no verdict (exit {code}): {err.strip()[:200]}", digest)
        if code != EXIT_FOR[verdict]:
            return Checked(True, f"exit code {code} for verdict {verdict}", digest)
        ctx = inferred_context(req.phi, req.psi)
        goal = Sequent(ctx, (req.phi,), (req.psi,))
        prefix = req.oracle == "prefix"
        theory = self.prefix if prefix else UNIVERSAL_THEORY
        if prefix:
            entailed = qf_entails_modT(req.phi, req.psi, ctx)
            if entailed != (verdict != "refuted"):
                reason = f"prefix verdict {verdict} disagrees with the prefix criterion"
                return Checked(verdict != "unknown", reason, digest)
        if verdict == "unknown":
            return Checked(False, None, digest)
        if verdict == "proved":
            reason = _recheck_proof(parts["certificate"], goal, theory, theory.signature)
            return Checked(True, reason, digest)
        m = sexpr.parse_structure(sexpr.parse_sexpr(parts["certificate"]))
        assignment = _parse_assignment(parts["notes"][0])
        if prefix:
            # a word model truncated at length t satisfies the axioms below t
            t = max(int(name[1:]) for name in m.predicates)
            axioms = [axiom_alpha(j) for j in range(t)]
        else:
            axioms = list(UNIVERSAL_THEORY.axioms)
        try:
            if not all(eval_in_structure(ax, m, {}) for ax in axioms):
                return Checked(True, "countermodel violates an axiom", digest)
            falsified = eval_in_structure(req.phi, m, assignment) and not eval_in_structure(
                req.psi, m, assignment
            )
            if not falsified:
                return Checked(True, "countermodel does not falsify the entailment", digest)
        except SemanticsError as e:
            return Checked(True, f"{req.oracle} countermodel cannot evaluate the goal: {e}", digest)
        return Checked(True, None, digest)


class EntailPrefix(Entail):
    """`doctrina entail --oracle prefix` on random quantifier-free formulas
    over R0..R3 in 1-3-variable contexts.  Not listed in BENCHMARK.json:
    about one refutation in ten carries a countermodel that fails the
    re-check (see `known_defects` in baseline.json), so a run reports
    `correct: false` until the prefix oracle is fixed."""

    name = "entail-prefix"
    oracle = "prefix"
    layers = Entail.layers + ("prefix", "formula")


# --- doctrine-verify --------------------------------------------------------------


@dataclass
class DoctrineCase:
    kind: str
    doctrine: object
    argv: list
    # the mutated table: ("reindex", morphism) or ("forall", (X, Y))
    mutation: tuple | None = None


def _mutate(rng: random.Random, d, table_kind: str):
    """A copy of `d` with one entry of one reindexing or universal table
    changed to another element of the same fiber."""
    cat = d.base
    if table_kind == "forall":
        keys = [k for k in sorted(d.forall) if d.fiber(k[0]).atoms > 0]
        key = rng.choice(keys)
        table = list(d.forall[key])
        top = d.fiber(key[0]).top
    else:
        keys = [f for f in sorted(d.reindex) if d.fiber(cat.morphisms[f][0]).atoms > 0]
        key = rng.choice(keys)
        table = list(d.reindex[key])
        top = d.fiber(cat.morphisms[key][0]).top
    i = rng.randrange(len(table))
    table[i] ^= rng.randint(1, top)
    if table_kind == "forall":
        return d.with_tables(forall={**d.forall, key: tuple(table)}), ("forall", key)
    return d.with_tables(reindex={**d.reindex, key: tuple(table)}), ("reindex", key)


def _forced_universal(d, x: str, y: str) -> tuple:
    """The right adjoint of reindexing along pr1 : x*y -> x, as the join of
    the atoms of fiber(x) whose reindexing lies below the argument."""
    p, pr1, _ = d.base.product(x, y)
    atoms = [1 << i for i in range(d.fiber(x).atoms)]
    images = [d.re(pr1, a) for a in atoms]
    out = []
    for b in d.fiber(p).elements():
        v = 0
        for a, img in zip(atoms, images):
            if img & ~b == 0:
                v |= a
        out.append(v)
    return tuple(out)


def beck_chevalley_failures(d) -> int:
    """Count the Beck-Chevalley failures of the forced universal tables,
    independently of `doctrina.doctrine`."""
    cat = d.base
    tables = {(x, y): _forced_universal(d, x, y) for x in cat.objects for y in cat.objects}
    count = 0
    for f, (x1, x) in sorted(cat.morphisms.items()):
        for y in cat.objects:
            fxid = cat.times_id(f, y)
            upper, lower = tables[(x, y)], tables[(x1, y)]
            for b in d.product_fiber(x, y).elements():
                if d.re(f, upper[b]) != lower[d.re(fxid, b)]:
                    count += 1
    return count


class DoctrineVerify(Workload):
    """In-process `doctrina verify-doctrine` calls on a fixed rotation of
    five cases: an hbx doctrine at `stratified`, a one-entry mutant of it,
    a random Boolean doctrine at `boolean` and at `first-order`, and a
    one-entry mutant of the random doctrine at `boolean`."""

    name = "doctrine-verify"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.main = cli.main

    def _generate(self, i: int) -> list:
        rng = self.rng
        n = HBX_CHAINS[i % len(HBX_CHAINS)]
        table_kind = "reindex" if i % 2 == 0 else "forall"
        hbx = hbx_doctrine(
            chain_category(n), f"c{rng.randint(1, n)}", BoolAlg(rng.randint(1, HBX_MAX_ATOMS))
        )
        marking = ["--marking", sexpr.marking_sexpr(full_marking(hbx))]
        mutant, where = _mutate(rng, hbx, table_kind)
        rand = random_doctrine(rng, RANDOM_MAX_OBJECTS, RANDOM_MAX_ATOMS)
        objects = rand.base.objects
        rand = rand.with_tables(
            forall={(x, y): _forced_universal(rand, x, y) for x in objects for y in objects}
        )
        rand_mutant, rand_where = _mutate(rng, rand, "reindex")
        text = sexpr.doctrine_sexpr(rand)

        def verify(d, level, extra=(), text=None):
            return ["verify-doctrine", text or sexpr.doctrine_sexpr(d), "--level", level, *extra]

        return [
            DoctrineCase("hbx", hbx, verify(hbx, "stratified", marking)),
            DoctrineCase("hbx-mutant", mutant, verify(mutant, "stratified", marking), where),
            DoctrineCase("random-boolean", rand, verify(rand, "boolean", text=text)),
            DoctrineCase("random-first-order", rand, verify(rand, "first-order", text=text)),
            DoctrineCase("random-mutant", rand_mutant, verify(rand_mutant, "boolean"), rand_where),
        ]

    def execute(self, req: DoctrineCase):
        return run_cli(self.main, req.argv)

    def recheck(self, req: DoctrineCase, result) -> Checked:
        code, out, err = result
        digest = f"{code}\n{out}"
        parts = _report_parts(out)
        verdict = parts.get("verdict")
        violations = parts.get("violations", [])
        if verdict not in ("pass", "fail"):
            return Checked(False, f"no verdict (exit {code}): {err.strip()[:200]}", digest)
        if code != (0 if verdict == "pass" else 1) or (verdict == "fail") != bool(violations):
            return Checked(True, f"exit code {code} for verdict {verdict}", digest)
        if req.kind in ("hbx", "random-boolean"):
            return Checked(True, None if verdict == "pass" else f"{req.kind} instance failed", digest)
        if req.kind == "random-first-order":
            expected = beck_chevalley_failures(req.doctrine)
            bc = [v for v in violations if v.startswith("beck-chevalley ")]
            if len(bc) != expected or len(violations) != expected:
                reason = f"{len(violations)} violations, {expected} Beck-Chevalley failures expected"
                return Checked(True, reason, digest)
            return Checked(True, None, digest)
        table, key = req.mutation
        if table == "reindex":
            names = (f"f={key}", f"g={key}")
        else:
            names = (f"X={key[0]} Y={key[1]}",)
        if not any(f" {n} " in f" {v} " for v in violations for n in names):
            return Checked(True, f"mutant of {table} {key} not reported", digest)
        return Checked(True, None, digest)


WORKLOADS = {w.name: w for w in (SoundSweep, Entail, EntailPrefix, DoctrineVerify)}
