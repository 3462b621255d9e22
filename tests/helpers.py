"""Independent oracles and generators shared across the test modules.

Everything here recomputes expected values by a route different from the
code under test: textual substitution instead of the morphism machinery, a
set-based layer constructor instead of the depth recursion, word-language
sweeps instead of the prefix criterion.
"""

from __future__ import annotations

import itertools
import random

from doctrina.lang import App, Context, CtxMorphism, Term, Var, canonical_context, pool_var
from doctrina.formula import (
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
    free_vars,
    is_quantifier_free,
)
from doctrina.calculus import Sequent
from doctrina.prefix import PrefixAtom


# --- naive textual term substitution (oracle for compose_ctx) -----------------


def naive_subst(t: Term, mapping: dict[str, Term]) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    assert isinstance(t, App)
    return App(t.symbol, tuple(naive_subst(a, mapping) for a in t.args))


# --- brute-force quantifier-alternation layers ---------------------------------


def boolean_leaves(phi: Formula) -> list[Formula]:
    """The maximal non-Boolean subtrees of a formula's connective skeleton."""
    if isinstance(phi, (Top, Bot)):
        return []
    if isinstance(phi, Not):
        return boolean_leaves(phi.body)
    if isinstance(phi, (And, Or, Imp)):
        return boolean_leaves(phi.left) + boolean_leaves(phi.right)
    return [phi]


def block_strippings(phi: Formula) -> list[Formula]:
    """All proper strippings of the leading same-quantifier block: the bodies
    obtainable by removing one or more leading binders of the same kind."""
    out = []
    kind = type(phi)
    if kind not in (Forall, Exists):
        return out
    core = phi
    while isinstance(core, kind):
        core = core.body
        out.append(core)
    return out


def brute_layer_index(phi: Formula, universe_cache: dict) -> int:
    """The least n with phi in the n-th layer, where layer 0 is the set of
    quantifier-free formulas and layer n+1 is the Boolean closure of all
    one-kind quantifier blocks over layer-n formulas.

    Memoized by object identity: enumerated universes share subtree objects,
    and the cached keep-alive list pins them so ids stay valid."""
    members = universe_cache.setdefault("members", {})
    keep = universe_cache.setdefault("keep", [])
    leaves_of = universe_cache.setdefault("leaves", {})

    def leaves(f: Formula):
        got = leaves_of.get(id(f))
        if got is None:
            got = boolean_leaves(f)
            leaves_of[id(f)] = got
            keep.append(f)
        return got

    def in_layer(f: Formula, n: int) -> bool:
        key = (id(f), n)
        cached = members.get(key)
        if cached is not None:
            return cached
        if n == 0:
            result = is_quantifier_free(f)
        else:
            result = True
            for leaf in leaves(f):
                if in_layer(leaf, n - 1):
                    continue
                if isinstance(leaf, (Forall, Exists)) and any(
                    in_layer(rest, n - 1) for rest in block_strippings(leaf)
                ):
                    continue
                result = False
                break
        members[key] = result
        keep.append(f)
        return result

    n = 0
    while not in_layer(phi, n):
        n += 1
    return n


def enumerate_formulas(atoms: list[Formula], variables: list[str], max_size: int) -> list[Formula]:
    """All rectified formulas up to the given tree size over the atoms, with
    binders drawn from the variable pool.  Rectification is tracked
    incrementally as (formula, free set, bound set) triples, so no candidate
    is built and then re-walked."""
    base = [(a, free_vars(a), frozenset()) for a in atoms]
    base += [(Top(), frozenset(), frozenset()), (Bot(), frozenset(), frozenset())]
    by_size: dict[int, list[tuple]] = {1: base}
    for s in range(2, max_size + 1):
        layer: list[tuple] = []
        for f, fr, bd in by_size[s - 1]:
            layer.append((Not(f), fr, bd))
            for v in variables:
                if v not in bd:
                    layer.append(((Forall(v, f)), fr - {v}, bd | {v}))
                    layer.append(((Exists(v, f)), fr - {v}, bd | {v}))
        for ls in range(1, s - 1):
            for a, fa, ba in by_size[ls]:
                for b, fb, bb in by_size[s - 1 - ls]:
                    if ba & bb or ba & fb or bb & fa:
                        continue
                    fr, bd = fa | fb, ba | bb
                    layer.append((And(a, b), fr, bd))
                    layer.append((Or(a, b), fr, bd))
                    layer.append((Imp(a, b), fr, bd))
        by_size[s] = layer
    return [f for s in sorted(by_size) for f, _, _ in by_size[s]]


# --- random sequents over a small relational signature --------------------------


def random_formula(rng: random.Random, variables: tuple[str, ...], size: int) -> Formula:
    atoms = [
        Pred("P", (Var(rng.choice(variables)),)),
        Pred("Q", (Var(rng.choice(variables)), Var(rng.choice(variables)))),
        Top(),
        Bot(),
    ]
    if size <= 1:
        return rng.choice(atoms)
    kind = rng.randrange(6)
    if kind == 0:
        return Not(random_formula(rng, variables, size - 1))
    if kind in (1, 2, 3):
        ls = rng.randint(1, size - 2) if size > 2 else 1
        ctor = (And, Or, Imp)[kind - 1]
        return ctor(
            random_formula(rng, variables, ls),
            random_formula(rng, variables, size - 1 - ls),
        )
    fresh = pool_var(rng.randint(4, 6))
    body_vars = tuple(variables) + ((fresh,) if fresh not in variables else ())
    ctor = Forall if kind == 4 else Exists
    from doctrina.formula import rectify

    return rectify(ctor(fresh, random_formula(rng, body_vars, size - 1)), avoid=variables)


def random_sequent(rng: random.Random, max_size: int = 5) -> Sequent:
    ctx = Context(tuple(pool_var(i) for i in range(1, rng.randint(1, 3) + 1)))
    n_ant = rng.randint(0, 2)
    n_suc = rng.randint(1, 2)
    ants = tuple(random_formula(rng, ctx.vars, rng.randint(1, max_size)) for _ in range(n_ant))
    sucs = tuple(random_formula(rng, ctx.vars, rng.randint(1, max_size)) for _ in range(n_suc))
    return Sequent(ctx, ants, sucs)


def random_prefix_formula(rng: random.Random, k: int, size: int) -> Formula:
    """A quantifier-free formula over R0..R3 applied to variables among x1..xk."""
    if size <= 1:
        m = rng.randint(0, 3)
        return Pred(f"R{m}", tuple(Var(pool_var(rng.randint(1, k))) for _ in range(m)))
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_prefix_formula(rng, k, size - 1))
    ls = rng.randint(1, size - 2) if size > 2 else 1
    ctor = (And, Or, Imp)[kind - 1]
    return ctor(random_prefix_formula(rng, k, ls), random_prefix_formula(rng, k, size - 1 - ls))


# --- exhaustive truncated word-model search (oracle for the prefix criterion) ----


def word_refutable(positives: list[PrefixAtom], negatives: list[PrefixAtom], k: int) -> bool:
    """Whether some assignment of the context variables to letters admits a
    truncated word model satisfying every positive atom and no negative one.

    Sweeps every assignment into a k-letter alphabet; for a fixed assignment
    only the prefix closure of the positive words needs checking, since any
    larger language still satisfies the positives and can only lose the
    falsification.  With no positives the empty language always refutes."""
    if not positives:
        return True
    letters = tuple(f"a{i}" for i in range(1, k + 1))
    for rho in itertools.product(letters, repeat=k):
        closure = set()
        for p in positives:
            w = p.word(rho)
            for i in range(len(w) + 1):
                closure.add(w[:i])
        if all(n.word(rho) not in closure for n in negatives):
            return True
    return False
