"""Spans around the calls into each `doctrina` layer, and the per-layer
metrics computed from them.

Only coarse public boundaries are wrapped, at the names their callers look
up: module globals of `doctrina.cli`, `doctrina.syntactic` and
`doctrina.prefix`, a stand-in for the `sexpr` module that `doctrina.cli`
reaches through, the `decide` methods of the two oracles,
`FPCategory.check`, and the entry points a workload calls itself.
Recursive hot functions (`eval_in_structure`, `substitute`, the prover's
inner search) are never wrapped: their spans would time the wrapper.

A span is `[name, request, parent, start, end, payload]`; spans are kept in
memory and written out once the run ends.  The wrappers are installed only
around a traced request and removed after it, so untraced requests run the
library's own functions.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "sexpr", "cli", "syntactic", "prefix", "formula",
    "calculus", "semantics", "doctrine", "category", "stratify",
)

_SEXPR_PARSERS = (
    "parse_sexpr", "parse_formula", "parse_sequent", "parse_theory",
    "parse_proof", "parse_doctrine", "parse_marking",
)
_SEXPR_PRINTERS = ("proof_sexpr", "structure_sexpr", "formula_sexpr", "marking_sexpr")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = None
        self.patches: list[tuple] = []

    # --- recording --------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        rec = [name, self.request, parent, time.perf_counter(), 0.0, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self.stack.pop()

    def wrap(self, owner, attr: str, name: str, keep=None) -> None:
        """Register a span around `owner.attr`; `keep(args, result)` picks
        what the metrics need, after the span has closed."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(rec)
            if keep is not None:
                rec[5] = keep(args, result)
            return result

        self.patches.append((owner, attr, original, traced))

    def install(self, request_id: int) -> list:
        for owner, attr, _, traced in self.patches:
            setattr(owner, attr, traced)
        self.request = request_id
        return self._open("bench.request")

    def uninstall(self, root: list) -> None:
        self._close(root)
        self.request = None
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][3] if self.spans else 0.0
        rows = [[n, r, p, round(s - t0, 7), round(e - t0, 7)] for n, r, p, s, e, _ in self.spans]
        path.write_text(json.dumps({"columns": ["name", "request", "parent", "start", "end"],
                                    "spans": rows}, separators=(",", ":")))


def _result(args, result):
    return result


def _text_len(args, result):
    return len(args[0])


def _result_len(args, result):
    return len(result)


def instrument(tracer: Tracer, workload) -> None:
    """Register every span this benchmark records, for the modules the
    workload imported."""
    cli = sys.modules["doctrina.cli"]
    syntactic = sys.modules["doctrina.syntactic"]
    prefix = sys.modules["doctrina.prefix"]
    category = sys.modules["doctrina.category"]
    sexpr = sys.modules["doctrina.sexpr"]

    def search_keep(args, result):
        s, _axioms, signature, size = args[:4]
        predicates = args[4] if len(args) > 4 else None
        return result is not None, len(s.context), signature, size, predicates

    api = getattr(workload, "api", None)
    if api is not None:
        tracer.wrap(api, "prove_bounded", "calculus.prove_bounded", _result)
        tracer.wrap(api, "check_proof", "calculus.check_proof")
        tracer.wrap(api, "countermodel_search", "semantics.countermodel_search", search_keep)
    if hasattr(workload, "main"):
        tracer.wrap(workload, "main", "cli.main")
    for module in (cli, syntactic, prefix):
        tracer.wrap(module, "prove_bounded", "calculus.prove_bounded", _result)
    for module in (cli, syntactic):
        tracer.wrap(module, "countermodel_search", "semantics.countermodel_search", search_keep)
    tracer.wrap(syntactic.BoundedOracle, "decide", "syntactic.decide")
    tracer.wrap(prefix.PrefixOracle, "decide", "prefix.decide")
    tracer.wrap(prefix, "prefix_entails", "prefix.prefix_entails")
    tracer.wrap(prefix, "word_countermodel", "prefix.word_countermodel")
    tracer.wrap(prefix, "to_dnf", "formula.to_dnf")
    tracer.wrap(category.FPCategory, "check", "category.check")
    for fn in ("verify_boolean_doctrine", "verify_first_order", "check_forall_tables"):
        tracer.wrap(cli, fn, "doctrine." + fn, lambda args, result: (len(result), args[0]))
    tracer.wrap(cli, "report_lines", "doctrine.report_lines")
    tracer.wrap(cli, "stratify", "stratify.stratify")
    tracer.wrap(cli, "verify_qa_stratified", "stratify.verify_qa_stratified")

    # doctrina.cli reaches the printer and parsers as `sexpr.<name>`; a
    # stand-in module keeps the recursive calls inside sexpr untraced
    stand_in = types.ModuleType("sexpr")
    stand_in.__dict__.update(sexpr.__dict__)
    for fn in _SEXPR_PARSERS:
        tracer.wrap(stand_in, fn, "sexpr." + fn, _text_len if fn == "parse_sexpr" else None)
    for fn in _SEXPR_PRINTERS:
        tracer.wrap(stand_in, fn, "sexpr." + fn, _result_len)
    tracer.patches.append((cli, "sexpr", sexpr, stand_in))


def _table_entries(d) -> int:
    entries = sum(len(t) for t in d.reindex.values())
    if d.forall is not None:
        entries += sum(len(t) for t in d.forall.values())
    return entries


def _evaluations(cache: dict, ctx_len: int, signature, size: int, predicates) -> int:
    """Structures times assignments of an exhaustive countermodel scan,
    counted by enumerating the structures it visits."""
    from doctrina.semantics import enumerate_structures

    key = (signature, size, tuple(predicates) if predicates is not None else None)
    if key not in cache:
        per_size: dict[int, int] = defaultdict(int)
        for m in enumerate_structures(signature, size, predicates):
            per_size[len(m.carrier)] += 1
        cache[key] = dict(per_size)
    return sum(n * k ** ctx_len for k, n in cache[key].items())


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float, layers=LAYERS) -> dict:
    """Per-layer counts, busy times and shares from the recorded spans, for
    the named layers only.

    Counts, bytes and seconds are means per traced request, so runs that
    complete different numbers of requests compare directly; ratios, rates
    and shares are taken over the whole run."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, _, parent, start, end, _ in spans:
        if parent is not None:
            child[parent] += end - start
    dur = defaultdict(float)
    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    for i, (name, _, _, start, end, _) in enumerate(spans):
        d = end - start
        dur[name] += d
        calls[name] += 1
        self_by_name[name] += d - child[i]
        layer_self[name.split(".")[0]] += d - child[i]
    total = dur["bench.request"]
    requests = calls["bench.request"]

    hit_s = miss_s = 0.0
    hits = misses = evals = 0
    eval_cache: dict = {}
    prove_hit_s = prove_miss_s = 0.0
    prove_hits = nodes = 0
    violations = entries = 0
    verify_s = 0.0
    bytes_in = bytes_out = 0
    for name, _, _, start, end, payload in spans:
        d = end - start
        if name == "semantics.countermodel_search":
            hit, ctx_len, signature, size, predicates = payload
            if hit:
                hits += 1
                hit_s += d
            else:
                misses += 1
                miss_s += d
                evals += _evaluations(eval_cache, ctx_len, signature, size, predicates)
        elif name == "calculus.prove_bounded":
            if payload is not None:
                prove_hits += 1
                prove_hit_s += d
                nodes += payload.node_count()
            else:
                prove_miss_s += d
        elif name.startswith("doctrine.") and name != "doctrine.report_lines":
            violations += payload[0]
            entries += _table_entries(payload[1])
            verify_s += d
        elif name == "sexpr.parse_sexpr":
            bytes_in += payload
        elif name.startswith("sexpr.") and name.endswith("_sexpr"):
            bytes_out += payload

    def ratio(a, b):
        return a / b if b else 0.0

    parse_s = sum(dur["sexpr." + fn] for fn in _SEXPR_PARSERS)
    search_calls = calls["semantics.countermodel_search"]
    prove_calls = calls["calculus.prove_bounded"]
    out = {
        "semantics.search_hit_s": (hit_s, "s"),
        "semantics.search_miss_s": (miss_s, "s"),
        "semantics.search_calls": (search_calls, "count"),
        "semantics.search_hit_ratio": (ratio(hits, search_calls), "ratio"),
        "semantics.evals_per_s": (ratio(evals, miss_s), "1/s"),
        "calculus.prove_calls": (prove_calls, "count"),
        "calculus.prove_hit_ratio": (ratio(prove_hits, prove_calls), "ratio"),
        "calculus.prove_hit_s": (prove_hit_s, "s"),
        "calculus.prove_miss_s": (prove_miss_s, "s"),
        "calculus.proof_nodes": (nodes, "count"),
        "calculus.check_s": (dur["calculus.check_proof"], "s"),
        "prefix.decide_calls": (calls["prefix.decide"], "count"),
        "prefix.decide_self_s": (self_by_name["prefix.decide"], "s"),
        "prefix.criterion_s": (dur["prefix.prefix_entails"], "s"),
        "prefix.word_countermodel_s": (dur["prefix.word_countermodel"], "s"),
        "formula.to_dnf_s": (dur["formula.to_dnf"], "s"),
        "formula.to_dnf_calls": (calls["formula.to_dnf"], "count"),
        "syntactic.decide_calls": (calls["syntactic.decide"], "count"),
        "syntactic.decide_self_s": (self_by_name["syntactic.decide"], "s"),
        "sexpr.parse_s": (parse_s, "s"),
        "sexpr.print_s": (sum(dur["sexpr." + fn] for fn in _SEXPR_PRINTERS), "s"),
        "sexpr.bytes_in": (bytes_in, "B"),
        "sexpr.bytes_out": (bytes_out, "B"),
        "sexpr.parse_bytes_per_s": (ratio(bytes_in, parse_s), "B/s"),
        "doctrine.verify_boolean_s": (dur["doctrine.verify_boolean_doctrine"], "s"),
        "doctrine.verify_first_order_s": (dur["doctrine.verify_first_order"], "s"),
        "doctrine.check_forall_s": (dur["doctrine.check_forall_tables"], "s"),
        "doctrine.violations": (violations, "count"),
        "doctrine.table_entries_per_s": (ratio(entries, verify_s), "1/s"),
        "category.check_s": (dur["category.check"], "s"),
        "stratify.stratify_s": (dur["stratify.stratify"], "s"),
        "stratify.verify_s": (dur["stratify.verify_qa_stratified"], "s"),
    }
    out = {k: v for k, v in out.items() if k.split(".")[0] in layers}
    for layer in layers:
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
        out[f"{layer}.share"] = (ratio(layer_self[layer], total), "ratio")
    out["bench.share"] = (ratio(layer_self["bench"], total), "ratio")
    out["trace.spans"] = (len(spans), "count")
    metrics = {
        k: {"value": ratio(v, requests) if u in ("s", "count", "B") else v, "unit": u}
        for k, (v, u) in out.items()
    }
    metrics["trace.requests"] = {"value": requests, "unit": "count"}
    metrics["trace.overhead"] = {"value": ratio(traced_s, untraced_s) - 1.0, "unit": "ratio"}
    return metrics
