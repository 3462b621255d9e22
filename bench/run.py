"""The doctrina benchmark: one closed-loop client, one process, one request
in flight, on one of its workloads.

    python3 bench/run.py --workload sound-sweep --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): `sound-sweep`, `entail`, `doctrine-verify`,
and `entail-prefix`, which BENCHMARK.json does not list (its re-checks fail
on a known defect of the prefix oracle).
Each request is timed alone; its verdict and certificate are re-checked
after the timer stops.  End-to-end times are scaled to a fixed speed of a
reference loop sampled during the run (see `reference_loop`); the values as
measured are printed on the line before the result.  With `--trace 0` the run reports the end-to-end
metrics; with `--trace 1` every request runs once plain and once with
spans around each layer's public functions (alternating which goes first),
and the run reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--requests N` runs
exactly N requests instead of a time window (used by smoke.py).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

SETUP_REPS = 7          # set-up is repeated and its median reported
SETUP_REFERENCES = 3    # reference samples taken before each set-up
PREFETCH = 50           # requests generated during set-up
MIN_SAMPLES = 110       # keeps ten samples beyond p90
DIGEST_REQUESTS = 100   # the determinism digest covers the first requests
REFERENCE_EVERY = 0.25  # seconds between samples of the speed reference
REFERENCE_S = 0.0015    # the reference's median time where the first baseline was taken


def reference_loop() -> float:
    """Time one fixed pure-Python computation that uses no doctrina code.

    On a shared virtual machine the CPU speed can drift by a fifth between
    runs, so timings are reported at the speed at which this loop takes
    REFERENCE_S (2 vCPUs, Python 3.11.7); a change to doctrina cannot move
    the loop."""
    t0 = time.perf_counter()
    table = {}
    for i in range(2000):
        table[(i * 7919) % 1543] = (i, str(i))
    sorted(table.items(), key=lambda kv: kv[1][1])
    return time.perf_counter() - t0


def setup(workload: str, seed: int):
    """Import doctrina and the workloads afresh, build the request stream
    and generate its first requests."""
    t0 = time.perf_counter()
    for name in list(sys.modules):
        if name in ("workloads", "tracing", "doctrina") or name.startswith("doctrina."):
            del sys.modules[name]
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[workload](seed)
    wl.prefetch(PREFETCH)
    return time.perf_counter() - t0, wl


class Tally:
    """Failures, decided verdicts and the determinism digest."""

    def __init__(self, digest_requests: int):
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.digest = hashlib.sha256()
        self.digest_requests = digest_requests

    def record(self, wl, req, result, error) -> None:
        from workloads import Checked

        if error is None:
            try:
                check = wl.recheck(req, result)
            except Exception as e:  # a certificate that cannot be re-read fails the request
                check = Checked(False, f"re-check raised {e!r}", "raised")
        else:
            check = Checked(False, f"raised {error!r}", "raised")
        if self.attempted < self.digest_requests:
            self.digest.update(f"{self.attempted}\t{check.digest}\n".encode())
        self.attempted += 1
        self.decided += check.decided and check.failure is None
        if check.failure is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED request {self.attempted - 1}: {check.failure}", file=sys.stderr)


def execute(wl, req):
    try:
        return wl.execute(req), None
    except Exception as e:  # counted as failed; the run goes on
        traceback.print_exc(limit=3)
        return None, e


def timed_run(wl, seconds: float, requests: int | None, tally: Tally) -> tuple[list, list]:
    """Closed loop until the window ends; returns the request latencies and
    the reference timings sampled between requests."""
    latencies: list[float] = []
    references: list[float] = []
    start = next_reference = time.perf_counter()
    cap = max(2 * seconds, seconds + 30)
    while True:
        req = wl.next_request()
        t0 = time.perf_counter()
        result, error = execute(wl, req)
        latencies.append(time.perf_counter() - t0)
        tally.record(wl, req, result, error)
        if time.perf_counter() >= next_reference:
            references.append(reference_loop())
            next_reference += REFERENCE_EVERY
        if requests is not None:
            if len(latencies) >= requests:
                return latencies, references
            continue
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(latencies) >= MIN_SAMPLES) or elapsed >= cap:
            return latencies, references


def traced_run(wl, seconds: float, requests: int | None, tally: Tally, trace_path: Path) -> dict:
    import tracing

    tracer = tracing.Tracer()
    tracing.instrument(tracer, wl)
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        req = wl.next_request()
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            root = tracer.install(i) if traced else None
            t0 = time.perf_counter()
            result, error = execute(wl, req)
            dt = time.perf_counter() - t0
            if traced:
                tracer.uninstall(root)
                traced_s += dt
            else:
                plain_s += dt
            tally.record(wl, req, result, error)
        i += 1
        if requests is not None and i >= requests:
            break
        if requests is None and time.perf_counter() - start >= seconds:
            break
    tracer.write(trace_path)
    return tracing.layer_metrics(tracer, traced_s, plain_s, wl.layers)


def end_to_end(latencies: list[float], tally: Tally, setup_s: float, speed: float) -> dict:
    """The end-to-end metrics; request times are multiplied by `speed` (the
    reference's nominal over its measured time) and rates divided by it.
    `setup_s` comes already scaled by the speed sampled during set-up."""
    n = len(latencies)
    p90 = statistics.quantiles(latencies, n=10)[8] if n > 1 else latencies[0]
    metrics = {
        "goals_per_s": (n / sum(latencies) / speed, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000 * speed, "ms"),
        "latency_p90_ms": (p90 * 1000 * speed, "ms"),
        "decided_share": (tally.decided / tally.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("sound-sweep", "entail", "entail-prefix", "doctrine-verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--requests", type=int, default=None, help="run exactly this many requests")
    args = p.parse_args(argv)

    if not (SRC / "doctrina" / "__init__.py").is_file():
        print(f"error: no doctrina package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))

    times, setup_references = [], []
    for _ in range(SETUP_REPS):
        gc.collect()  # the previous repetition's modules are garbage, not set-up work
        setup_references += [reference_loop() for _ in range(SETUP_REFERENCES)]
        dt, wl = setup(args.workload, args.seed)
        times.append(dt)
    setup_s = statistics.median(times)
    setup_speed = REFERENCE_S / statistics.median(setup_references)

    tally = Tally(args.requests or DIGEST_REQUESTS)
    if args.trace:
        trace_path = BENCH / "traces" / f"{args.workload}-{args.seed}.json"
        metrics = traced_run(wl, args.seconds, args.requests, tally, trace_path)
        shares = {k: round(v["value"], 4) for k, v in metrics.items() if k.endswith(".share")}
        print(f"layer shares: {json.dumps(shares)}")
        print(f"spans written to {trace_path.relative_to(BENCH.parent)}")
    else:
        latencies, references = timed_run(wl, args.seconds, args.requests, tally)
        speed = REFERENCE_S / statistics.median(references)
        raw = end_to_end(latencies, tally, setup_s, 1.0)
        metrics = end_to_end(latencies, tally, setup_s * setup_speed, speed)
        print(f"{args.workload} seed {args.seed}: {len(latencies)} requests, "
              f"p50/p90 over {len(latencies)} samples, setup runs {[round(t, 4) for t in times]}")
        print(f"reference loop median {statistics.median(references) * 1000:.4f} ms over "
              f"{len(references)} samples, {statistics.median(setup_references) * 1000:.4f} ms "
              f"during set-up; as measured: "
              + ", ".join(f"{k} {v['value']:.6g}" for k, v in raw.items()))
    print(f"digest first {min(tally.attempted, tally.digest_requests)} {tally.digest.hexdigest()}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
