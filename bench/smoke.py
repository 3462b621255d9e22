"""Tiny-size smoke run of every workload, plus the determinism check.

    python3 bench/smoke.py [--requests N]

For each workload this runs a few requests (or N) untraced under two
PYTHONHASHSEED values and once traced, and checks that:
- the last output line is the result object with exactly the contract keys;
- the untraced run emits every end-to-end metric of BENCHMARK.json and the
  traced run every per-layer metric, with the listed units;
- the verdict-and-certificate digest is the same under both hash seeds.
Request failures found by the re-checks are printed but do not fail the
smoke run; they are the benchmark's `failed` count.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SIZES = {"sound-sweep": 9, "entail": 12, "doctrine-verify": 10}
SEED = 7


def run(workload: str, trace: int, requests: int, hash_seed: str) -> tuple[dict, str]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--requests", str(requests)]
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def check_metrics(result: dict, expected: list[dict], label: str) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    got = result["metrics"]
    for m in expected:
        if m["name"] not in got:
            errors.append(f"{label}: metric {m['name']} missing")
        elif got[m["name"]]["unit"] != m["unit"]:
            errors.append(f"{label}: metric {m['name']} has unit {got[m['name']]['unit']}")
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        errors.append(f"{label}: unlisted metrics {sorted(extra)}")
    return errors


def main() -> int:
    p = argparse.ArgumentParser(description="tiny-size smoke run and determinism check")
    p.add_argument("--requests", type=int, default=None, help="untraced requests per workload")
    args = p.parse_args()
    errors = []
    for w in SPEC["workloads"]:
        name = w["name"]
        size = args.requests or SIZES[name]
        first, digest1 = run(name, 0, size, "1")
        _, digest2 = run(name, 0, size, "2")
        traced, _ = run(name, 1, max(2, SIZES[name] // 3), "1")
        errors += check_metrics(first, SPEC["end_to_end"], f"{name} untraced")
        errors += check_metrics(traced, SPEC["per_layer"], f"{name} traced")
        if digest1 != digest2:
            errors.append(f"{name}: digest differs between PYTHONHASHSEED 1 and 2")
        print(f"{name}: {digest1}; {first['failed']}/{first['attempted']} requests failed re-checks")
    for e in errors:
        print("ERROR", e)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
