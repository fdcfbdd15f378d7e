"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/smoke.py [workload ...]

For each workload it runs `run.py --scale tiny --seconds 0` (one timed
pass) four times and checks that
- the last line holds exactly `correct`, `attempted`, `failed` and
  `metrics`, and the metrics are exactly the end-to-end metrics of
  BENCHMARK.json (trace 0) or its per-layer metrics (trace 1), each with
  the unit given there;
- the same seed run twice gives identical counts and AUC;
- a different seed gives different inputs.
The AUC floors are set for the full size, so `correct` is printed but not
required here. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 300


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_metrics(result: dict, expected: list[dict], what: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: result keys are {sorted(result)}")
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if set(got) != set(want):
        problems.append(f"{what}: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name in set(got) & set(want):
        if got[name] != want[name]:
            problems.append(f"{what}: {name} has unit {got[name]!r}, BENCHMARK.json says {want[name]!r}")
        if not isinstance(result["metrics"][name].get("value"), (int, float)):
            problems.append(f"{what}: {name} has no numeric value")
    return problems


def smoke(workload: str) -> list[str]:
    report1, first = run(workload, 1, 0)
    report1b, again = run(workload, 1, 0)
    report2, _other = run(workload, 2, 0)
    _report_t, traced = run(workload, 1, 1)
    problems = check_metrics(first, SPEC["end_to_end"], f"{workload} trace 0")
    problems += check_metrics(traced, SPEC["per_layer"], f"{workload} trace 1")
    for key in ("attempted", "failed"):
        if first[key] != again[key]:
            problems.append(f"{workload}: {key} {first[key]} then {again[key]} under one seed")
    if first["metrics"]["auc"]["value"] != again["metrics"]["auc"]["value"]:
        problems.append(f"{workload}: AUC differs under one seed")
    if report1["input_digest"] != report1b["input_digest"]:
        problems.append(f"{workload}: inputs differ under one seed")
    if report1["input_digest"] == report2["input_digest"]:
        problems.append(f"{workload}: seeds 1 and 2 gave the same inputs")
    print(f"{workload}: correct={first['correct']} attempted={first['attempted']} failed={first['failed']} "
          f"auc={first['metrics']['auc']['value']:.4f} problems={len(problems)}")
    return problems


def main(argv) -> int:
    workloads = argv or [w["name"] for w in SPEC["workloads"]]
    problems = []
    for workload in workloads:
        problems += smoke(workload)
    for problem in problems:
        print("FAIL", problem)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
