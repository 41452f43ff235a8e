"""Self-test of the benchmark, and one table of every end-to-end metric.

    python3 perfbench/selftest.py [--seed N] [--seconds S]

For each workload this runs ``run.py --trace 1`` twice at one seed and
requires the exact counts (LP solves, pairs tested, beliefs checked,
verdicts) and the output digests of every block both runs share to be
identical; ``run.py`` itself requires the traced pass to reproduce the
untraced pass's digests.  It checks that the metric names and units
match ``BENCHMARK.json``, runs ``run.py --trace 0`` once per workload and
prints the end-to-end metrics with ``failed_frac``, and checks that the
benchmark fails without printing a result where the program is missing.
Exit status 0 means every check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("check", "oracle", "cli")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def same_prefix(a: list, b: list) -> bool:
    n = min(len(a), len(b))
    return n > 0 and a[:n] == b[:n]


def check_repeat(workload: str, seed: int, seconds: float, declared: dict) -> list[str]:
    problems = []
    first_result, first = run(workload, seed, seconds, 1)
    second_result, second = run(workload, seed, seconds, 1)
    for result in (first_result, second_result):
        if not result["correct"]:
            problems.append(f"{workload}: a traced run reports correct=false")
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        if units != declared["per_layer"]:
            problems.append(f"{workload}: per-layer metrics differ from BENCHMARK.json")
    if not same_prefix(first["block_digests"], second["block_digests"]):
        problems.append(f"{workload}: output digests differ between two runs at seed {seed}")
    shared = set(first["exact_counts"]) & set(second["exact_counts"])
    for block in sorted(shared, key=int):
        if first["exact_counts"][block] != second["exact_counts"][block]:
            problems.append(f"{workload}: exact counts of block {block} differ at seed {seed}")
    print(f"{workload}: {len(shared)} block(s) compared, digest {first['block_digests'][0][:16]}, "
          f"counts {first['exact_counts']['0']}")
    return problems


def check_bare_directory() -> list[str]:
    """The benchmark must fail, printing no result, with only itself present."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True,
            text=True,
            cwd=bare,
            timeout=180,
        )
    if proc.returncode == 0 or proc.stdout.strip():
        return ["run.py succeeded or printed a result without the program present"]
    print(f"bare directory: exit {proc.returncode}, {proc.stderr.strip()}")
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=12.0, help="run length of the repeat checks")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = check_bare_directory()
    for workload in WORKLOADS:
        problems += check_repeat(workload, args.seed, args.seconds, declared)
    print(f"\n{'workload':8} {'metric':12} {'value':>12}  unit")
    for workload in WORKLOADS:
        result, record = run(workload, args.seed, spec["run_seconds"], 0)
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        if units != declared["end_to_end"]:
            problems.append(f"{workload}: end-to-end metrics differ from BENCHMARK.json")
        if not result["correct"]:
            problems.append(f"{workload}: correct=false")
        for name, metric in result["metrics"].items():
            print(f"{workload:8} {name:12} {metric['value']:12.6g}  {metric['unit']}")
        print(f"{workload:8} {'failed_frac':12} {result['failed'] / result['attempted']:12.6g}  ratio "
              f"({result['failed']} of {result['attempted']}; {record['latency_samples']} latency samples)")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
