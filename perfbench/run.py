"""elicitkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {check,oracle,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  One process, one closed-loop client: the next
operation starts when the last one has finished.  Operations run in whole
blocks (see ``workloads.py``).

``--trace 0`` runs blocks until ``--seconds`` have passed and at least
100 operations are done, and reports the end-to-end metrics.  ``--trace 1``
runs blocks untraced for half of ``--seconds``, runs the same blocks again
with every call into the traced functions recorded as a span, and reports
the per-layer metrics of the traced pass, per block, plus the tracing
overhead against the untraced pass.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts operations
that raised, exited 2, or gave a wrong output; ``correct`` is false when
any output was wrong (a contradicted verdict, an inconsistent oracle, a
mechanism that fails verify, a file that does not reload to the same
bytes, or traced outputs that differ from untraced ones).  A traced run
counts the operations of both passes.  The full
record, with output digests, exact counts, workload properties and
versions, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads; child processes inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Set-up is timed in this many fresh processes; the median is reported.
SETUP_PROBES = 5
#: Blocks generated during set-up; a run that needs more generates them as it goes.
SETUP_BLOCKS = 8
#: A timed run goes on until it has at least this many operations.
MIN_OPS = 100
#: The calibration kernel runs between operations at least this often, in seconds.
CALIBRATE_EVERY_S = 0.5
#: Calibration passes before each set-up probe.
SETUP_KERNELS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("numerics.max_slack_lp.calls", "count"),
    ("numerics.max_slack_lp.busy_s", "s"),
    ("numerics.max_slack_lp.repeat_frac", "ratio"),
    ("geometry.adjacency_graph.calls", "count"),
    ("geometry.adjacency_graph.self_s", "s"),
    ("geometry.adjacency_test.calls", "count"),
    ("geometry.edge_yield", "ratio"),
    ("geometry.cycle_rich.busy_s", "s"),
    ("geometry.enumerate_cycles.busy_s", "s"),
    ("geometry.splitting_collection.busy_s", "s"),
    ("geometry.optimal_actions.calls", "count"),
    ("geometry.optimal_actions.busy_s", "s"),
    ("alignment.decide_incentivizable.calls", "count"),
    ("alignment.decide_incentivizable.self_s", "s"),
    ("alignment.pairwise_alignment.busy_s", "s"),
    ("alignment.piecewise_alignment.busy_s", "s"),
    ("alignment.weighted_alignment.busy_s", "s"),
    ("alignment.verdicts.incentivizable", "count"),
    ("alignment.verdicts.not_incentivizable", "count"),
    ("alignment.verdicts.inconclusive", "count"),
    ("synth.synthesize.calls", "count"),
    ("synth.synthesize.busy_s", "s"),
    ("verify.belief_grid.busy_s", "s"),
    ("verify.belief_grid.rows", "count"),
    ("verify.dirichlet_sample.busy_s", "s"),
    ("verify.boundary_beliefs.calls", "count"),
    ("verify.boundary_beliefs.busy_s", "s"),
    ("verify.verify_incentivizability.self_s", "s"),
    ("verify.find_distortion_witness.self_s", "s"),
    ("verify.witness_found_frac", "ratio"),
    ("verify.beliefs_checked", "count"),
    ("verify.beliefs_per_s", "1/s"),
    ("model.canonical_dumps.calls", "count"),
    ("model.canonical_dumps.busy_s", "s"),
    ("model.bytes_out", "bytes"),
    ("model.load_bundle.busy_s", "s"),
    ("synth.load_method.busy_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.remainder_s", "s"),
    ("trace.ops_per_s", "1/s"),
    ("failed_frac", "ratio"),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_program() -> Any:
    """Import elicitkit from this checkout's ``src/`` and the workload module."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import elicitkit
    except ImportError as exc:
        raise BenchError(f"cannot import elicitkit from {src}: {exc}") from exc
    if not Path(elicitkit.__file__).resolve().is_relative_to(src):
        raise BenchError(f"elicitkit was imported from {elicitkit.__file__}, not from {src}")
    import workloads

    return workloads


class Stream:
    """The seeded blocks of one workload."""

    def __init__(self, workloads: Any, workload: str, seed: int) -> None:
        self._make = lambda b: workloads.make_block(workload, seed, b)
        self.blocks = [self._make(b) for b in range(SETUP_BLOCKS)]

    def block(self, b: int) -> list[Any]:
        while len(self.blocks) <= b:
            self.blocks.append(self._make(len(self.blocks)))
        return self.blocks[b]


def setup_probe(workload: str, seed: int) -> None:
    start = time.perf_counter()
    Stream(load_program(), workload, seed)
    print(repr(time.perf_counter() - start))


def time_setup(workload: str, seed: int, kernel: Any) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes, and kernel times taken between them."""
    samples = []
    kernels = []
    kernel()  # the first pass pays one-time costs
    for _ in range(SETUP_PROBES):
        kernels += [kernel() for _ in range(SETUP_KERNELS)]
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples, kernels


def run_blocks(
    workloads: Any,
    runner: Any,
    stream: Stream,
    workdir: str,
    *,
    seconds: float = 0.0,
    min_ops: int = 0,
    blocks: int | None = None,
    tracer: Any = None,
    kernel: Any = None,
) -> tuple[list[tuple[int, Any]], list[tuple[int, float]]]:
    """Run whole blocks: ``blocks`` of them, or until both ``seconds`` and ``min_ops`` are reached.

    Returns the operation records and, when ``kernel`` is given, the
    calibration kernel times taken between operations, each with its block.
    """
    records: list[tuple[int, Any]] = []
    kernels: list[tuple[int, float]] = []
    start = time.perf_counter()
    b = 0
    while True:
        if blocks is not None:
            if b >= blocks:
                break
        elif b > 0 and time.perf_counter() - start >= seconds and len(records) >= min_ops:
            break
        next_kernel = time.perf_counter()
        for item in stream.block(b):
            if kernel is not None and time.perf_counter() >= next_kernel:
                kernels.append((b, kernel()))
                next_kernel = time.perf_counter() + CALIBRATE_EVERY_S
            timed = workloads.Timed(tracer.operation(b) if tracer is not None else None)
            records.append((b, runner(item, workdir, timed)))
        b += 1
    return records, kernels


def block_digests(records: list[tuple[int, Any]]) -> list[str]:
    per_block: dict[int, Any] = {}
    for b, rec in records:
        per_block.setdefault(b, hashlib.sha256()).update(rec.digest.encode())
    return [per_block[b].hexdigest() for b in sorted(per_block)]


def workload_properties(workloads: Any, records: list[tuple[int, Any]]) -> dict[str, float]:
    recs = [rec for _, rec in records]
    seen: set[str] = set()
    repeats = 0
    for rec in recs:
        if rec.problem_key is not None:
            repeats += rec.problem_key in seen
            seen.add(rec.problem_key)
    n = len(recs)
    props = {
        "workload.ops_per_block": n / len({b for b, _ in records}),
        "workload.repeat_problem_frac": repeats / n,
        "workload.product_frac": sum(rec.product for rec in recs) / n,
    }
    for theorem in workloads.THEOREMS:
        props[f"workload.theorem.{theorem}"] = sum(rec.theorem == theorem for rec in recs) / n
    sized = [rec for rec in recs if rec.n_actions]
    props["workload.actions_min"] = min(rec.n_actions for rec in sized)
    props["workload.actions_max"] = max(rec.n_actions for rec in sized)
    props["workload.states_min"] = min(rec.n_states for rec in sized)
    props["workload.states_max"] = max(rec.n_states for rec in sized)
    return props


def failure_summary(records: list[tuple[int, Any]]) -> dict[str, int]:
    kinds: dict[str, int] = {}
    for _, rec in records:
        if rec.failure is not None:
            kinds[rec.failure] = kinds.get(rec.failure, 0) + 1
    return kinds


def p50_p90_ms(latencies: list[float]) -> tuple[float, float]:
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return deciles[4] * 1e3, deciles[8] * 1e3


def per_layer(tracer_mod: Any, tracer: Any, n_blocks: int) -> tuple[dict[str, float], dict[int, dict[str, float]]]:
    layers, exact = tracer_mod.layer_totals(tracer, n_blocks)
    counters: dict[str, float] = {}
    for (_, counter), value in tracer.counters.items():
        counters[counter] = counters.get(counter, 0.0) + value / n_blocks

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for name, unit in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if layer in layers and field in ("calls", "busy_s", "self_s"):
            m[name] = layers[layer][field]
    lp = layers["numerics.max_slack_lp"]
    verify_busy = layers["verify.verify_incentivizability"]["busy_s"]
    m["numerics.max_slack_lp.repeat_frac"] = ratio(counters.get("lp_repeats", 0.0), lp["calls"])
    m["geometry.edge_yield"] = ratio(counters.get("adjacent", 0.0), layers["geometry.adjacency_test"]["calls"])
    for status in ("incentivizable", "not_incentivizable", "inconclusive"):
        m[f"alignment.verdicts.{status}"] = counters.get(f"verdict.{status}", 0.0)
    m["verify.belief_grid.rows"] = counters.get("grid_rows", 0.0)
    m["verify.witness_found_frac"] = ratio(
        counters.get("witness_found", 0.0), layers["verify.find_distortion_witness"]["calls"]
    )
    m["verify.beliefs_checked"] = counters.get("beliefs_checked", 0.0)
    m["verify.beliefs_per_s"] = ratio(m["verify.beliefs_checked"], verify_busy)
    m["model.bytes_out"] = counters.get("bytes_out", 0.0)
    m["trace.remainder_s"] = layers[tracer_mod.OP]["self_s"]
    return m, exact


def environment() -> dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("check", "oracle", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        return run(args)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1


def run(args: argparse.Namespace) -> int:
    # Not imported at the top: a set-up probe must load numpy inside its timed region.
    import calibrate

    setup, setup_kernels = time_setup(args.workload, args.seed, calibrate.kernel_seconds)
    workloads = load_program()
    stream = Stream(workloads, args.workload, args.seed)
    runner = workloads.RUNNERS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    result: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup_samples_s": setup,
    }
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        workloads.warm_up(args.workload, workdir)
        if args.trace == 0:
            records, kernels = run_blocks(
                workloads, runner, stream, workdir, seconds=args.seconds, min_ops=MIN_OPS, kernel=calibrate.kernel_seconds
            )
            all_records = records
        else:
            import tracer as tracer_mod

            records, _ = run_blocks(workloads, runner, stream, workdir, seconds=args.seconds / 2)
            n_blocks = records[-1][0] + 1
            tracer = tracer_mod.Tracer()
            tracer.install()
            try:
                traced, _ = run_blocks(workloads, runner, stream, workdir, blocks=n_blocks, tracer=tracer)
            finally:
                tracer.restore()
            all_records = records + traced

    latencies = [rec.latency_s for _, rec in records]
    attempted = len(all_records)
    failures = failure_summary(all_records)
    failed = sum(failures.values())
    wrong = sum(count for kind, count in failures.items() if kind.startswith("wrong"))
    digests = block_digests(records)
    completed = len(records) - sum(rec.failure is not None for _, rec in records)
    ops_per_s = completed / sum(latencies)
    result.update(
        {
            "operations": len(records),
            "blocks": len(digests),
            "failures": failures,
            "block_digests": digests,
            "latencies_s": [[b, rec.slot, rec.latency_s] for b, rec in records],
            "properties": workload_properties(workloads, records),
        }
    )
    correct = wrong == 0
    if args.trace == 0:
        # Scale each block's latencies to the reference host speed (see calibrate.py).
        speed = {
            b: calibrate.REFERENCE_S / statistics.median(k for kb, k in kernels if kb == b)
            for b in {b for b, _ in kernels}
        }
        scaled = [rec.latency_s * speed[b] for b, rec in records]
        setup_speed = calibrate.REFERENCE_S / statistics.median(setup_kernels)
        p50, p90 = p50_p90_ms(scaled)
        metrics = {
            "setup_s": statistics.median(setup) * setup_speed,
            "ops_per_s": completed / sum(scaled),
            "op_p50_ms": p50,
            "op_p90_ms": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        p50, p90 = p50_p90_ms(latencies)
        result["wall_clock"] = {
            "setup_s": statistics.median(setup),
            "ops_per_s": ops_per_s,
            "op_p50_ms": p50,
            "op_p90_ms": p90,
        }
        result["calibration"] = {
            "reference_s": calibrate.REFERENCE_S,
            "setup_kernels_s": setup_kernels,
            "block_speed": [speed[b] for b in sorted(speed)],
        }
        result["latency_samples"] = len(latencies)
        result["failed_frac"] = failed / attempted
    else:
        traced_digests = block_digests(traced)
        if traced_digests != digests:
            correct = False
            result["trace_mismatch"] = "traced outputs differ from untraced outputs"
        traced_completed = len(traced) - sum(rec.failure is not None for _, rec in traced)
        traced_ops_per_s = traced_completed / sum(rec.latency_s for _, rec in traced)
        metrics, exact = per_layer(tracer_mod, tracer, n_blocks)
        metrics["trace.overhead_frac"] = ops_per_s / traced_ops_per_s - 1.0
        metrics["trace.ops_per_s"] = traced_ops_per_s
        metrics["failed_frac"] = failed / attempted
        units = dict(PER_LAYER)
        result["exact_counts"] = {str(b): counts for b, counts in exact.items()}
        tracer.save(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"))
    if set(metrics) != set(units):
        raise AssertionError(f"metric names out of step: {sorted(set(metrics) ^ set(units))}")
    result["correct"] = correct
    result["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {attempted} operations, {failed} failed, digest {digests[0][:16]}")
    for kind, count in sorted(failures.items()):
        print(f"  {count} x {kind}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    if args.trace == 0:
        print(f"  failed_frac = {failed / attempted:.6g} ratio (in the result as failed / attempted)")
        for name, value in result["wall_clock"].items():
            print(f"  wall clock, unscaled: {name} = {value:.6g}")
    for name, value in result["properties"].items():
        print(f"  {name} = {value:.6g}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
