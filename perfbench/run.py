"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload repair --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
loop with every other operation traced and prints the per-layer metrics.
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the pinned settings, sample counts and exact counts.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

PROCESS_START = perf_counter()
ROOT = Path(__file__).resolve().parent.parent

#: Any integer ``--seed`` is folded into ``[0, HELDOUT_BASE)``; with
#: ``--heldout`` the input seed is that value plus ``HELDOUT_BASE``, so
#: held-out inputs are ones no plain seed can produce.
HELDOUT_BASE = 10**9

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_ROUNDS = 3

#: Every run hashes strings with this seed.  With a random seed per
#: process, dict and set layouts differ from run to run; on the 2-CPU
#: container, five runs of ``ingest`` spread by 11-16% with random seeds
#: and by 4% with this one fixed.
HASH_SEED = "0"

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

PER_LAYER_UNITS = {
    "datagen.generate_s": "s",
    "storage.write_s": "s",
    "storage.bytes_per_user_byte": "ratio",
    "fd.order_fds_s": "s",
    "fd.assess_s": "s",
    "fd.assess_calls": "count",
    "core.extend_by_one_s": "s",
    "core.candidates": "count",
    "relational.count_queries": "count",
    "relational.partitions_built": "count",
    "relational.partition_hit_ratio": "ratio",
    "relational.partition_evictions": "count",
    "sql.parse_s": "s",
    "sql.plan_s": "s",
    "sql.optimize_s": "s",
    "sql.execute_s": "s",
    "sql.result_rows": "count",
    "sql.point_p50_ms": "ms",
    "sql.fd_fetch_p50_ms": "ms",
    "sql.aggregate_p50_ms": "ms",
    "sql.join_p50_ms": "ms",
    "sql.topk_p50_ms": "ms",
    "sql.range_p50_ms": "ms",
    "storage.open_s": "s",
    "storage.assess_fd_s": "s",
    "storage.scan_s": "s",
    "storage.chunks_scanned": "count",
    "storage.chunks_skipped": "count",
    "storage.rows_materialized_per_result_row": "ratio",
    "service.accept_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.apply_ms": "ms",
    "service.wal_commit_ms": "ms",
    "service.checkpoint_ms": "ms",
    "service.checkpoints": "count",
    "service.lag_p99_ms": "ms",
    "service.wal_bytes_per_user_byte": "ratio",
    "service.alerts": "count",
    "trace.overhead": "ratio",
    "bench.reference_ms": "ms",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--heldout",
        action="store_true",
        help="derive inputs from the held-out seed stream (see HELDOUT_BASE)",
    )
    parser.add_argument(
        "--ops", type=int, default=None, help="run exactly this many operations"
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced input sizes (self-test)"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def input_seed(seed: int, heldout: bool) -> int:
    """Map a command-line seed (any integer) to the seed the inputs use."""
    return seed % HELDOUT_BASE + (HELDOUT_BASE if heldout else 0)


def pin_settings() -> dict[str, object]:
    """Pin every engine knob the program would read from ``REPRO_*``."""
    import numpy

    from repro.core.config import EngineConfig

    engine = EngineConfig(backend="numpy", workers=0, optimize="on")
    engine.activate()
    return {
        "backend": engine.resolve(),
        "workers": engine.workers,
        "optimize": engine.optimize,
        "approx": engine.approx,
        "partition_cache_size": engine.partition_cache_size,
        "python": platform.python_version(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Replace this process (same pid, nothing left to wait for).
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(work)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args: argparse.Namespace, work: Path) -> int:
    from speed import SpeedProbe
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    settings = pin_settings()
    import_s = perf_counter() - PROCESS_START
    seed = input_seed(args.seed, args.heldout)
    factory = WORKLOADS[args.workload]

    probe = SpeedProbe()
    setups, spans, generate, write = [], [], [], []
    for _ in range(SETUP_ROUNDS):
        workload = None
        gc.collect()
        probe.sample()
        start = perf_counter()
        workload = factory(seed, work, args.quick, args.heldout, probe)
        workload.setup()
        end = perf_counter()
        probe.sample()
        setups.append(end - start)
        spans.append((start, end))
        generate.extend(workload.generate_seconds)
        write.extend(workload.write_seconds)

    gc.collect()
    tracer = Tracer() if args.trace else None
    samples = workload.measure(args.seconds, args.ops, tracer)
    # Read before the output checks, whose oracles hold inputs of their own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    try:
        workload.verify(samples)
    except Exception:  # noqa: BLE001 — an oracle that cannot run fails every op
        traceback.print_exc(file=sys.stderr)
        for sample in samples:
            sample.ok = False
    failed = sum(1 for sample in samples if not sample.ok)

    def median_rate(traced: bool, scaled: bool = True) -> float:
        windows = workload.windows(traced, scaled)
        rates = [units / seconds for units, seconds in windows if seconds]
        return statistics.median(rates) if rates else 0.0

    # Times are scaled to the reference host speed (see speed.py): each
    # operation and set-up round by the reference steps near it, the
    # per-layer times and the imports by the whole run's factor.
    factor = probe.factor

    if args.trace:
        traced_ops = sum(1 for sample in samples if sample.traced)
        beyond_p90 = None
        # A layer the workload never calls reports 0.
        metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        metrics.update(workload.layer_metrics(tracer, traced_ops))
        metrics["datagen.generate_s"] = statistics.median(generate)
        metrics["storage.write_s"] = statistics.median(write) if write else 0.0
        untraced = median_rate(False)
        metrics["trace.overhead"] = median_rate(True) / untraced if untraced else 0.0
        for name, unit in PER_LAYER_UNITS.items():
            if unit in ("s", "ms"):
                metrics[name] *= factor
        metrics["bench.reference_ms"] = probe.reference_ms
        raw = None
        result_metrics = {
            name: {"value": value, "unit": PER_LAYER_UNITS[name]}
            for name, value in metrics.items()
        }
        tracer.write(work.parent / f"spans-{args.workload}-{seed}.jsonl")
    else:
        p50, p90 = workload.latency_percentiles()
        beyond_p90 = sum(1 for latency in workload.latencies(False) if latency > p90)
        scaled_setups = [
            seconds * probe.factor_near(start, end)
            for seconds, (start, end) in zip(setups, spans)
        ]
        raw_p50, raw_p90 = workload.latency_percentiles(scaled=False)
        raw = {
            "setup_s": import_s + statistics.median(setups),
            "throughput_per_s": median_rate(False, scaled=False),
            "latency_p50_ms": raw_p50 * 1e3,
            "latency_p90_ms": raw_p90 * 1e3,
        }
        values = {
            "setup_s": import_s * factor + statistics.median(scaled_setups),
            "throughput_per_s": median_rate(False),
            "latency_p50_ms": p50 * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "ok_share": (len(samples) - failed) / len(samples),
        }
        result_metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "heldout": args.heldout,
        "input_seed": seed,
        "quick": args.quick,
        "settings": settings,
        "sync": getattr(workload, "SYNC", None),
        "throughput_unit": workload.unit,
        "samples": len(samples),
        "samples_beyond_p90": beyond_p90,
        "setup_rounds_s": setups,
        "import_s": import_s,
        "exact": workload.exact,
        "reference_ms": probe.reference_ms,
        "reference_samples": len(probe.seconds),
        "speed_factor": factor,
        "unscaled": raw,
    }
    print(json.dumps({"perfbench": info}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(samples),
                "failed": failed,
                "metrics": result_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
