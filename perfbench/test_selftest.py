"""Self-test of the benchmark: run it the way the suite is run, at reduced size.

Each workload runs twice with a fixed operation count; every exact
count (candidates, partitions built, chunks skipped, WAL bytes, alerts,
result digests) must match between the two runs.  Run with::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"

#: Operations per run; an ingest op is one batch (a quick round is 40).
OPS = {"repair": 5, "sql": 9, "store": 5, "ingest": 160}

EXACT_METRICS = (
    "core.candidates",
    "fd.assess_calls",
    "relational.count_queries",
    "relational.partitions_built",
    "relational.partition_evictions",
    "sql.result_rows",
    "storage.chunks_scanned",
    "storage.chunks_skipped",
    "storage.bytes_per_user_byte",
    "storage.rows_materialized_per_result_row",
    "service.checkpoints",
    "service.wal_bytes_per_user_byte",
    "service.alerts",
)


def run(workload: str, *extra: str, seed: int = 3, cwd: Path = ROOT) -> tuple[dict, dict]:
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "60", "--quick", "--ops", str(OPS[workload]), *extra],
        capture_output=True, text=True, timeout=300, cwd=cwd, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(OPS))
def test_exact_counts_repeat(workload):
    first_info, first = run(workload, "--trace", "1")
    second_info, second = run(workload, "--trace", "1")
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= OPS[workload]
    assert first_info["exact"] == second_info["exact"]
    assert first_info["exact"], "workload recorded no exact counts"
    for name in EXACT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_metric_names_match_benchmark_json():
    from run import END_TO_END_UNITS, PER_LAYER_UNITS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(OPS)


def test_untraced_run_reports_end_to_end_metrics():
    info, result = run("store", "--trace", "0")
    assert result["correct"]
    assert set(result["metrics"]) == {
        "setup_s", "throughput_per_s", "latency_p50_ms", "latency_p90_ms",
        "peak_rss_mb", "ok_share",
    }
    assert info["settings"]["backend"] == "numpy"
    assert info["settings"]["workers"] == 0
    assert info["settings"]["optimize"] == "on"


def test_heldout_seed_uses_its_own_inputs():
    info, result = run("repair", "--trace", "0", "--heldout")
    plain, _ = run("repair", "--trace", "0")
    assert result["correct"]
    assert info["input_seed"] == 10**9 + 3
    assert info["exact"]["repairs_digest"] != plain["exact"]["repairs_digest"]


@pytest.mark.parametrize("seed", [-7, 2**32 + 5, 10**12 + 3])
def test_any_integer_seed_is_accepted(seed):
    info, result = run("repair", "--trace", "0", seed=seed)
    assert result["correct"]
    assert 0 <= info["input_seed"] < 10**9


def test_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "repair",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
