"""Ablation: columnar predicate/aggregate/join engine vs the row-dict
interpreter it retired (PR 4).

Three workload families, each run through both executors:

* **filter** — ``WHERE`` predicates (code-space equality, compound
  AND/OR/NOT trees) feeding a projection;
* **aggregate** — ``COUNT(DISTINCT …)`` and ``GROUP BY`` +
  ``COUNT(*)``/``COUNT(DISTINCT …)`` over filtered rows;
* **join** — the code-space ``natural_join`` against the value-level
  row-at-a-time probe loop it replaced.

Each workload is timed **cold** (a freshly encoded relation: reverse
maps, kernel code arrays and masks all built inside the measurement)
and **warm** (same relation again, caches primed).  The acceptance bar
asserts the columnar engine is **≥ 3× faster in aggregate** than the
row-dict oracle on the numpy backend at default sizes (≥ 1× under
``REPRO_BENCH_SMOKE=1``, where sizes shrink to CI seconds and ratios
are noise).  Results are identical by construction — every timed run
cross-checks columnar output against the oracle's.

Numbers land in ``docs/BENCHMARKS.md`` and, machine-readably, in
``BENCH_results.json`` via the session fixture.
"""

from __future__ import annotations

import os
import time
from typing import Any

import pytest
from conftest import run_once

from repro import settings
from repro.bench.tables import render_rows
from repro.datagen.synthetic import random_relation
from repro.relational import kernels
from repro.relational.join import natural_join
from repro.relational.relation import Relation
from repro.sql.executor import _run
from repro.sql.parser import parse

pytestmark = pytest.mark.skipif(
    not kernels.numpy_available(), reason="NumPy not installed"
)

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

_ROWS = 4_000 if _SMOKE else 60_000
_JOIN_ROWS = 1_500 if _SMOKE else 12_000
_MIN_SPEEDUP = 1.0 if _SMOKE else 3.0

_QUERIES = [
    ("filter eq", "SELECT A0, A3 FROM bulk WHERE A1 = 'v17'"),
    (
        "filter compound",
        "SELECT A0 FROM bulk WHERE A0 = 'v9' OR (A1 <> 'v3' AND A2 = 'v5')",
    ),
    ("filter not-null", "SELECT A4 FROM bulk WHERE NOT A4 = 'v1' LIMIT 1000"),
    ("agg count-distinct", "SELECT COUNT(DISTINCT A0, A1) FROM bulk WHERE A2 <> 'v0'"),
    (
        "agg group-by",
        "SELECT A5, COUNT(*) AS n, COUNT(DISTINCT A0) AS d FROM bulk GROUP BY A5",
    ),
]


def _bulk() -> Relation:
    return random_relation(
        "bulk",
        num_rows=_ROWS,
        num_attrs=6,
        cardinality=[40, 40, 12, 12, 6, 25],
        seed=11,
    )


def _join_inputs() -> tuple[Relation, Relation]:
    left = random_relation(
        "left", num_rows=_JOIN_ROWS, num_attrs=3, cardinality=[500, 30, 8], seed=5
    )
    right_src = random_relation(
        "right", num_rows=_JOIN_ROWS // 3, num_attrs=3, cardinality=[500, 40, 9], seed=6
    )
    # Rename so exactly A0 is shared: A0 ⋈, private B1/B2 on the right.
    right = Relation.from_columns(
        "right",
        {
            "A0": right_src.column_values("A0"),
            "B1": right_src.column_values("A1"),
            "B2": right_src.column_values("A2"),
        },
    )
    return left, right


def _reference_join(left: Relation, right: Relation) -> list[tuple[Any, ...]]:
    """The retired value-level probe loop (the join oracle)."""
    shared = [a for a in left.attribute_names if a in set(right.attribute_names)]
    right_only = [a for a in right.attribute_names if a not in set(shared)]
    build: dict[tuple[Any, ...], list[int]] = {}
    right_cols = {a: right.column_values(a) for a in right.attribute_names}
    for row in range(right.num_rows):
        build.setdefault(tuple(right_cols[a][row] for a in shared), []).append(row)
    left_cols = {a: left.column_values(a) for a in left.attribute_names}
    out: list[tuple[Any, ...]] = []
    for row in range(left.num_rows):
        matches = build.get(tuple(left_cols[a][row] for a in shared))
        if matches is None:
            continue
        for other in matches:
            out.append(
                tuple(left_cols[a][row] for a in left.attribute_names)
                + tuple(right_cols[a][other] for a in right_only)
            )
    return out


def _time(fn, repeat: int = 3) -> tuple[float, Any]:
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _rebuild(relation: Relation) -> Relation:
    """A cold copy: fresh encoding, no cached arrays or reverse maps."""
    return Relation.from_columns(
        relation.schema,
        {name: relation.column_values(name) for name in relation.attribute_names},
        validate=False,
    )


def test_predicate_engine_ablation(benchmark, show, bench_results):
    """Row-dict interpreter vs columnar engine: identical results, ≥3×."""
    bulk = _bulk()
    queries = [(label, parse(sql)) for label, sql in _QUERIES]
    left, right = _join_inputs()

    def run():
        rows = []
        totals = {"rowdict": 0.0, "columnar": 0.0}
        for label, query in queries:
            oracle_s, oracle_result = _time(lambda q=query: _run(bulk, q, "rowdict"))
            cold_s, cold_result = _time(
                lambda q=query: _run(_rebuild(bulk), q, "columnar")
            )
            warm_s, warm_result = _time(lambda q=query: _run(bulk, q, "columnar"))
            assert cold_result.rows == oracle_result.rows
            assert warm_result.rows == oracle_result.rows
            totals["rowdict"] += oracle_s
            totals["columnar"] += warm_s
            rows.append(
                {
                    "workload": label,
                    "rowdict": f"{oracle_s * 1e3:.1f}ms",
                    "cold": f"{cold_s * 1e3:.1f}ms",
                    "warm": f"{warm_s * 1e3:.1f}ms",
                    "speedup": f"{oracle_s / warm_s:.1f}x",
                }
            )
            bench_results.record(
                f"predicates.{label.replace(' ', '_')}",
                warm_s,
                size=bulk.num_rows,
                backend=kernels.active_backend_name(),
                rowdict_seconds=round(oracle_s, 6),
                cold_seconds=round(cold_s, 6),
            )
        oracle_s, oracle_rows = _time(lambda: _reference_join(left, right))
        cold_s, cold_join = _time(lambda: natural_join(_rebuild(left), _rebuild(right)))
        warm_s, warm_join = _time(lambda: natural_join(left, right))
        assert list(warm_join.rows()) == oracle_rows
        assert list(cold_join.rows()) == oracle_rows
        totals["rowdict"] += oracle_s
        totals["columnar"] += warm_s
        rows.append(
            {
                "workload": f"join {left.num_rows}x{right.num_rows}",
                "rowdict": f"{oracle_s * 1e3:.1f}ms",
                "cold": f"{cold_s * 1e3:.1f}ms",
                "warm": f"{warm_s * 1e3:.1f}ms",
                "speedup": f"{oracle_s / warm_s:.1f}x",
            }
        )
        bench_results.record(
            "predicates.join",
            warm_s,
            size=left.num_rows,
            backend=kernels.active_backend_name(),
            rowdict_seconds=round(oracle_s, 6),
            cold_seconds=round(cold_s, 6),
        )
        return rows, totals

    rows, totals = run_once(benchmark, run)
    aggregate = totals["rowdict"] / totals["columnar"]
    show(
        render_rows(rows)
        + f"\naggregate speedup (warm, {kernels.active_backend_name()}): "
        f"{aggregate:.2f}x"
    )
    bench_results.record(
        "predicates.aggregate_speedup",
        totals["columnar"],
        size=bulk.num_rows,
        backend=kernels.active_backend_name(),
        speedup=round(aggregate, 3),
    )
    assert aggregate >= _MIN_SPEEDUP, (
        f"columnar engine only {aggregate:.2f}x over the row-dict "
        f"interpreter (bar: {_MIN_SPEEDUP}x)"
    )


def test_python_backend_parity(benchmark, show, bench_results):
    """The pure-python backend must also beat the row-dict path (it
    skips dict materialization even without numpy) — informational
    timings plus a ≥1× floor so a regression cannot hide."""
    def run():
        with settings.use(backend="python"):
            bulk = _bulk()
            totals = {"rowdict": 0.0, "columnar": 0.0}
            rows = []
            for label, sql in _QUERIES:
                query = parse(sql)
                oracle_s, oracle_result = _time(
                    lambda q=query: _run(bulk, q, "rowdict")
                )
                warm_s, warm_result = _time(lambda q=query: _run(bulk, q, "columnar"))
                assert warm_result.rows == oracle_result.rows
                totals["rowdict"] += oracle_s
                totals["columnar"] += warm_s
                rows.append(
                    {
                        "workload": label,
                        "rowdict": f"{oracle_s * 1e3:.1f}ms",
                        "columnar": f"{warm_s * 1e3:.1f}ms",
                        "speedup": f"{oracle_s / warm_s:.1f}x",
                    }
                )
            return rows, totals, bulk.num_rows

    rows, totals, size = run_once(benchmark, run)
    aggregate = totals["rowdict"] / totals["columnar"]
    show(render_rows(rows) + f"\naggregate speedup (python): {aggregate:.2f}x")
    bench_results.record(
        "predicates.python_backend_speedup",
        totals["columnar"],
        size=size,
        backend="python",
        speedup=round(aggregate, 3),
    )
    assert aggregate >= (0.5 if _SMOKE else 1.0)
