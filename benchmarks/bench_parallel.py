"""Morsel-driven parallel execution layer: serial oracle vs 4 workers (PR 6).

Five workload families, each cross-checked byte-identical against the
``workers=0`` serial oracle before any timing claim is made:

* **evidence sweep** — the tiled pair-space blocks of
  ``build_evidence_tiled`` fanned across the pool;
* **DC discovery** — ``discover_dcs(engine="tiled")`` end to end
  (sample-then-verify inherits the parallel sweep);
* **FD discovery** — TANE with level-1 partition priming and Pass B
  candidate-error refinement on the pool;
* **partition priming** — ``RelationStatistics.prime_partitions`` over
  a batch of attribute sets;
* **predicate masks** — chunked columnar ``predicate_mask`` over a wide
  disjunction.

The acceptance bar asserts a **≥ 2.5× aggregate speedup at 4 workers**
on the numpy backend — only where the hardware can express it
(``os.cpu_count() >= 4``) and not under ``REPRO_BENCH_SMOKE=1``, where
sizes shrink to CI seconds and pool dispatch dominates.  Everywhere
else the equality assertions still run and the honest timings (plus
the CPU count they were measured on) land in ``BENCH_results.json``.
"""

from __future__ import annotations

import os
import random
import time
from typing import Any

import pytest
from conftest import run_once

from repro import settings
from repro.bench.tables import render_rows
from repro.dc.engine import build_evidence_tiled, discover_dcs
from repro.dc.predicates import build_predicate_space
from repro.discovery.tane import discover_fds
from repro.relational import kernels, parallel
from repro.relational import expr as E
from repro.relational.relation import Relation

pytestmark = pytest.mark.skipif(
    not kernels.numpy_available(), reason="NumPy not installed"
)

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
_WORKERS = 4
_CPUS = os.cpu_count() or 1

#: (evidence rows, discovery rows, tane rows, prime rows, mask rows)
_SIZES = (
    (400, 400, 2_000, 4_000, 40_000)
    if _SMOKE
    else (2_500, 2_500, 30_000, 60_000, 400_000)
)
#: The ≥2.5× bar only binds where 4 workers have ≥ 4 cores to run on.
_MIN_SPEEDUP = 2.5 if _CPUS >= 4 and not _SMOKE else None
#: Smoke floor: parallel must at least *work* and not collapse (the
#: equality asserts carry correctness; this catches pathological
#: dispatch overhead at tiny sizes).
_SMOKE_FLOOR = 0.1


def _numeric_relation(name: str, rows: int, attrs: int, cards, seed: int) -> Relation:
    rng = random.Random(seed)
    columns = {
        f"A{a}": [float(rng.randrange(cards[a % len(cards)])) for _ in range(rows)]
        for a in range(attrs)
    }
    return Relation.from_columns(name, columns)


def _time(fn, repeat: int = 3) -> tuple[float, Any]:
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _run_workloads(bench_results):
    evidence_rows, discover_rows, tane_rows, prime_rows, mask_rows = _SIZES
    rows: list[dict[str, str]] = []
    totals = {"serial": 0.0, "parallel": 0.0}

    def measure(workload: str, fn, check, size: int, repeat: int = 3) -> None:
        serial_s, serial_result = _time(fn, repeat=repeat)
        with settings.use(workers=_WORKERS):
            parallel_s, parallel_result = _time(fn, repeat=repeat)
        check(serial_result, parallel_result)
        totals["serial"] += serial_s
        totals["parallel"] += parallel_s
        rows.append(
            {
                "workload": workload,
                "serial": f"{serial_s * 1e3:.1f}ms",
                f"{_WORKERS} workers": f"{parallel_s * 1e3:.1f}ms",
                "speedup": f"{serial_s / parallel_s:.2f}x",
            }
        )
        bench_results.record(
            f"parallel.{workload.replace(' ', '_')}",
            parallel_s,
            size=size,
            backend=kernels.active_backend_name(),
            workers=_WORKERS,
            cpus=_CPUS,
            serial_seconds=round(serial_s, 6),
        )

    # --- evidence sweep ----------------------------------------------
    ev_rel = _numeric_relation("ev", evidence_rows, 4, (40, 24, 12, 6), seed=3)
    ev_space = build_predicate_space(ev_rel)
    measure(
        "evidence sweep",
        lambda: build_evidence_tiled(ev_rel, ev_space, tile=256),
        lambda s, p: (
            _assert(p.counts == s.counts, "evidence counts diverge"),
            _assert(
                list(p.counts.items()) == list(s.counts.items()),
                "evidence merge order diverges",
            ),
        ),
        ev_rel.num_rows,
    )

    # --- DC discovery end to end -------------------------------------
    disco = _numeric_relation("disco", discover_rows, 4, (200, 50, 8, 4), seed=5)
    disco_space = build_predicate_space(disco, order_predicates=False)
    measure(
        "discover dcs",
        lambda: discover_dcs(disco, disco_space, engine="tiled", max_size=3),
        lambda s, p: _assert(
            p.constraints == s.constraints, "DC sets diverge"
        ),
        disco.num_rows,
        repeat=2,
    )

    # --- TANE FD discovery -------------------------------------------
    tane = _numeric_relation("tane", tane_rows, 6, (900, 300, 80, 30, 9, 4), seed=7)
    measure(
        "discover fds",
        lambda: _fresh_fds(tane),
        lambda s, p: _assert(s == p, "FD discovery diverges"),
        tane.num_rows,
        repeat=2,
    )

    # --- partition priming -------------------------------------------
    prime = _numeric_relation("prime", prime_rows, 6, (700, 250, 60, 25, 8, 3), seed=9)
    names = prime.attribute_names
    sets = [(a, b) for a in names for b in names if a < b]
    measure(
        "prime partitions",
        lambda: _fresh_prime(prime, sets),
        lambda s, p: _assert(s == p, "primed partitions diverge"),
        prime.num_rows,
        repeat=2,
    )

    # --- predicate masks ---------------------------------------------
    mask_rel = _numeric_relation("mask", mask_rows, 3, (1000, 40, 7), seed=11)
    predicate = E.or_(
        E.and_(E.gt(E.col("A0"), 250.0), E.lt(E.col("A1"), 30.0)),
        E.in_(E.col("A2"), [1.0, 3.0, 5.0]),
        E.eq(E.col("A0"), E.col("A1")),
    )
    measure(
        "predicate mask",
        lambda: [bool(v) for v in E.predicate_mask(mask_rel, predicate)],
        lambda s, p: _assert(s == p, "predicate masks diverge"),
        mask_rel.num_rows,
    )

    return rows, totals


def _assert(condition: bool, message: str) -> None:
    assert condition, message


def _fresh_fds(source: Relation):
    """FD discovery on a fresh relation (cold partition caches), with
    the counters that pin cache behaviour byte-identical."""
    relation = Relation.from_columns(
        source.name, {n: source.column(n).values() for n in source.attribute_names}
    )
    result = discover_fds(relation, max_lhs_size=3)
    return (
        [(d.fd.antecedent, d.fd.consequent, d.confidence) for d in result.fds],
        result.candidates_tested,
        relation.stats.partitions_built,
        relation.stats.cached_partitions,
    )


def _fresh_prime(source: Relation, sets):
    relation = Relation.from_columns(
        source.name, {n: source.column(n).values() for n in source.attribute_names}
    )
    built = relation.stats.prime_partitions(sets)
    snapshot = []
    for attrs in sets:
        partition = relation.stats.cached_partition(attrs)
        snapshot.append((partition.error(), partition.num_distinct))
    return built, snapshot


def test_parallel_speedup(benchmark, show, bench_results):
    """Serial vs 4 workers on the numpy backend: identical outputs;
    ≥2.5× aggregate where ≥4 cores are available."""
    rows, totals = run_once(benchmark, _run_workloads, bench_results)
    aggregate = totals["serial"] / totals["parallel"]
    show(
        render_rows(rows)
        + f"\naggregate speedup at {_WORKERS} workers "
        f"({_CPUS} cpu(s)): {aggregate:.2f}x"
    )
    bench_results.record(
        "parallel.aggregate_speedup",
        totals["parallel"],
        backend=kernels.active_backend_name(),
        workers=_WORKERS,
        cpus=_CPUS,
        speedup=round(aggregate, 3),
        serial_seconds=round(totals["serial"], 6),
    )
    if _MIN_SPEEDUP is not None:
        assert aggregate >= _MIN_SPEEDUP, (
            f"parallel layer only {aggregate:.2f}x over serial at "
            f"{_WORKERS} workers on {_CPUS} cpus (bar: {_MIN_SPEEDUP}x)"
        )
    else:
        assert aggregate >= _SMOKE_FLOOR, (
            f"parallel dispatch pathologically slow: {aggregate:.2f}x"
        )
