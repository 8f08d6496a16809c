"""The four benchmark workloads: repair, sql, store and ingest.

Each workload is a closed loop driven by one client.  ``setup`` builds
the inputs from the workload seed (data generation, store writing,
batch generation, warm-up); ``measure`` then runs operations of one
fixed shape until the time is up, timing each from outside the
program.  Every operation's output is checked, and a wrong output
counts as a failed operation.

In a traced run the even operations run untraced and the odd ones run
under a :class:`~tracing.Tracer` whose wrappers time the public calls
each layer makes, so both halves see the same inputs and machine load;
``trace.overhead`` compares their throughput.
"""

from __future__ import annotations

import asyncio
import csv
import gc
import hashlib
import io
import random
import shutil
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import Any

import repro.core.repair as core_repair
import repro.sql.executor as sql_executor
import repro.storage.sqlbridge as sqlbridge
from repro.core.repair import find_fd_repairs
from repro.datagen.queries import QUERY_KINDS, generate_workload
from repro.datagen.tpch import (
    TPCH_TABLE_NAMES,
    TpchScale,
    generate_tpch,
    stream_table,
    table_schema,
    tpch_fd,
)
from repro.fd.measures import assess
from repro.service import MonitorService, ServiceConfig, canonical_json
from repro.service.harness import LoadSpec, make_batch, tenant_spec
from repro.sql.database import Database
from repro.sql.executor import execute_on_relation
from repro.storage import StoreWriter, open_store
from repro.storage.profile import assess_fd
from repro.storage.sqlbridge import ScanStats, query_store

from speed import INTERVAL_S, SpeedProbe
from tracing import Tracer

__all__ = ["WORKLOADS", "Sample", "Workload"]

#: Windows the timed phase is cut into for the throughput median.
THROUGHPUT_WINDOWS = 10
#: A run goes on past its time until it has this many operations, so
#: that at least ten samples lie beyond p90.
MIN_OPS = 100


@dataclass
class Sample:
    """One timed operation."""

    seconds: float
    units: int
    ok: bool
    traced: bool
    start: float = 0.0
    #: ``seconds`` scaled by the speed factor near it (see ``speed.py``).
    scaled: float = 0.0


def digest_rows(digest: "hashlib._Hash", columns, rows) -> None:
    """Read every row of a result and fold it into ``digest``."""
    digest.update(repr(tuple(columns)).encode())
    for row in rows:
        digest.update(repr(tuple(row)).encode())


def relation_counters(relations) -> Counter:
    """The public :class:`RelationStatistics` counters, summed."""
    counters: Counter = Counter()
    for relation in relations:
        stats = relation.stats
        counters["count_queries"] += stats.executed_count_queries
        counters["partitions_built"] += stats.partitions_built
        counters["partition_hits"] += stats.partition_cache_hits
        counters["partition_evictions"] += stats.partition_cache_evictions
    return counters


def directory_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


def csv_bytes(rows) -> int:
    """Bytes of ``rows`` written as CSV: the user-data yardstick."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return len(buffer.getvalue().encode())


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, n: int, k: int) -> float:
    """The ``k``-th of the ``n``-quantiles of ``values`` (0 if empty)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=n, method="inclusive")[k - 1]


def quantiles(values) -> tuple[float, float]:
    """p50 and p90 of ``values``."""
    return statistics.median(values), percentile(values, 10, 9)


class Workload:
    """Base class: a closed loop of same-shaped operations."""

    name = ""
    #: What ``throughput_per_s`` counts.
    unit = "operations"

    def __init__(
        self, seed: int, work: Path, quick: bool, heldout: bool, probe: SpeedProbe
    ) -> None:
        self.seed = seed
        self.work = work
        self.quick = quick
        #: Whether ``seed`` comes from the held-out stream.
        self.heldout = heldout
        self.probe = probe
        #: Per set-up round: seconds spent generating data / writing.
        self.generate_seconds: list[float] = []
        self.write_seconds: list[float] = []
        #: Exact counts and digests, compared by the self-test.
        self.exact: dict[str, Any] = {}

    # -- hooks ----------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def operation(self, index: int, tracer: Tracer | None) -> bool:
        """Run operation ``index``; return whether its output checked out."""
        raise NotImplementedError

    def op_units(self) -> int:
        return 1

    def verify(self, samples: list[Sample]) -> None:
        """Checks that need an oracle, run after the timed phase."""

    def layer_metrics(self, tracer: Tracer, traced_ops: int) -> dict[str, float]:
        return {}

    # -- timed phase ----------------------------------------------------
    def measure(
        self, seconds: float, max_ops: int | None, tracer: Tracer | None
    ) -> list[Sample]:
        samples: list[Sample] = []
        begin = perf_counter()
        index = 0
        while index < max_ops if max_ops else (
            index < MIN_OPS or perf_counter() - begin < seconds
        ):
            traced = tracer is not None and index % 2 == 1
            if traced:
                tracer.op = index
            start = perf_counter()
            try:
                ok = self.operation(index, tracer if traced else None)
            except Exception:  # noqa: BLE001 — a failed op is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                ok = False
            samples.append(
                Sample(perf_counter() - start, self.op_units(), ok, traced, start)
            )
            index += 1
            self.probe.tick()
        self.samples = samples
        self.scale(samples)
        return samples

    def scale(self, samples: list[Sample]) -> None:
        """Fill in each sample's time scaled to the reference speed."""
        self.probe.sample()
        for sample in samples:
            factor = self.probe.factor_near(sample.start, sample.start + sample.seconds)
            sample.scaled = sample.seconds * factor

    def windows(self, traced: bool, scaled: bool = True) -> list[tuple[int, float]]:
        """``(units, seconds)`` per throughput window of one half."""
        half = [s for s in self.samples if s.traced == traced]
        size = max(1, len(half) // THROUGHPUT_WINDOWS)
        return [
            (sum(s.units for s in part), sum(s.scaled if scaled else s.seconds for s in part))
            for part in (half[i : i + size] for i in range(0, len(half), size))
            if len(part) == size
        ]

    def latencies(self, traced: bool, scaled: bool = True) -> list[float]:
        return [s.scaled if scaled else s.seconds for s in self.samples if s.traced == traced]

    def latency_percentiles(self, scaled: bool = True) -> tuple[float, float]:
        """p50 and p90 of the untraced operations' latency, in seconds."""
        return quantiles(self.latencies(False, scaled))


# ======================================================================
# repair: Table 5's FindFDRepairs on the TPC-H relations
# ======================================================================
class RepairWorkload(Workload):
    """One op: clear each relation's statistics, run one-step
    FindFDRepairs with its Table 5 FD on every TPC-H relation."""

    name = "repair"
    #: Relations whose Table 5 FD the generator violates.
    VIOLATED = frozenset({"lineitem", "orders", "partsupp"})

    def setup(self) -> None:
        start = perf_counter()
        catalog = generate_tpch("tiny" if self.quick else "small", seed=self.seed)
        self.generate_seconds.append(perf_counter() - start)
        self.relations = [catalog.relation(name) for name in TPCH_TABLE_NAMES]
        self.expected: str | None = None
        if not self.operation(-1, None):
            raise RuntimeError("repair warm-up failed its output check")

    def operation(self, index: int, tracer: Tracer | None) -> bool:
        if tracer is None:
            return self._search_all(None)
        with tracer.span("repair.op") as span:
            ok = self._search_all(tracer)
        span.counts.update(relation_counters(self.relations))
        return ok

    def _search_all(self, tracer: Tracer | None) -> bool:
        violated = set()
        repairs = hashlib.blake2b()
        for relation in self.relations:
            relation.stats.clear()
            fds = [tpch_fd(relation.name)]
            if tracer is None:
                report = find_fd_repairs(relation, fds, one_step_only=True)
            else:
                report = self._traced_search(relation, fds, tracer)
            if report.violated:
                violated.add(relation.name)
            for candidate in report.exact_new_fds:
                repairs.update(f"{candidate}\n".encode())
        found = repairs.hexdigest()
        if self.expected is None:
            self.expected = found
            self.exact["repairs_digest"] = found
        return violated == self.VIOLATED and found == self.expected

    def _traced_search(self, relation, fds, tracer: Tracer):
        def candidates(span, args, result):
            span.counts["candidates"] = len(result)

        targets = [
            (core_repair, "order_fds", "fd.order_fds", None),
            (core_repair, "assess", "fd.assess", None),
            (core_repair, "extend_by_one", "core.extend_by_one", candidates),
        ]
        with tracer.patched(targets), tracer.span("core.find_fd_repairs"):
            return find_fd_repairs(relation, fds, one_step_only=True)

    def layer_metrics(self, tracer: Tracer, traced_ops: int) -> dict[str, float]:
        own = tracer.self_seconds()
        ops = max(traced_ops, 1)
        metrics = {
            "fd.order_fds_s": own.get("fd.order_fds", 0.0) / ops,
            "fd.assess_s": own.get("fd.assess", 0.0) / ops,
            "fd.assess_calls": len(tracer.named("fd.assess")) / ops,
            "core.extend_by_one_s": own.get("core.extend_by_one", 0.0) / ops,
            "core.candidates": tracer.count("core.extend_by_one", "candidates") / ops,
        }
        metrics.update(relational_metrics(tracer, "repair.op", ops))
        self.exact["candidates"] = metrics["core.candidates"]
        self.exact["partitions_built"] = metrics["relational.partitions_built"]
        return metrics


def relational_metrics(tracer: Tracer, span_name: str, ops: int) -> dict[str, float]:
    """Relational counters recorded on ``span_name`` spans, per op."""
    built = tracer.count(span_name, "partitions_built")
    hits = tracer.count(span_name, "partition_hits")
    return {
        "relational.count_queries": tracer.count(span_name, "count_queries") / ops,
        "relational.partitions_built": built / ops,
        "relational.partition_hit_ratio": hits / (hits + built) if hits + built else 0.0,
        "relational.partition_evictions": tracer.count(span_name, "partition_evictions")
        / ops,
    }


def sql_stage_targets(extra=()) -> list:
    """Wrappers for the SQL stages where the executor looks them up."""
    return [
        (sql_executor, "parse", "sql.parse", None),
        (sql_executor, "plan_query", "sql.plan", None),
        (sql_executor, "optimize_plan", "sql.optimize", None),
        *extra,
    ]


def sql_stage_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    own = tracer.self_seconds()
    return {
        "sql.parse_s": own.get("sql.parse", 0.0) / ops,
        "sql.plan_s": own.get("sql.plan", 0.0) / ops,
        "sql.optimize_s": own.get("sql.optimize", 0.0) / ops,
        "sql.execute_s": own.get("sql.execute", 0.0) / ops,
    }


# ======================================================================
# sql: dashboard refreshes through Database.query
# ======================================================================
class SqlWorkload(Workload):
    """One op: a dashboard refresh — six queries, one of each
    ``generate_workload`` kind, in the generator's order."""

    name = "sql"
    unit = "queries"
    SCALE = TpchScale("perfbench-sql", 0.003, "benchmark catalog")
    #: Distinct refreshes in the stream (cycled if a run outlasts it).
    REFRESHES = 250
    WARM_REFRESHES = 10
    #: Refreshes checked against the rowdict / optimizer-off oracle.
    ORACLE_SAMPLE = (0, 1, 2, 40, 80, 120)
    #: The stream's shape (which template, which row each literal comes
    #: from) is drawn from this fixed seed; the catalog, and so every
    #: literal and every result, comes from the run's seed.  Refresh
    #: latency is bimodal (lineitem joins against the rest) and p50 falls
    #: between the modes, so a mix drawn per seed moved p50 by 12% from
    #: one seed to the next at the same machine speed.  Held-out seeds
    #: draw their own stream.
    STREAM_SEED = 0

    def setup(self) -> None:
        start = perf_counter()
        catalog = generate_tpch("tiny" if self.quick else self.SCALE, seed=self.seed)
        self.generate_seconds.append(perf_counter() - start)
        refreshes = 20 if self.quick else self.REFRESHES
        stream_seed = self.seed if self.heldout else self.STREAM_SEED
        self.queries = generate_workload(
            catalog, count=len(QUERY_KINDS) * refreshes, seed=stream_seed
        )
        kinds = tuple(query.kind for query in self.queries)
        if kinds != QUERY_KINDS * refreshes:
            raise RuntimeError("query stream is not whole refreshes of every kind")
        self.refreshes = refreshes
        self.db = Database(catalog)
        self.relations = list(catalog)
        self.digests: dict[int, str] = {}
        self.by_refresh: dict[int, list[int]] = {}
        warm = generate_workload(
            catalog, count=len(QUERY_KINDS) * self.WARM_REFRESHES, seed=stream_seed + 7919
        )
        for query in warm:
            self.db.query(query.sql)

    def op_units(self) -> int:
        return len(QUERY_KINDS)

    def operation(self, index: int, tracer: Tracer | None) -> bool:
        refresh = index % self.refreshes
        batch = self.queries[refresh * len(QUERY_KINDS) : (refresh + 1) * len(QUERY_KINDS)]
        digest = hashlib.blake2b()
        if tracer is None:
            for query in batch:
                result = self.db.query(query.sql)
                digest_rows(digest, result.columns, result.rows)
        else:
            before = relation_counters(self.relations)
            rows = 0
            with tracer.patched(sql_stage_targets([
                (sql_executor, "execute_plan", "sql.execute", None)
            ])), tracer.span("sql.refresh") as span:
                for query in batch:
                    with tracer.span(f"sql.query.{query.kind}"):
                        result = self.db.query(query.sql)
                        digest_rows(digest, result.columns, result.rows)
                    rows += len(result.rows)
            span.counts.update(relation_counters(self.relations) - before)
            span.counts["result_rows"] = rows
        self.by_refresh.setdefault(refresh, []).append(index)
        found = digest.hexdigest()
        return self.digests.setdefault(refresh, found) == found

    def verify(self, samples: list[Sample]) -> None:
        """Compare sampled refreshes with the rowdict, optimizer-off oracle."""
        for refresh in self.ORACLE_SAMPLE:
            if refresh not in self.digests:
                continue
            digest = hashlib.blake2b()
            start = refresh * len(QUERY_KINDS)
            for query in self.queries[start : start + len(QUERY_KINDS)]:
                result = self.db.query(query.sql, engine="rowdict", optimize="off")
                digest_rows(digest, result.columns, result.rows)
            if digest.hexdigest() != self.digests[refresh]:
                for index in self.by_refresh[refresh]:
                    samples[index].ok = False
        self.exact["result_digest"] = hashlib.blake2b(
            repr(sorted(self.digests.items())).encode()
        ).hexdigest()

    def layer_metrics(self, tracer: Tracer, traced_ops: int) -> dict[str, float]:
        ops = max(traced_ops, 1)
        metrics = sql_stage_metrics(tracer, ops)
        metrics["sql.result_rows"] = tracer.count("sql.refresh", "result_rows") / ops
        for kind in QUERY_KINDS:
            times = [span.seconds * 1e3 for span in tracer.named(f"sql.query.{kind}")]
            metrics[f"sql.{kind}_p50_ms"] = p50(times)
        metrics.update(relational_metrics(tracer, "sql.refresh", ops))
        self.exact["partitions_built"] = metrics["relational.partitions_built"]
        self.exact["result_rows"] = metrics["sql.result_rows"]
        return metrics


# ======================================================================
# store: out-of-core audits of an on-disk lineitem store
# ======================================================================
class StoreWorkload(Workload):
    """One op: open the store, assess the Table 5 lineitem FD exactly,
    run a point probe, a narrow range and a full-scan GROUP BY through
    ``query_store``, close the store."""

    name = "store"
    #: ~12K lineitem rows; with 768-row chunks the table spans 16 chunks.
    SCALE = TpchScale("perfbench-store", 0.002, "benchmark store")
    CHUNK_ROWS = 768
    PROBES = 32
    RANGE_WIDTH = 40
    GROUP_BY = (
        "SELECT returnflag, linestatus, COUNT(*) AS n, SUM(quantity) AS qty "
        "FROM lineitem GROUP BY returnflag, linestatus"
    )

    def setup(self) -> None:
        scale = "tiny" if self.quick else self.SCALE
        chunk_rows = 512 if self.quick else self.CHUNK_ROWS
        self.directory = self.work / "lineitem"
        shutil.rmtree(self.directory, ignore_errors=True)
        rows = stream_table("lineitem", scale, seed=self.seed)
        writer = StoreWriter(self.directory, table_schema("lineitem"), chunk_rows=chunk_rows)
        generate = write = 0.0
        orderkeys: set[int] = set()
        while True:
            start = perf_counter()
            chunk = list(islice(rows, chunk_rows))
            generate += perf_counter() - start
            if not chunk:
                break
            orderkeys.update(row[0] for row in chunk)
            start = perf_counter()
            writer.append_rows(chunk)
            write += perf_counter() - start
        start = perf_counter()
        writer.finalize()
        write += perf_counter() - start
        self.generate_seconds.append(generate)
        self.write_seconds.append(write)
        keys = random.Random(self.seed).sample(sorted(orderkeys), self.PROBES)
        self.statements = [
            (
                f"SELECT * FROM lineitem WHERE orderkey = {key}",
                f"SELECT orderkey, linenumber, quantity, extendedprice FROM lineitem "
                f"WHERE orderkey >= {key} AND orderkey < {key + self.RANGE_WIDTH}",
                self.GROUP_BY,
            )
            for key in keys
        ]
        self.fd = tpch_fd("lineitem")
        self.spill = self.work / "spill"
        self.spill.mkdir(exist_ok=True)
        self.digests: dict[int, str] = {}
        self.by_probe: dict[int, list[int]] = {}
        self.skipped = 0
        self.operation(-1, None)

    def operation(self, index: int, tracer: Tracer | None) -> bool:
        probe = index % self.PROBES
        digest = hashlib.blake2b()
        stats = [ScanStats() for _ in self.statements[probe]]
        if tracer is None:
            store = open_store(self.directory)
            try:
                fd = assess_fd(store, self.fd.antecedent, self.fd.consequent, spill_dir=self.spill)
                results = [
                    query_store(store, sql, scan_stats=scan)
                    for sql, scan in zip(self.statements[probe], stats)
                ]
            finally:
                store.close()
        else:
            fd, results = self._traced_audit(probe, stats, tracer)
        counts = (fd.distinct_x.value, fd.distinct_xy.value, fd.distinct_y.value)
        digest.update(repr(tuple(map(float, counts))).encode())
        for result in results:
            digest_rows(digest, result.columns, result.rows)
        if index >= 0:
            self.skipped += sum(scan.chunks_skipped for scan in stats)
            self.by_probe.setdefault(probe, []).append(index)
        found = digest.hexdigest()
        return self.digests.setdefault(probe, found) == found

    def _traced_audit(self, probe: int, stats, tracer: Tracer):
        def scanned(span, args, result):
            span.counts["rows"] = result.num_rows

        def executed(span, args, result):
            span.counts["result_rows"] = len(result.rows)

        targets = sql_stage_targets([
            (sqlbridge, "parse", "sql.parse", None),
            (sqlbridge, "scan_store", "storage.scan", scanned),
            (sqlbridge, "execute_on_relation", "sql.execute", executed),
        ])
        with tracer.patched(targets), tracer.span("storage.audit") as audit:
            with tracer.span("storage.open"):
                store = open_store(self.directory)
            try:
                with tracer.span("storage.assess_fd"):
                    fd = assess_fd(
                        store, self.fd.antecedent, self.fd.consequent, spill_dir=self.spill
                    )
                results = []
                for sql, scan in zip(self.statements[probe], stats):
                    with tracer.span("storage.query_store"):
                        results.append(query_store(store, sql, scan_stats=scan))
            finally:
                store.close()
        audit.counts["chunks_scanned"] = sum(scan.chunks_scanned for scan in stats)
        audit.counts["chunks_skipped"] = sum(scan.chunks_skipped for scan in stats)
        return fd, results

    def verify(self, samples: list[Sample]) -> None:
        """Compare every probe's answers with in-memory execution over
        the whole store and the in-memory FD assessment."""
        with open_store(self.directory) as store:
            relation = store.to_relation()
        exact = assess(relation, self.fd)
        for probe, found in self.digests.items():
            digest = hashlib.blake2b()
            counts = (exact.distinct_x, exact.distinct_xy, exact.distinct_y)
            digest.update(repr(tuple(map(float, counts))).encode())
            for sql in self.statements[probe]:
                result = execute_on_relation(relation, sql)
                digest_rows(digest, result.columns, result.rows)
            if digest.hexdigest() != found:
                for index in self.by_probe.get(probe, []):
                    samples[index].ok = False
        self.exact["chunks_skipped"] = self.skipped
        self.exact["result_digest"] = hashlib.blake2b(
            repr(sorted(self.digests.items())).encode()
        ).hexdigest()

    def layer_metrics(self, tracer: Tracer, traced_ops: int) -> dict[str, float]:
        ops = max(traced_ops, 1)
        own = tracer.self_seconds()
        metrics = sql_stage_metrics(tracer, ops)
        result_rows = tracer.count("sql.execute", "result_rows")
        metrics.update(
            {
                "sql.result_rows": result_rows / ops,
                "storage.open_s": own.get("storage.open", 0.0) / ops,
                "storage.assess_fd_s": own.get("storage.assess_fd", 0.0) / ops,
                "storage.scan_s": own.get("storage.scan", 0.0) / ops,
                "storage.chunks_scanned": tracer.count("storage.audit", "chunks_scanned") / ops,
                "storage.chunks_skipped": tracer.count("storage.audit", "chunks_skipped") / ops,
                "storage.rows_materialized_per_result_row": (
                    tracer.count("storage.scan", "rows") / result_rows if result_rows else 0.0
                ),
            }
        )
        with open_store(self.directory) as store:
            user = csv_bytes(store.to_relation().rows())
        metrics["storage.bytes_per_user_byte"] = (
            directory_bytes(self.directory) / user
        )
        self.exact["store_bytes"] = directory_bytes(self.directory)
        return metrics


# ======================================================================
# ingest: replay into MonitorService
# ======================================================================
class _Observer:
    """A no-op ``faults=`` hook that timestamps the service's points."""

    def __init__(self, record_all: bool) -> None:
        self.record_all = record_all
        self.committed: dict[tuple[str, int], float] = {}
        self.points: list[tuple[str, str, int, float]] = []

    async def gate(self, tenant: str, first: int, last: int) -> None:
        return None

    def point(self, name: str, tenant: str, seq: int) -> None:
        now = perf_counter()
        if name == "apply.committed":
            self.committed[(tenant, seq)] = now
        if self.record_all:
            self.points.append((name, tenant, seq, now))


@dataclass
class _Round:
    units: int
    start: float
    seconds: float
    traced: bool
    alerts: int
    checkpoints: int
    wal_bytes: int
    samples: list[Sample]
    scaled: float = 0.0


class IngestWorkload(Workload):
    """Rounds of replay into a fresh :class:`MonitorService`: every
    tenant receives the same batches, round-robin, awaited one submit
    at a time.  One op is one batch; its latency runs from ``submit``
    to that batch's ``apply.committed`` point."""

    name = "ingest"
    unit = "tuples"
    TENANTS = 16
    BATCHES = 50
    ROWS = 200
    QUEUE_CAPACITY = 8
    CHECKPOINT_EVERY = 25
    SYNC = "none"

    def setup(self) -> None:
        tenants, batches, rows = (4, 10, 50) if self.quick else (
            self.TENANTS, self.BATCHES, self.ROWS
        )
        spec = LoadSpec(
            tenants=tenants, batches_per_tenant=batches, rows_per_batch=rows, seed=self.seed
        )
        start = perf_counter()
        self.batches = [
            [make_batch(spec, tenant, batch) for batch in range(1, batches + 1)]
            for tenant in range(tenants)
        ]
        self.generate_seconds.append(perf_counter() - start)
        self.specs = [tenant_spec(index) for index in range(tenants)]
        self.rows = rows
        self.user_bytes = csv_bytes(row for tenant in self.batches for batch in tenant for row in batch)
        self.expected: tuple[int, str] | None = None
        self.rounds: list[_Round] = []
        self.round_count = 0
        asyncio.run(self._round(None, []))
        self.rounds.clear()

    def op_units(self) -> int:
        return self.rows

    def measure(self, seconds, max_ops, tracer):
        samples: list[Sample] = []

        async def loop() -> None:
            begin = perf_counter()
            number = 0
            while len(samples) < max_ops if max_ops else (
                len(samples) < MIN_OPS or perf_counter() - begin < seconds
            ):
                traced = tracer is not None and number % 2 == 1
                try:
                    await self._round(tracer if traced else None, samples)
                except Exception:  # noqa: BLE001 — a failed round is counted, not fatal
                    traceback.print_exc(file=sys.stderr)
                    batches = len(self.specs) * len(self.batches[0])
                    samples.extend(Sample(0.0, self.rows, False, traced) for _ in range(batches))
                    self.rounds.append(_Round(0, 0.0, 0.0, traced, 0, 0, 0, []))
                number += 1
                # Between rounds, as many reference steps as the round
                # would have had between operations.
                for _ in range(max(1, int(self.rounds[-1].seconds / INTERVAL_S))):
                    self.probe.sample()

        asyncio.run(loop())
        self.samples = samples
        self.scale(samples)
        for r in self.rounds:
            r.scaled = r.seconds * self.probe.factor_near(r.start, r.start + r.seconds)
        return samples

    async def _round(self, tracer: Tracer | None, samples: list[Sample]) -> None:
        state = self.work / f"service-{self.round_count}"
        self.round_count += 1
        observer = _Observer(record_all=tracer is not None)
        config = ServiceConfig(
            state_dir=state,
            queue_capacity=self.QUEUE_CAPACITY,
            checkpoint_every=self.CHECKPOINT_EVERY,
            drift_check_every=10_000_000,
            sync=self.SYNC,
        )
        service = MonitorService(config, faults=observer)
        await service.start()
        submitted: dict[tuple[str, int], float] = {}
        statuses: Counter = Counter()
        try:
            for spec in self.specs:
                service.add_tenant(spec)
            start = perf_counter()
            for batch in range(1, len(self.batches[0]) + 1):
                for spec, batches in zip(self.specs, self.batches):
                    submitted[(spec.tenant_id, batch)] = perf_counter()
                    statuses[await service.submit(spec.tenant_id, batch, batches[batch - 1])] += 1
            await service.drain()
            seconds = perf_counter() - start
            events = sorted(service.events, key=lambda event: event.tenant)
            wal_bytes = directory_bytes(state)
        finally:
            await service.stop()
            shutil.rmtree(state, ignore_errors=True)
        # Free the stopped service now, outside the timed phase, rather
        # than whenever the collector next reaches its cycles.
        del service
        gc.collect()
        alerts = sum(1 for event in events if type(event).__name__ == "AlertEvent")
        outcome = (alerts, hashlib.blake2b(canonical_json(events).encode()).hexdigest())
        if self.expected is None:
            self.expected = outcome
            self.exact.update(alerts=alerts, events_digest=outcome[1], wal_bytes=wal_bytes)
        last = len(self.batches[0])
        ended = {spec.tenant_id: 0 for spec in self.specs}
        for tenant, seq in observer.committed:
            ended[tenant] = max(ended[tenant], seq)
        round_ok = (
            outcome == self.expected
            and statuses == Counter(accepted=len(submitted))
            and set(ended.values()) == {last}
            and len(observer.committed) == len(submitted)
        )
        mine = []
        for key, sent in submitted.items():
            done = observer.committed.get(key)
            latency = (done - sent) if done is not None else 0.0
            mine.append(
                Sample(latency, self.rows, round_ok and done is not None, tracer is not None, sent)
            )
        samples.extend(mine)
        checkpoints = 0
        if tracer is not None:
            checkpoints = self._record_spans(observer, tracer, self.round_count)
        self.rounds.append(
            _Round(
                len(submitted) * self.rows, start, seconds, tracer is not None, alerts,
                checkpoints, wal_bytes, mine,
            )
        )

    @staticmethod
    def _record_spans(observer: _Observer, tracer: Tracer, number: int) -> int:
        at: dict[tuple[str, str, int], float] = {}
        for name, tenant, seq, when in observer.points:
            at[(name, tenant, seq)] = when
        intervals = (
            ("service.accept", "accept.start", "accept.committed"),
            ("service.queue_wait", "accept.committed", "apply.start"),
            ("service.apply", "apply.start", "apply.journaled"),
            ("service.wal_commit", "accept.journaled", "accept.committed"),
            ("service.wal_commit", "apply.journaled", "apply.committed"),
            ("service.checkpoint", "checkpoint.pre", "checkpoint.post"),
        )
        for tenant, seq in observer.committed:
            for name, first, second in intervals:
                begin = at.get((first, tenant, seq))
                end = at.get((second, tenant, seq))
                if begin is not None and end is not None:
                    tracer.add(name, begin, end, f"{number}/{tenant}/{seq}")
        return sum(1 for name, *_ in observer.points if name == "checkpoint.post")

    def windows(self, traced: bool, scaled: bool = True) -> list[tuple[int, float]]:
        return [
            (r.units, r.scaled if scaled else r.seconds)
            for r in self.rounds
            if r.traced == traced
        ]

    def latency_percentiles(self, scaled: bool = True) -> tuple[float, float]:
        """The median over rounds of each round's p50 and p90.

        A round is the workload's repeating unit, and the host's speed
        changes from one round to the next (see ``speed.py``), so the
        percentiles are taken per round like the throughput windows.
        """
        per_round = [
            quantiles([s.scaled if scaled else s.seconds for s in r.samples])
            for r in self.rounds
            if not r.traced and r.samples
        ]
        return (
            statistics.median(p50 for p50, _ in per_round),
            statistics.median(p90 for _, p90 in per_round),
        )

    def layer_metrics(self, tracer: Tracer, traced_ops: int) -> dict[str, float]:
        def per_batch_p50(name: str) -> float:
            totals: dict[Any, float] = {}
            for span in tracer.named(name):
                totals[span.op] = totals.get(span.op, 0.0) + span.seconds
            return p50(list(totals.values())) * 1e3

        traced_rounds = [r for r in self.rounds if r.traced]
        lags = [latency * 1e3 for latency in self.latencies(True, scaled=False)]
        return {
            "service.accept_ms": per_batch_p50("service.accept"),
            "service.queue_wait_ms": per_batch_p50("service.queue_wait"),
            "service.apply_ms": per_batch_p50("service.apply"),
            "service.wal_commit_ms": per_batch_p50("service.wal_commit"),
            "service.checkpoint_ms": p50([s.seconds * 1e3 for s in tracer.named("service.checkpoint")]),
            "service.checkpoints": p50([r.checkpoints for r in traced_rounds]),
            "service.lag_p99_ms": percentile(lags, 100, 99),
            "service.wal_bytes_per_user_byte": p50([r.wal_bytes for r in traced_rounds])
            / self.user_bytes,
            "service.alerts": p50([r.alerts for r in traced_rounds]),
        }


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (RepairWorkload, SqlWorkload, StoreWorkload, IngestWorkload)
}
