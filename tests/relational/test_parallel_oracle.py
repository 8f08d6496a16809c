"""Serial-equivalence oracle for the morsel-driven parallel layer (PR 6).

``workers=0`` is the byte-identical oracle: for every parallel consumer
— the tiled evidence sweep, ``discover_dcs(engine="tiled")``, TANE FD
discovery, batched partition priming, and chunked predicate masks —
running the same workload under ``workers ∈ {2, 3, 4}`` must reproduce
the serial output *exactly*, on both kernel backends (thread pool on
python, shared-memory process pool on numpy), including:

* evidence **multisets and their insertion order** (the first-seen mask
  order downstream consumers iterate in);
* NULL/NaN lanes in ordered predicate columns;
* tile/chunk boundary sizes (tiles smaller than, equal to, and larger
  than the representative count);
* partition-cache **state and counters** after discovery (the parallel
  priming path must install exactly what the lazy serial walk builds);
* predicate-mask truth values *and* error semantics (the first
  reachable erroring row raises the same oracle message).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import settings as engine_settings
import repro.relational.expr as expr_mod
from repro.dc.engine import build_evidence_tiled, discover_dcs
from repro.dc.model import Operator, Predicate
from repro.dc.predicates import PredicateSpace
from repro.discovery.tane import discover_fds
from repro.relational import kernels, parallel
from repro.relational.expr import (
    ExpressionError,
    and_,
    col,
    eq,
    gt,
    in_,
    is_null,
    lt,
    ne,
    not_,
    or_,
    predicate_mask,
)
from repro.relational.relation import Relation

WORKER_COUNTS = (2, 3, 4)

SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(autouse=True)
def _tiny_chunk_floor(monkeypatch):
    """Force the chunked mask path on hypothesis-sized relations."""
    monkeypatch.setattr(expr_mod, "_PARALLEL_ROW_FLOOR", 2)


@st.composite
def small_relations(draw, max_rows=24, max_attrs=3, specials=True):
    """Numeric relations, optionally salted with NULL and NaN."""
    num_rows = draw(st.integers(0, max_rows))
    num_attrs = draw(st.integers(1, max_attrs))
    special = (
        st.one_of(st.none(), st.just(float("nan"))) if specials else st.nothing()
    )
    value = st.one_of(st.integers(0, 3).map(float), special)
    columns = {
        f"A{index}": [draw(value) for _ in range(num_rows)]
        for index in range(num_attrs)
    }
    return Relation.from_columns("rand", columns)


def _full_space(relation: Relation) -> PredicateSpace:
    predicates = []
    for name in relation.attribute_names:
        for op in Operator:
            predicates.append(Predicate(name, op))
    return PredicateSpace(relation.name, tuple(predicates))


# ----------------------------------------------------------------------
# Evidence: multiset, insertion order, NULL/NaN lanes, tile boundaries
# ----------------------------------------------------------------------
class TestEvidenceOracle:
    @settings(max_examples=25, **SETTINGS)
    @given(small_relations(), st.integers(1, 9))
    def test_counts_and_order_match_serial(self, relation, tile):
        space = _full_space(relation)
        for backend_name in kernels.available_backends():
            with engine_settings.use(backend=backend_name):
                serial = build_evidence_tiled(relation, space, tile=tile)
                for workers in WORKER_COUNTS:
                    with engine_settings.use(workers=workers):
                        par = build_evidence_tiled(relation, space, tile=tile)
                    assert par.counts == serial.counts
                    assert list(par.counts.items()) == list(serial.counts.items())
                    assert par.total_pairs == serial.total_pairs
                    assert par.sampled == serial.sampled

    @settings(max_examples=10, **SETTINGS)
    @given(small_relations(max_rows=20), st.integers(1, 40))
    def test_sampled_budget_matches_serial(self, relation, budget):
        space = _full_space(relation)
        for backend_name in kernels.available_backends():
            with engine_settings.use(backend=backend_name):
                serial = build_evidence_tiled(
                    relation, space, tile=4, max_pairs=budget
                )
                with engine_settings.use(workers=3):
                    par = build_evidence_tiled(
                        relation, space, tile=4, max_pairs=budget
                    )
                assert par.counts == serial.counts
                assert par.sampled == serial.sampled


class TestDiscoverDCsOracle:
    @settings(max_examples=10, **SETTINGS)
    @given(small_relations(max_rows=16), st.integers(1, 6))
    def test_tiled_discovery_matches_serial(self, relation, tile):
        space = _full_space(relation)
        for backend_name in kernels.available_backends():
            with engine_settings.use(backend=backend_name):
                serial = discover_dcs(
                    relation, space, engine="tiled", max_size=2, tile=tile
                )
                with engine_settings.use(workers=4):
                    par = discover_dcs(
                        relation, space, engine="tiled", max_size=2, tile=tile
                    )
                assert par.constraints == serial.constraints
                assert par.evidence_pairs == serial.evidence_pairs


# ----------------------------------------------------------------------
# TANE: results, counters and cache state
# ----------------------------------------------------------------------
@st.composite
def fd_relations(draw, max_rows=30):
    """NULL-free relations with correlated columns, so FDs appear."""
    num_rows = draw(st.integers(0, max_rows))
    base = [draw(st.integers(0, 4)) for _ in range(num_rows)]
    noise = [draw(st.integers(0, 2)) for _ in range(num_rows)]
    columns = {
        "A": [float(v) for v in base],
        "B": [float(v % 3) for v in base],
        "C": [float(b * 3 + x) for b, x in zip(base, noise)],
        "D": [float(x) for x in noise],
    }
    return Relation.from_columns("fdrel", columns)


def _fd_snapshot(relation, **kwargs):
    result = discover_fds(relation, **kwargs)
    return (
        [(d.fd.antecedent, d.fd.consequent, d.confidence) for d in result.fds],
        result.candidates_tested,
        result.levels_explored,
        relation.stats.partitions_built,
        relation.stats.cached_partitions,
    )


class TestTaneOracle:
    @settings(max_examples=20, **SETTINGS)
    @given(fd_relations(), st.sampled_from([1.0, 0.9, 0.75]))
    def test_discovery_matches_serial(self, relation, confidence):
        columns = {
            name: relation.column(name).values()
            for name in relation.attribute_names
        }
        for backend_name in kernels.available_backends():
            with engine_settings.use(backend=backend_name):
                serial = _fd_snapshot(
                    Relation.from_columns("s", columns),
                    max_lhs_size=3,
                    min_confidence=confidence,
                )
                for workers in WORKER_COUNTS:
                    with engine_settings.use(workers=workers):
                        par = _fd_snapshot(
                            Relation.from_columns("p", columns),
                            max_lhs_size=3,
                            min_confidence=confidence,
                        )
                    assert par == serial


# ----------------------------------------------------------------------
# Partition priming: identical partitions, identical cache bookkeeping
# ----------------------------------------------------------------------
class TestPrimePartitionsOracle:
    @settings(max_examples=20, **SETTINGS)
    @given(small_relations(max_rows=30, max_attrs=3), st.data())
    def test_primed_chains_match_lazy_builds(self, relation, data):
        names = list(relation.attribute_names)
        sets = data.draw(
            st.lists(
                st.lists(st.sampled_from(names), min_size=1, unique=True),
                min_size=1,
                max_size=5,
            )
        )
        columns = {name: relation.column(name).values() for name in names}
        for backend_name in kernels.available_backends():
            with engine_settings.use(backend=backend_name):
                lazy = Relation.from_columns("lazy", columns)
                for attrs in sets:
                    lazy.stats.stripped_partition(sorted(attrs))
                with engine_settings.use(workers=3):
                    primed = Relation.from_columns("primed", columns)
                    primed.stats.prime_partitions([tuple(s) for s in sets])
                for attrs in sets:
                    a = lazy.stats.cached_partition(attrs)
                    b = primed.stats.cached_partition(attrs)
                    assert a is not None and b is not None
                    assert a.error() == b.error()
                    assert a.num_distinct == b.num_distinct
                    assert sorted(map(sorted, a.classes)) == sorted(
                        map(sorted, b.classes)
                    )

    def test_priming_is_idempotent_and_counted(self):
        columns = {"A": [1.0, 1.0, 2.0], "B": [3.0, 3.0, 3.0]}
        for backend_name in kernels.available_backends():
            with engine_settings.use(backend=backend_name, workers=2):
                relation = Relation.from_columns("idem", columns)
                built = relation.stats.prime_partitions([("A",), ("A", "B")])
                assert built == 2
                assert relation.stats.prime_partitions([("A", "B")]) == 0


# ----------------------------------------------------------------------
# Predicate masks: truth, NULL/NaN semantics, error rows
# ----------------------------------------------------------------------
@st.composite
def mask_cases(draw):
    relation = draw(small_relations(max_rows=40, max_attrs=2))
    predicates = [
        eq(col("A0"), 1.0),
        ne(col("A0"), 2.0),
        lt(col("A0"), 2.0),
        in_(col("A0"), [0.0, 3.0, None]),
        is_null(col("A0")),
        is_null(col("A0"), negated=True),
        not_(eq(col("A0"), 0.0)),
        eq(col("A0"), col("A0")),
    ]
    if relation.arity > 1:
        predicates.extend(
            [
                eq(col("A0"), col("A1")),
                ne(col("A0"), col("A1")),
                and_(gt(col("A0"), 0.0), lt(col("A1"), 3.0)),
                or_(is_null(col("A1")), eq(col("A0"), 2.0)),
            ]
        )
    return relation, draw(st.sampled_from(predicates))


def _mask_outcome(relation, predicate):
    try:
        return ("ok", [bool(v) for v in predicate_mask(relation, predicate)])
    except ExpressionError as error:
        return ("err", str(error))


class TestPredicateMaskOracle:
    @settings(max_examples=30, **SETTINGS)
    @given(mask_cases())
    def test_chunked_masks_match_serial(self, case):
        relation, predicate = case
        for backend_name in kernels.available_backends():
            with engine_settings.use(backend=backend_name):
                serial = _mask_outcome(relation, predicate)
                for workers in WORKER_COUNTS:
                    with engine_settings.use(workers=workers):
                        assert _mask_outcome(relation, predicate) == serial

    @settings(max_examples=15, **SETTINGS)
    @given(small_relations(max_rows=40, max_attrs=2, specials=False))
    def test_error_rows_raise_identically(self, relation):
        # Mixed-type column: order comparisons error on 'mix' rows only.
        values = ["mix" if v == 3.0 else v for v in relation.column("A0").values()]
        mixed = Relation.from_columns(
            "mixed", {"M": values, "G": relation.column("A0").values()}
        )
        cases = [
            lt(col("M"), 2.0),
            and_(eq(col("G"), 999.0), lt(col("M"), 2.0)),  # unreachable error
            or_(lt(col("M"), 2.0), eq(col("G"), 0.0)),
            eq(col("nope"), 1.0),  # unknown column
        ]
        for backend_name in kernels.available_backends():
            with engine_settings.use(backend=backend_name):
                for predicate in cases:
                    serial = _mask_outcome(mixed, predicate)
                    with engine_settings.use(workers=4):
                        assert _mask_outcome(mixed, predicate) == serial
