"""Per-relation statistics with memoization — counts *and* partitions.

The CB method's entire cost is distinct counting over attribute sets
(the paper implements them as ``SELECT COUNT(DISTINCT …)`` queries,
Section 4.4).  A repair search asks for many overlapping counts —
``|π_X|``, ``|π_XY|``, ``|π_XA|``, ``|π_XAY|`` for every candidate ``A``
— so memoizing them on the relation is the single biggest win.  Keys are
frozensets of attribute names: projection cardinality is order-
insensitive.

On top of the count memo sits the **attribute-set partition cache**: a
``frozenset → StrippedPartition`` map over the lattice of attribute
sets.  When ``|π_XA|`` is requested and π_X is cached, the answer is
one O(covered) refinement instead of a fresh scan — and covered rows
shrink rapidly as X approaches a key.  Because relations are immutable
(every derivation builds a new :class:`Relation`, and therefore a new
statistics object), neither cache can ever go stale; the only
invalidation rule is :meth:`clear`, which callers use to reset cost
accounting between benchmark phases.  The partition cache is an LRU
bounded by the ``partition_cache_size`` knob of :mod:`repro.settings`
so long monitoring runs cannot grow memory without bound;
hit/miss/eviction counters sit next to ``executed_count_queries``.

The third layer is the **delta engine**
(:mod:`repro.relational.delta`): when a relation is produced by
``Relation.extend``, :meth:`adopt_delta` moves the parent's group
trackers over and folds the new rows in (O(Δ)), and promotes attribute
sets the parent had counted or partitioned to trackers of its own
(O(n), once per set per chain).  Tracked sets then answer distinct
counts, entropies, agreeing-pair sums, and stripped-partition requests
without any per-window recomputation.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro import settings

from . import kernels, parallel
from .delta import GroupTracker
from .partition import StrippedPartition

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .relation import Relation

__all__ = ["RelationStatistics"]


def _build_chain(backend, code_columns):
    """The sorted-prefix partition chain of one attribute set.

    Pure function of the code columns — the reason serial and parallel
    priming produce byte-identical partitions.
    """
    chain = []
    current = backend.stripped_from_codes(code_columns[0])
    chain.append(current)
    for codes in code_columns[1:]:
        current = current.refine(codes)
        chain.append(current)
    return chain


def _prime_chain_local(arrays, payload, code_columns):
    """Serial / thread-pool priming worker (shares in-process state)."""
    return _build_chain(kernels.get_backend(), code_columns)


def _prime_chain_shm(arrays, payload, slots):
    """Process-pool priming worker: code columns arrive as shared-
    memory views, partitions travel back by value (they are the
    result, so this copy is the irreducible transfer)."""
    backend = kernels.backend_module(payload)
    return _build_chain(backend, [arrays[slot] for slot in slots])


class RelationStatistics:
    """Memoizing facade over one relation's counting primitives."""

    __slots__ = (
        "_relation",
        "_distinct_cache",
        "_raw_count",
        "_partition_cache",
        "_partition_hits",
        "_partitions_built",
        "_partition_evictions",
        "_trackers",
        "_delta_hits",
    )

    def __init__(self, relation: "Relation") -> None:
        self._relation = relation
        self._distinct_cache: dict[frozenset[str], int] = {}
        self._raw_count = 0
        self._partition_cache: OrderedDict[frozenset[str], StrippedPartition] = (
            OrderedDict()
        )
        self._partition_hits = 0
        self._partitions_built = 0
        self._partition_evictions = 0
        self._trackers: OrderedDict[frozenset[str], GroupTracker] = OrderedDict()
        self._delta_hits = 0

    # ------------------------------------------------------------------
    # Counting
    # ------------------------------------------------------------------
    def count_distinct(self, attrs: Sequence[str]) -> int:
        """Memoized ``|π_attrs(r)|``.

        Resolution order: the count memo, then the partition cache
        (``|π_X| = n − e(X)``, free), then a delta tracker (maintained
        group map, free), then a one-step refinement when a partition
        of any ``attrs ∖ {A}`` is cached (this is how the repair search
        derives every |π_XA| from the cached π_X), and only then a raw
        scan.
        """
        key = frozenset(attrs)
        cached = self._distinct_cache.get(key)
        if cached is not None:
            return cached
        partition = self._partition_cache.get(key)
        if partition is not None:
            self._partition_hits += 1
            self._partition_cache.move_to_end(key)
            value = partition.num_distinct
        else:
            tracker = self._trackers.get(key)
            if tracker is not None:
                self._delta_hits += 1
                self._trackers.move_to_end(key)
                value = tracker.num_distinct
            elif len(key) > 1 and self._refinable_from(key) is not None:
                value = self.stripped_partition(list(key)).num_distinct
                self._raw_count += 1
            else:
                value = self._relation.count_distinct_raw(list(key))
                self._raw_count += 1
        self._distinct_cache[key] = value
        return value

    def _refinable_from(self, key: frozenset[str]) -> frozenset[str] | None:
        """A cached ``key ∖ {A}`` subset to refine from, if any.

        Probes in sorted-name order so the chosen subset — and with it
        the class order of every derived partition and downstream
        witness enumeration — is independent of ``PYTHONHASHSEED``.
        """
        for name in sorted(key):
            subset = key - {name}
            if subset in self._partition_cache:
                return subset
        return None

    # ------------------------------------------------------------------
    # The partition lattice cache
    # ------------------------------------------------------------------
    def stripped_partition(self, attrs: Sequence[str]) -> StrippedPartition:
        """The cached stripped partition π_attrs, building it if needed.

        Construction order: a delta tracker materializes its group map
        directly (O(covered), no scan); otherwise the lattice is
        reused — a cached partition of any ``attrs ∖ {A}`` is refined
        by A's column in O(covered), else the sorted prefix chain is
        built (and cached) from the single-attribute partitions up.
        """
        key = frozenset(attrs)
        partition = self._partition_cache.get(key)
        if partition is not None:
            self._partition_hits += 1
            self._partition_cache.move_to_end(key)
            return partition
        tracker = self._trackers.get(key)
        if tracker is not None:
            self._delta_hits += 1
            self._trackers.move_to_end(key)
            partition = tracker.stripped_partition()
        else:
            partition = self._build_partition(key)
        self._store_partition(key, partition)
        self._partitions_built += 1
        return partition

    def _store_partition(self, key: frozenset[str], partition) -> None:
        self._partition_cache[key] = partition
        limit = settings.get("partition_cache_size")
        while len(self._partition_cache) > limit:
            self._partition_cache.popitem(last=False)
            self._partition_evictions += 1

    def _build_partition(self, key: frozenset[str]) -> StrippedPartition:
        """Build π_key with the active kernel backend.

        The cache stores whichever representation the backend produced
        (list-based or array-backed); the two interoperate, so entries
        built under different backends still refine each other.
        """
        relation = self._relation
        backend = kernels.get_backend()
        if not key:
            return backend.stripped_single_class(relation.num_rows)
        if len(key) == 1:
            (name,) = key
            return backend.stripped_from_codes(relation.column(name).kernel_codes())
        subset = self._refinable_from(key)
        if subset is not None:
            (added,) = key - subset
            return self._partition_cache[subset].refine(
                relation.column(added).kernel_codes()
            )
        names = sorted(key)
        prefix = self.stripped_partition(names[:-1])
        return prefix.refine(relation.column(names[-1]).kernel_codes())

    def cached_partition(self, attrs: Sequence[str]) -> StrippedPartition | None:
        """The cached partition for ``attrs``, or ``None`` (never builds)."""
        return self._partition_cache.get(frozenset(attrs))

    def prime_partitions(self, attr_sets: Sequence[Sequence[str]]) -> int:
        """Batch-build missing stripped partitions, morsel-parallel.

        Each requested set is built as its *sorted-name prefix chain*
        from scratch (π_{a}, π_{ab}, …), independent of whatever the
        cache happens to hold — that independence is what makes the
        result a pure function of the relation, so the serial and
        parallel modes install byte-identical partitions in the same
        (request, prefix-depth) order.  Every missing prefix along a
        chain is installed too, mirroring what the lazy builder would
        cache on the way up; already-cached keys are never overwritten.
        Returns the number of partitions installed.
        """
        jobs: list[tuple[str, ...]] = []
        seen: set[frozenset[str]] = set()
        for attrs in attr_sets:
            key = frozenset(attrs)
            if not key or key in seen or key in self._partition_cache:
                continue
            seen.add(key)
            jobs.append(tuple(sorted(key)))
        if not jobs:
            return 0
        relation = self._relation
        kind = parallel.pool_kind()
        if kind == "process":
            arrays: list = []
            slots: dict[str, int] = {}
            for names in jobs:
                for name in names:
                    if name not in slots:
                        slots[name] = len(arrays)
                        arrays.append(relation.column(name).kernel_codes())
            chains = parallel.morsel_map(
                _prime_chain_shm,
                [tuple(slots[name] for name in names) for names in jobs],
                arrays=arrays,
                payload=kernels.active_backend_name(),
            )
        else:
            columns = [
                [relation.column(name).kernel_codes() for name in names]
                for names in jobs
            ]
            chains = parallel.morsel_map(_prime_chain_local, columns)
        built = 0
        for names, chain in zip(jobs, chains):
            for depth, partition in enumerate(chain, start=1):
                key = frozenset(names[:depth])
                if key not in self._partition_cache:
                    self._store_partition(key, partition)
                    self._partitions_built += 1
                    built += 1
        return built

    # ------------------------------------------------------------------
    # The delta engine (incremental maintenance across extensions)
    # ------------------------------------------------------------------
    def track(self, attrs: Sequence[str]) -> GroupTracker:
        """Start (or fetch) delta maintenance for one attribute set.

        The tracker is built cold once (O(n)) and from then on rides
        every ``Relation.extend`` in O(Δ), answering distinct counts,
        entropies, agreeing-pair sums, and stripped partitions for this
        set without recomputation.
        """
        names = self._relation.schema.validate_names(attrs)
        if not names:
            raise ValueError("cannot track the empty attribute set")
        key = frozenset(names)
        tracker = self._trackers.get(key)
        if tracker is None:
            relation = self._relation
            ordered = sorted(key)
            tracker = GroupTracker.build(
                ordered,
                [relation.column(name).kernel_codes() for name in ordered],
                relation.num_rows,
            )
            self._store_tracker(key, tracker)
        else:
            self._trackers.move_to_end(key)
        return tracker

    def tracked(self, attrs: Sequence[str]) -> GroupTracker | None:
        """The tracker for ``attrs`` if one is maintained (never builds)."""
        return self._trackers.get(frozenset(attrs))

    def tracked_entropy(self, attrs: Sequence[str]) -> float | None:
        """``H(π_attrs)`` from the delta tracker, or ``None`` untracked."""
        tracker = self._trackers.get(frozenset(attrs))
        return None if tracker is None else tracker.entropy()

    def tracked_agreeing_pairs(self, attrs: Sequence[str]) -> int | None:
        """``Σ C(s,2)`` over π_attrs groups, or ``None`` untracked.

        ``count_violating_pairs(X → Y)`` is the difference of this sum
        over X and over X ∪ Y — the delta engine's O(1) answer.
        """
        tracker = self._trackers.get(frozenset(attrs))
        return None if tracker is None else tracker.agreeing_pairs

    def _store_tracker(self, key: frozenset[str], tracker: GroupTracker) -> None:
        self._trackers[key] = tracker
        limit = settings.get("delta_track_limit")
        while len(self._trackers) > limit:
            self._trackers.popitem(last=False)

    def adopt_delta(self, parent: "RelationStatistics") -> None:
        """Patch this (fresh) statistics object from a parent's state.

        Called by ``Relation.extend`` once the child relation exists.
        The parent's trackers *move* here and fold the Δ new rows in;
        attribute sets the parent had partitioned or counted (but not
        yet tracked) are promoted to trackers, bounded by the tracker
        limit, oldest-first.  Every adopted set's distinct count is
        pre-filled, so the child answers the monitoring path's queries
        without touching the old rows at all.
        """
        child = self._relation
        start = parent._relation.num_rows
        keys: list[frozenset[str]] = list(parent._trackers)
        seen = set(keys)
        limit = settings.get("delta_track_limit")
        for source in (parent._partition_cache, parent._distinct_cache):
            for key in source:
                if key and key not in seen:
                    seen.add(key)
                    keys.append(key)
        if len(keys) > limit:
            keys = keys[:limit]
        for key in keys:
            tracker = parent._trackers.pop(key, None)
            ordered = sorted(key)
            code_columns = [child.column(name).kernel_codes() for name in ordered]
            if tracker is None:
                tracker = GroupTracker.build(ordered, code_columns, child.num_rows)
            else:
                tracker.extend(code_columns, start)
            self._store_tracker(key, tracker)
            self._distinct_cache[key] = tracker.num_distinct

    # ------------------------------------------------------------------
    # Simple per-attribute statistics
    # ------------------------------------------------------------------
    def null_count(self, attr: str) -> int:
        """Number of NULLs in one attribute."""
        return self._relation.column(attr).null_count

    def cardinality(self, attr: str) -> int:
        """Distinct non-NULL values of one attribute."""
        return self._relation.column(attr).cardinality

    def is_unique(self, attr: str) -> bool:
        """Whether ``attr`` alone is a key of the instance (UNIQUE).

        The paper singles UNIQUE attributes out: adding one repairs any
        FD but makes the rest of the antecedent useless (Section 3), so
        the goodness ranking penalizes them.
        """
        return self.count_distinct([attr]) == self._relation.num_rows

    # ------------------------------------------------------------------
    # Cache introspection
    # ------------------------------------------------------------------
    @property
    def executed_count_queries(self) -> int:
        """Raw (memo-missing) distinct counts executed so far."""
        return self._raw_count

    @property
    def cached_entries(self) -> int:
        """Number of memoized attribute sets."""
        return len(self._distinct_cache)

    @property
    def cached_partitions(self) -> int:
        """Number of attribute sets with a cached stripped partition."""
        return len(self._partition_cache)

    @property
    def partition_cache_hits(self) -> int:
        """Lookups answered directly from the partition cache."""
        return self._partition_hits

    @property
    def partitions_built(self) -> int:
        """Stripped partitions materialized (cache misses)."""
        return self._partitions_built

    @property
    def partition_cache_evictions(self) -> int:
        """Partitions dropped by the LRU bound (memory ceiling at work)."""
        return self._partition_evictions

    @property
    def tracked_sets(self) -> int:
        """Attribute sets under delta maintenance."""
        return len(self._trackers)

    @property
    def delta_hits(self) -> int:
        """Lookups answered by a delta tracker (no recomputation)."""
        return self._delta_hits

    def reset_counters(self) -> None:
        """Zero the cost counters (cache contents are kept)."""
        self._raw_count = 0
        self._partition_hits = 0
        self._partitions_built = 0
        self._partition_evictions = 0
        self._delta_hits = 0

    def clear(self) -> None:
        """Drop all cached counts, partitions and trackers; reset counters."""
        self._distinct_cache.clear()
        self._partition_cache.clear()
        self._trackers.clear()
        self.reset_counters()
