"""Morsel-driven parallel execution layer.

Every hot path of the engine is already block-structured — tiled
evidence rectangles (:mod:`repro.dc.engine`), TANE's per-level
candidate batches (:mod:`repro.discovery.tane`), partition-refinement
chains (:mod:`repro.relational.statistics`), and columnar predicate
masks (:mod:`repro.relational.expr`) — so parallelism is a scheduling
problem, not an algorithmic one: fan the independent work units
("morsels") across a worker pool and merge the partial results **in
task-submission order**.  That merge rule is the whole determinism
story: every consumer's parallel output is byte-identical to its
serial path, pinned by the serial-equivalence suite in
``tests/relational/test_parallel_oracle.py``.

Two pool flavours, selected by the active kernel backend:

* **process pool** (numpy backend) — work ships as *references* into a
  ``multiprocessing.shared_memory`` segment holding the int64 code
  arrays / partition arrays, so workers attach zero-copy; only the
  small task descriptors and per-morsel results cross the pipe.
  Workers map the segment read-only straight off ``/dev/shm`` (no
  ``resource_tracker`` registration, hence no leak warnings), with a
  tracker-safe ``SharedMemory`` attach as the portable fallback.  The
  parent closes *and unlinks* the segment as soon as the map returns.
* **thread pool** (stdlib-pure backend) — the reference loops hold the
  GIL, so processes would pay pickling for nothing; threads share the
  in-process objects directly.  The fan-out structure (and therefore
  the merge order) is identical, so the equivalence suite runs the
  same assertions on both backends.

The pool width is the ``workers`` knob of :mod:`repro.settings`
(default 0).  ``workers=0`` *is* the oracle: every consumer guards
with :func:`pool_kind` and runs its original serial code, and
``workers=1`` also stays inline — same code path, no pool, nothing
spawned.

Pools are persistent (keyed by kind × worker count) because consumers
fan out many times per run; :func:`shutdown_pools` tears everything
down and is registered via :mod:`atexit`.  A worker exception cancels
the morsel map and re-raises in the caller — pools never hang on
failure.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import mmap
import multiprocessing
import os
import pickle
import signal
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from multiprocessing import shared_memory
from typing import Any

from repro import settings

from . import kernels
from .errors import WorkerPoolError

__all__ = [
    "morsel_map",
    "pool_kind",
    "shutdown_pools",
]

#: Live executors, keyed by ``(kind, workers)``; populated lazily and
#: reused across morsel maps (hypothesis suites fan out thousands of
#: times — pool startup must be paid once, not per call).
_pools: dict[tuple[str, int], Any] = {}

#: Names of shared-memory segments currently owned (created, not yet
#: unlinked) by this process — must be empty between morsel maps.
_live_segments: set[str] = set()

_region_ids = itertools.count()


def pool_kind(workers: int | None = None) -> str:
    """``"serial"``, ``"thread"`` or ``"process"`` for a worker count.

    Serial below 2 workers (nothing is ever spawned); otherwise the
    active kernel backend decides: numpy ships array views through
    shared memory to a process pool, the stdlib-pure backend shares its
    list-based state with threads.
    """
    count = settings.get("workers") if workers is None else workers
    if count <= 1:
        return "serial"
    return "process" if kernels.active_backend_name() == "numpy" else "thread"


# ----------------------------------------------------------------------
# Pool registry
# ----------------------------------------------------------------------
def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _stop_pool(kind: str, pool) -> None:
    """Tear one pool down, surviving the failure modes of a pool whose
    workers already died (SIGKILL, OOM).

    ``Pool.terminate``/``join`` can wedge *forever* when a worker was
    killed while holding a queue lock, so process-pool workers are
    SIGKILLed first and the teardown itself runs on a daemon thread
    with a bounded join — especially from the :mod:`atexit` hook at
    interpreter shutdown, this must never hang or print a stray
    traceback, only (at worst) abandon an already-broken pool."""
    if kind == "process":
        for worker in list(getattr(pool, "_pool", None) or []):
            pid = getattr(worker, "pid", None)
            if pid and worker.is_alive():
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass

    def _teardown() -> None:
        try:
            if kind == "thread":
                pool.shutdown(wait=True)
            else:
                pool.terminate()
                pool.join()
        except Exception:
            pass

    closer = threading.Thread(
        target=_teardown, daemon=True, name="repro-pool-teardown"
    )
    closer.start()
    closer.join(timeout=1.0)


def _shutdown_kind(kind: str) -> None:
    for key in [key for key in _pools if key[0] == kind]:
        _stop_pool(kind, _pools.pop(key))


def _thread_pool(workers: int) -> ThreadPoolExecutor:
    key = ("thread", workers)
    pool = _pools.get(key)
    if pool is None:
        pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-morsel"
        )
        _pools[key] = pool
    return pool


def _process_pool(workers: int):
    key = ("process", workers)
    pool = _pools.get(key)
    if pool is None:
        # Join any idle thread pools first: with the fork start method
        # the worker processes must be cloned from a single-threaded
        # parent (3.12+ warns otherwise, and the clone is cleaner).
        _shutdown_kind("thread")
        pool = _mp_context().Pool(processes=workers)
        _pools[key] = pool
    return pool


def shutdown_pools() -> None:
    """Tear down every pool (threads joined, processes terminated).

    Idempotent — the pool registry is drained as it is walked, so a
    second call (or the :mod:`atexit` firing after an explicit call) is
    a no-op — and safe when workers have already died: teardown errors
    are swallowed, never printed at interpreter exit.  The next morsel
    map simply builds a fresh pool.
    """
    _shutdown_kind("thread")
    _shutdown_kind("process")


def active_pools() -> tuple[tuple[str, int], ...]:
    """The live pool keys — the teardown tests introspect this."""
    return tuple(_pools)


def live_segments() -> tuple[str, ...]:
    """Shared-memory segments this process currently owns (leak probe)."""
    return tuple(sorted(_live_segments))


atexit.register(shutdown_pools)


# ----------------------------------------------------------------------
# Shared-memory array regions
# ----------------------------------------------------------------------
def _export_arrays(arrays: Sequence[Any]):
    """Pack ndarrays into one shared-memory segment.

    Returns ``(manifest, segment)`` where the manifest —
    ``(segment name, ((offset, dtype, shape), …))`` — is all a worker
    needs to rebuild zero-copy views.  The caller owns the segment and
    must close *and unlink* it once the morsel map returns.
    """
    if not arrays:
        return (None, ()), None
    import numpy as np

    contiguous = [np.ascontiguousarray(arr) for arr in arrays]
    entries = []
    total = 0
    for arr in contiguous:
        offset = (total + 7) & ~7  # 8-byte alignment for int64 views
        entries.append((offset, str(arr.dtype), arr.shape))
        total = offset + arr.nbytes
    name = f"repro_shm_{os.getpid()}_{next(_region_ids)}"
    segment = shared_memory.SharedMemory(name=name, create=True, size=max(total, 1))
    for arr, (offset, dtype, shape) in zip(contiguous, entries):
        view = np.ndarray(shape, dtype=dtype, buffer=segment.buf, offset=offset)
        view[...] = arr
    _live_segments.add(name)
    return (name, tuple(entries)), segment


def _release_segment(manifest, segment) -> None:
    if segment is None:
        return
    segment.close()
    segment.unlink()
    _live_segments.discard(manifest[0])


#: Worker-side cache of attached regions: segments are mapped once per
#: worker per morsel map, not once per task.  Bounded; old mappings are
#: dropped (the OS reclaims the memory once the last view dies).
_ATTACHED: OrderedDict[str, tuple] = OrderedDict()
_ATTACH_LIMIT = 4

#: Fallback SharedMemory attachments kept alive for the worker's
#: lifetime (only used where /dev/shm is unavailable).
_fallback_segments: list[Any] = []


def _open_segment(name: str):
    """Map a segment read-only without resource_tracker registration.

    The direct ``/dev/shm`` mmap is the no-side-effects path: nothing
    registers with the tracker, so worker attachments can never produce
    spurious "leaked shared_memory" warnings at interpreter shutdown.
    """
    path = f"/dev/shm/{name}"
    if os.path.exists(path):
        fd = os.open(path, os.O_RDONLY)
        try:
            return mmap.mmap(fd, 0, prot=mmap.PROT_READ)
        finally:
            os.close(fd)
    try:
        segment = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        from multiprocessing import resource_tracker

        segment = shared_memory.SharedMemory(name=name)
        try:
            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:
            pass
    _fallback_segments.append(segment)
    return segment.buf


def _attach_arrays(manifest) -> tuple:
    name, entries = manifest
    if name is None:
        return ()
    cached = _ATTACHED.get(name)
    if cached is not None:
        _ATTACHED.move_to_end(name)
        return cached
    import numpy as np

    buf = _open_segment(name)
    views = tuple(
        np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset)
        for offset, dtype, shape in entries
    )
    _ATTACHED[name] = views
    while len(_ATTACHED) > _ATTACH_LIMIT:
        _ATTACHED.popitem(last=False)
    return views


def _run_task(worker: Callable, manifest, payload, task):
    """Process-pool trampoline: attach the region, run one task."""
    return worker(_attach_arrays(manifest), payload, task)


# ----------------------------------------------------------------------
# The morsel map
# ----------------------------------------------------------------------
def morsel_map(
    worker: Callable[[tuple, Any, Any], Any],
    tasks: Iterable[Any],
    *,
    arrays: Sequence[Any] = (),
    payload: Any = None,
    workers: int | None = None,
    timeout: float | None = None,
) -> list:
    """Run ``worker(arrays, payload, task)`` per task, results in order.

    The deterministic-merge contract: the result list is always in
    task-submission order, whatever order workers finish in — consumers
    fold partials left-to-right and reproduce their serial output
    byte-identically.

    ``arrays`` is the zero-copy channel: on the process pool the
    ndarrays are packed into one shared-memory segment and workers
    receive read-only views; on the thread pool (and the inline serial
    fallback) the objects are passed through untouched.  ``payload`` is
    small per-call state (pickled once per chunk on processes).  A
    worker exception propagates to the caller with its original type;
    the pool survives for the next call.

    ``timeout`` (or the ``morsel_timeout`` setting) arms a watchdog on
    pooled maps: a map that fails to complete within the window raises
    :class:`~repro.relational.errors.WorkerPoolError`.
    On the process pool the stalled pool is terminated and discarded
    first (a SIGKILL-ed worker's tasks would otherwise hang the map
    forever), so a retry transparently gets a fresh pool; thread-pool
    workers cannot be killed, so there the stragglers are merely
    abandoned to finish in the background.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    if workers is None:
        count = settings.get("workers")
    else:
        count = settings._parse("workers", workers, "workers=")
    kind = pool_kind(count)
    arrays = tuple(arrays)
    if timeout is None:
        timeout = settings.get("morsel_timeout")
    if kind == "serial" or len(tasks) == 1:
        return [worker(arrays, payload, task) for task in tasks]
    if kind == "thread":
        pool = _thread_pool(count)
        futures = [pool.submit(worker, arrays, payload, task) for task in tasks]
        if timeout is None:
            return [future.result() for future in futures]
        try:
            return [future.result(timeout=timeout) for future in futures]
        except FutureTimeoutError:
            raise WorkerPoolError(
                "thread", f"map did not complete within {timeout:g}s"
            ) from None
    pool = _process_pool(count)
    manifest, segment = _export_arrays(arrays)
    try:
        call = functools.partial(_run_task, worker, manifest, payload)
        chunksize = max(1, len(tasks) // (count * 4))
        if timeout is None:
            return pool.map(call, tasks, chunksize=chunksize)
        result = pool.map_async(call, tasks, chunksize=chunksize)
        try:
            return result.get(timeout)
        except multiprocessing.TimeoutError:
            # A worker died mid-task (its tasks can never complete) or
            # the pool is otherwise wedged: discard it so the error is
            # genuinely retryable on a fresh pool.
            _stop_pool("process", _pools.pop(("process", count), pool))
            raise WorkerPoolError(
                "process",
                f"map did not complete within {timeout:g}s "
                "(worker crash?); the pool was discarded",
            ) from None
    finally:
        _release_segment(manifest, segment)


def picklable(*objects: Any) -> bool:
    """Whether every object survives pickling (process-pool gate).

    Consumers whose payloads may carry arbitrary user values (predicate
    literals, dictionary entries) probe this once and fall back to
    their serial path instead of failing mid-map.
    """
    try:
        for obj in objects:
            pickle.dumps(obj)
    except Exception:
        return False
    return True


def split_morsels(items: Sequence[Any], pieces: int) -> list[list[Any]]:
    """Split a work list into ≤ ``pieces`` contiguous runs (in order).

    Contiguity is what keeps merges deterministic: concatenating the
    per-morsel results in submission order reproduces the serial
    traversal exactly.
    """
    pieces = max(1, min(pieces, len(items)))
    step = -(-len(items) // pieces)
    return [list(items[i : i + step]) for i in range(0, len(items), step)]
