"""Unit tests for the morsel scheduler itself (PR 6).

The oracle suite (``test_parallel_oracle.py``) pins *what* the parallel
consumers compute; this file pins *how the scheduler behaves*:

* worker exceptions propagate to the caller with their original type
  and leave the pool usable (no hang, no poisoned state);
* shared-memory segments are released as soon as a morsel map returns —
  no live segments, no ``/dev/shm`` leftovers, no resource-tracker leak
  warnings at interpreter shutdown;
* ``workers=1`` (and 0) degrade to inline execution without spawning
  anything;
* the ``workers`` setting's resolution chain (override >
  ``REPRO_WORKERS`` > serial default) and its validation;
* ``EngineConfig(workers=…)`` validation and activation, plus the CLI
  ``--workers`` flag.
"""

from __future__ import annotations

import glob

import pytest

from repro import settings
from repro.cli import main as cli_main
from repro.core.config import EngineConfig
from repro.relational import kernels, parallel

NUMPY_ONLY = pytest.mark.skipif(
    not kernels.numpy_available(), reason="NumPy not installed"
)


def _echo(arrays, payload, task):
    return (payload, task)


def _boom_on_three(arrays, payload, task):
    if task == 3:
        raise ValueError(f"morsel {task} exploded")
    return task * 10


def _sum_arrays(arrays, payload, task):
    lo, hi = task
    return sum(int(arr[lo:hi].sum()) for arr in arrays)


class TestMorselMap:
    def test_results_in_submission_order(self):
        for backend_name in kernels.available_backends():
            with settings.use(backend=backend_name, workers=2):
                out = parallel.morsel_map(_echo, list(range(20)), payload="p")
                assert out == [("p", task) for task in range(20)]

    def test_empty_tasks(self):
        with settings.use(workers=4):
            assert parallel.morsel_map(_echo, []) == []

    def test_worker_exception_propagates_and_pool_survives(self):
        for backend_name in kernels.available_backends():
            with settings.use(backend=backend_name, workers=2):
                with pytest.raises(ValueError, match="morsel 3 exploded"):
                    parallel.morsel_map(_boom_on_three, list(range(8)))
                # The pool is still alive and serves the next map.
                assert parallel.morsel_map(_echo, [1, 2]) == [
                    (None, 1),
                    (None, 2),
                ]

    @NUMPY_ONLY
    def test_process_pool_shares_arrays(self):
        import numpy as np

        with settings.use(backend="numpy", workers=2):
            arrays = [np.arange(100, dtype=np.int64), np.ones(100, dtype=np.int64)]
            bounds = [(0, 50), (50, 100)]
            out = parallel.morsel_map(_sum_arrays, bounds, arrays=arrays)
            assert out == [sum(range(50)) + 50, sum(range(50, 100)) + 50]

    @NUMPY_ONLY
    def test_shared_memory_released_after_map(self):
        import numpy as np

        with settings.use(backend="numpy", workers=2):
            arrays = [np.arange(64, dtype=np.int64)]
            parallel.morsel_map(_sum_arrays, [(0, 32), (32, 64)], arrays=arrays)
        assert parallel.live_segments() == ()
        assert glob.glob("/dev/shm/repro_shm_*") == []

    @NUMPY_ONLY
    def test_shared_memory_released_after_worker_failure(self):
        import numpy as np

        with settings.use(backend="numpy", workers=2):
            arrays = [np.arange(8, dtype=np.int64)]
            with pytest.raises(ValueError):
                parallel.morsel_map(_boom_on_three, [1, 3], arrays=arrays)
        assert parallel.live_segments() == ()
        assert glob.glob("/dev/shm/repro_shm_*") == []


class TestPoolLifecycle:
    def test_workers_one_runs_inline(self):
        parallel.shutdown_pools()
        with settings.use(workers=1):
            assert parallel.pool_kind() == "serial"
            out = parallel.morsel_map(_echo, list(range(5)))
        assert out == [(None, task) for task in range(5)]
        assert parallel.active_pools() == ()

    def test_workers_zero_runs_inline(self):
        parallel.shutdown_pools()
        with settings.use(workers=0):
            assert parallel.pool_kind() == "serial"
            parallel.morsel_map(_echo, [1, 2, 3])
        assert parallel.active_pools() == ()

    def test_single_task_runs_inline(self):
        parallel.shutdown_pools()
        with settings.use(workers=4):
            assert parallel.morsel_map(_echo, ["only"]) == [(None, "only")]
        assert parallel.active_pools() == ()

    def test_shutdown_is_idempotent(self):
        with settings.use(workers=2):
            parallel.morsel_map(_echo, [1, 2, 3, 4])
            assert parallel.active_pools() != ()
        parallel.shutdown_pools()
        parallel.shutdown_pools()
        assert parallel.active_pools() == ()
        # A fresh map after shutdown simply builds a new pool.
        with settings.use(workers=2):
            assert parallel.morsel_map(_echo, [5, 6]) == [(None, 5), (None, 6)]
        parallel.shutdown_pools()


class TestWorkerKnob:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert settings.get("workers") == 0
        assert parallel.pool_kind() == "serial"

    def test_env_override_and_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert settings.get("workers") == 3
        monkeypatch.setenv("REPRO_WORKERS", "-1")
        with pytest.raises(ValueError, match="non-negative"):
            settings.get("workers")
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="non-negative"):
            settings.get("workers")

    def test_set_workers_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        with settings.use(workers=0):
            assert settings.get("workers") == 0
        assert settings.get("workers") == 3

    def test_set_workers_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            settings.set(workers=-1)
        with pytest.raises(ValueError, match="non-negative"):
            settings.set(workers=True)
        with pytest.raises(ValueError, match="non-negative"):
            settings.set(workers=2.5)

    def test_pool_kind_follows_backend(self):
        with settings.use(workers=2):
            with settings.use(backend="python"):
                assert parallel.pool_kind() == "thread"
            if kernels.numpy_available():
                with settings.use(backend="numpy"):
                    assert parallel.pool_kind() == "process"

    def test_split_morsels_contiguous(self):
        items = list(range(10))
        pieces = parallel.split_morsels(items, 3)
        assert [x for piece in pieces for x in piece] == items
        assert len(pieces) <= 3
        assert parallel.split_morsels([1], 8) == [[1]]

    def test_picklable_probe(self):
        assert parallel.picklable(1, "a", (2.0, None))
        assert not parallel.picklable(lambda: None)


class TestEngineConfigWorkers:
    def test_default_and_validation(self):
        assert EngineConfig().workers == 0
        with pytest.raises(ValueError, match="non-negative"):
            EngineConfig(workers=-1)
        with pytest.raises(ValueError, match="non-negative"):
            EngineConfig(workers=True)
        with pytest.raises(ValueError, match="non-negative"):
            EngineConfig(workers="four")

    def test_activate_installs_workers(self):
        EngineConfig(backend="python", workers=2).activate()
        assert settings.get("workers") == 2


class TestCliWorkers:
    def test_workers_flag_installs_count(self, tmp_path, capsys):
        assert cli_main(["init", str(tmp_path / "db")]) == 0
        assert cli_main(["--workers", "2", "show", str(tmp_path / "db")]) == 0
        assert settings.get("workers") == 2
        capsys.readouterr()

    def test_workers_flag_rejects_negative(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli_main(["--workers", "-2", "show", str(tmp_path / "db")])
        capsys.readouterr()
