"""Pool teardown and worker-crash robustness (PR 8).

* ``shutdown_pools`` is idempotent and safe when workers were SIGKILLed
  out from under the pool — including from the ``atexit`` hook, pinned
  by a subprocess asserting a clean, traceback-free interpreter exit;
* the morsel-map watchdog turns a killed process-pool worker (whose
  tasks would otherwise hang the map forever) into a retryable
  :class:`~repro.relational.errors.WorkerPoolError`, discarding the
  broken pool so the retry gets a fresh one.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro import settings
from repro.relational import kernels, parallel
from repro.relational.errors import WorkerPoolError

NUMPY_ONLY = pytest.mark.skipif(
    not kernels.numpy_available(), reason="NumPy not installed"
)


@pytest.fixture(autouse=True)
def _reset():
    yield
    parallel.shutdown_pools()


def _echo(arrays, payload, task):
    return task * 2


def _suicide(arrays, payload, task):
    if task == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.05)
    return task


def _sleepy(arrays, payload, task):
    time.sleep(1.5)
    return task


class TestShutdownIdempotency:
    def test_double_shutdown_is_a_noop(self):
        with settings.use(backend="python", workers=2):
            assert parallel.morsel_map(_echo, [1, 2, 3]) == [2, 4, 6]
        assert parallel.active_pools()
        parallel.shutdown_pools()
        assert not parallel.active_pools()
        parallel.shutdown_pools()  # second call: nothing to tear down
        assert not parallel.active_pools()

    @NUMPY_ONLY
    def test_shutdown_survives_a_killed_worker(self):
        with settings.use(backend="numpy", workers=2):
            assert parallel.morsel_map(_echo, [1, 2]) == [2, 4]
            pool = parallel._pools[("process", 2)]
            victim = pool._pool[0].pid
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.1)
        parallel.shutdown_pools()  # must not raise or hang
        assert not parallel.active_pools()

    @NUMPY_ONLY
    def test_atexit_hook_is_clean_after_worker_death(self, tmp_path):
        """A subprocess whose pool worker was SIGKILLed must still exit
        0 with no traceback — the atexit regression this PR fixes."""
        script = textwrap.dedent(
            """
            import os, signal, time
            from repro import settings
            from repro.relational import parallel

            def echo(arrays, payload, task):
                return task

            settings.set(backend="numpy", workers=2)
            assert parallel.morsel_map(echo, [1, 2]) == [1, 2]
            pool = parallel._pools[("process", 2)]
            os.kill(pool._pool[0].pid, signal.SIGKILL)
            time.sleep(0.2)
            print("pre-exit-ok")
            # Interpreter exit fires the atexit shutdown hook.
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert result.returncode == 0, result.stderr
        assert "pre-exit-ok" in result.stdout
        assert "Traceback" not in result.stderr


class TestWorkerCrashWatchdog:
    @NUMPY_ONLY
    def test_killed_worker_raises_worker_pool_error(self):
        with settings.use(backend="numpy", workers=2):
            with settings.use(morsel_timeout=2.0):
                with pytest.raises(WorkerPoolError, match="worker crash"):
                    parallel.morsel_map(
                        _suicide, ["die"] + ["live"] * 7
                    )
            # The broken pool was discarded; a retry gets a fresh pool
            # and completes.
            assert ("process", 2) not in parallel.active_pools()
            assert parallel.morsel_map(_echo, [1, 2]) == [2, 4]

    def test_thread_map_timeout_raises(self):
        with settings.use(backend="python", workers=2):
            with settings.use(morsel_timeout=0.1):
                with pytest.raises(WorkerPoolError, match="thread"):
                    parallel.morsel_map(_sleepy, ["a", "b"])

    def test_per_call_timeout_overrides_module_default(self):
        with settings.use(backend="python", workers=2):
            with settings.use(morsel_timeout=0.01):
                # A generous per-call timeout wins over the tight default.
                assert parallel.morsel_map(
                    _echo, [1, 2, 3], timeout=30.0
                ) == [2, 4, 6]

    def test_timeout_validation(self):
        with pytest.raises(ValueError, match="morsel timeout must be a positive"):
            settings.set(morsel_timeout=0)
        with pytest.raises(ValueError, match="morsel timeout must be a positive"):
            settings.set(morsel_timeout="soon")

    def test_serial_path_ignores_timeout(self):
        with settings.use(workers=0, morsel_timeout=0.001):
            assert parallel.morsel_map(_sleepy, ["x"]) == ["x"]
