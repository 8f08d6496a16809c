"""Tests for kernel backend selection (env var, overrides, config)."""

import math

import pytest

from repro import settings
from repro.core.config import EngineConfig
from repro.relational import kernels
from repro.relational.errors import KernelBackendError

requires_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="NumPy not installed"
)


@pytest.fixture(autouse=True)
def _clean_selection(monkeypatch):
    """Each test starts from env-driven auto selection."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    settings.set(backend=None)


class TestResolution:
    def test_auto_prefers_numpy_when_available(self):
        expected = "numpy" if kernels.numpy_available() else "python"
        assert kernels.active_backend_name() == expected
        assert kernels.get_backend().NAME == expected

    def test_available_backends_always_include_python(self):
        assert "python" in kernels.available_backends()

    def test_env_var_selects_python(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert kernels.active_backend_name() == "python"
        assert kernels.get_backend().NAME == "python"

    @requires_numpy
    def test_env_var_selects_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert kernels.get_backend().NAME == "numpy"

    def test_env_var_unknown_name_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fortran")
        with pytest.raises(KernelBackendError):
            kernels.get_backend()

    def test_env_var_numpy_without_numpy_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        monkeypatch.setattr(kernels, "_numpy_probe", False)
        with pytest.raises(KernelBackendError):
            kernels.get_backend()

    def test_auto_falls_back_silently_without_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels, "_numpy_probe", False)
        assert kernels.active_backend_name() == "python"
        assert kernels.available_backends() == ("python",)


class TestOverrides:
    def test_set_backend_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        if kernels.numpy_available():
            settings.set(backend="numpy")
            assert kernels.get_backend().NAME == "numpy"
        settings.set(backend=None)
        assert kernels.active_backend_name() == "python"

    def test_set_backend_auto_ignores_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        settings.set(backend="auto")
        expected = "numpy" if kernels.numpy_available() else "python"
        assert kernels.active_backend_name() == expected

    def test_set_backend_unknown_raises(self):
        with pytest.raises(KernelBackendError):
            settings.set(backend="gpu")

    def test_set_backend_numpy_missing_raises_immediately(self, monkeypatch):
        monkeypatch.setattr(kernels, "_numpy_probe", False)
        with pytest.raises(KernelBackendError):
            settings.set(backend="numpy")

    def test_use_backend_restores_previous(self):
        settings.set(backend="python")
        with settings.use(backend="auto"):
            assert settings.get("backend") == "auto"
        assert kernels.get_backend().NAME == "python"

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with settings.use(backend="python"):
                raise RuntimeError("boom")
        assert settings.snapshot()["backend"] == "auto"


class TestEngineConfig:
    def test_default_is_auto(self):
        assert EngineConfig().backend == "auto"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(backend="gpu")

    def test_resolve_matches_availability(self):
        expected = "numpy" if kernels.numpy_available() else "python"
        assert EngineConfig().resolve() == expected
        assert EngineConfig(backend="python").resolve() == "python"

    def test_activate_installs_choice(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "auto")
        EngineConfig(backend="python").activate()
        assert kernels.get_backend().NAME == "python"

    def test_activate_numpy_missing_raises(self, monkeypatch):
        monkeypatch.setattr(kernels, "_numpy_probe", False)
        with pytest.raises(KernelBackendError):
            EngineConfig(backend="numpy").activate()

    def test_cache_bounds_validated(self):
        with pytest.raises(ValueError):
            EngineConfig(partition_cache_size=0)
        with pytest.raises(ValueError):
            EngineConfig(delta_track_limit=-1)
        assert EngineConfig(partition_cache_size=None).partition_cache_size is None

    def test_activate_installs_cache_bounds(self):
        EngineConfig(
            backend="python", partition_cache_size=7, delta_track_limit=3
        ).activate()
        assert settings.get("partition_cache_size") == 7
        assert settings.get("delta_track_limit") == 3
        EngineConfig(partition_cache_size=None).activate()
        assert settings.get("partition_cache_size") == math.inf
