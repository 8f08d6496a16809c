"""Env-knob hardening: a typo in any ``REPRO_*`` engine variable must
raise the *same* clear message as the :class:`EngineConfig` constructor
— plus the variable it came from — both through
:meth:`EngineConfig.from_env` and through each knob's lazy resolution
path.  And ``None`` removes an override for every knob, so the
environment variable applies again."""

from __future__ import annotations

import pytest

from repro import settings
from repro.core.config import EngineConfig
from repro.relational import kernels
from repro.relational.errors import KernelBackendError


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for var in (
        "REPRO_BACKEND",
        "REPRO_DC_TILE",
        "REPRO_WORKERS",
        "REPRO_APPROX",
        "REPRO_OPTIMIZE",
    ):
        monkeypatch.delenv(var, raising=False)
    yield


class TestFromEnvDefaults:
    def test_unset_variables_keep_defaults(self):
        config = EngineConfig.from_env()
        assert config == EngineConfig()

    def test_valid_values_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        monkeypatch.setenv("REPRO_DC_TILE", "512")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        config = EngineConfig.from_env()
        assert config.backend == "python"
        assert config.dc_tile == 512
        assert config.workers == 3


class TestBackendKnob:
    CONSTRUCTOR_MESSAGE = "backend must be 'auto', 'python' or 'numpy', got"

    def test_constructor_message(self):
        with pytest.raises(ValueError, match=self.CONSTRUCTOR_MESSAGE):
            EngineConfig(backend="nmupy")

    def test_from_env_matches_constructor_message(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "nmupy")
        with pytest.raises(KernelBackendError) as excinfo:
            EngineConfig.from_env()
        assert self.CONSTRUCTOR_MESSAGE in str(excinfo.value)
        assert "'nmupy'" in str(excinfo.value)
        assert "$REPRO_BACKEND" in str(excinfo.value)

    def test_resolution_path_matches_too(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "nmupy")
        with pytest.raises(KernelBackendError) as excinfo:
            kernels.active_backend_name()
        assert self.CONSTRUCTOR_MESSAGE in str(excinfo.value)
        assert "$REPRO_BACKEND" in str(excinfo.value)


class TestDcTileKnob:
    CONSTRUCTOR_MESSAGE = "dc_tile must be a positive integer, got"

    def test_constructor_message(self):
        with pytest.raises(ValueError, match=self.CONSTRUCTOR_MESSAGE):
            EngineConfig(dc_tile=0)

    @pytest.mark.parametrize("bad", ["zero", "0", "-4", "4.5"])
    def test_from_env_matches_constructor_message(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_DC_TILE", bad)
        with pytest.raises(ValueError) as excinfo:
            EngineConfig.from_env()
        assert self.CONSTRUCTOR_MESSAGE in str(excinfo.value)
        assert repr(bad) in str(excinfo.value) or bad in str(excinfo.value)
        assert "$REPRO_DC_TILE" in str(excinfo.value)

    def test_resolution_path_matches_too(self, monkeypatch):
        monkeypatch.setenv("REPRO_DC_TILE", "zero")
        with pytest.raises(ValueError) as excinfo:
            settings.get("dc_tile")
        assert self.CONSTRUCTOR_MESSAGE in str(excinfo.value)
        assert "$REPRO_DC_TILE" in str(excinfo.value)


class TestWorkersKnob:
    CONSTRUCTOR_MESSAGE = "workers must be a non-negative integer, got"

    def test_constructor_message(self):
        with pytest.raises(ValueError, match=self.CONSTRUCTOR_MESSAGE):
            EngineConfig(workers=-1)

    @pytest.mark.parametrize("bad", ["many", "-2", "1.5"])
    def test_from_env_matches_constructor_message(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(ValueError) as excinfo:
            EngineConfig.from_env()
        assert self.CONSTRUCTOR_MESSAGE in str(excinfo.value)
        assert "$REPRO_WORKERS" in str(excinfo.value)

    def test_resolution_path_matches_too(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError) as excinfo:
            settings.get("workers")
        assert self.CONSTRUCTOR_MESSAGE in str(excinfo.value)
        assert "$REPRO_WORKERS" in str(excinfo.value)


class TestApproxKnob:
    CONSTRUCTOR_MESSAGE = "approx must be 'exact' or 'sketch', got"

    def test_constructor_message(self):
        with pytest.raises(ValueError, match=self.CONSTRUCTOR_MESSAGE):
            EngineConfig(approx="bogus")

    def test_from_env_matches_constructor_message(self, monkeypatch):
        monkeypatch.setenv("REPRO_APPROX", "bogus")
        with pytest.raises(ValueError) as excinfo:
            EngineConfig.from_env()
        assert self.CONSTRUCTOR_MESSAGE in str(excinfo.value)
        assert "'bogus'" in str(excinfo.value)
        assert "$REPRO_APPROX" in str(excinfo.value)

    def test_resolution_path_matches_too(self, monkeypatch):
        monkeypatch.setenv("REPRO_APPROX", "bogus")
        with pytest.raises(ValueError) as excinfo:
            settings.get("approx")
        assert self.CONSTRUCTOR_MESSAGE in str(excinfo.value)
        assert "$REPRO_APPROX" in str(excinfo.value)


class TestOptimizeKnob:
    CONSTRUCTOR_MESSAGE = "optimize must be 'on' or 'off', got"

    def test_constructor_message(self):
        with pytest.raises(ValueError, match=self.CONSTRUCTOR_MESSAGE):
            EngineConfig(optimize="maybe")

    def test_from_env_matches_constructor_message(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPTIMIZE", "maybe")
        with pytest.raises(ValueError) as excinfo:
            EngineConfig.from_env()
        assert self.CONSTRUCTOR_MESSAGE in str(excinfo.value)
        assert "'maybe'" in str(excinfo.value)
        assert "$REPRO_OPTIMIZE" in str(excinfo.value)

    def test_resolution_path_matches_too(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPTIMIZE", "maybe")
        with pytest.raises(ValueError) as excinfo:
            settings.get("optimize")
        assert self.CONSTRUCTOR_MESSAGE in str(excinfo.value)
        assert "$REPRO_OPTIMIZE" in str(excinfo.value)


@pytest.mark.parametrize(
    ("name", "env", "text", "parsed", "override"),
    [
        ("backend", "REPRO_BACKEND", "python", "python", "auto"),
        ("dc_tile", "REPRO_DC_TILE", "512", 512, 64),
        ("workers", "REPRO_WORKERS", "3", 3, 0),
        ("approx", "REPRO_APPROX", "sketch", "sketch", "exact"),
        ("optimize", "REPRO_OPTIMIZE", "off", "off", "on"),
    ],
)
class TestNoneRemovesOverride:
    def test_set_none_restores_env(
        self, monkeypatch, name, env, text, parsed, override
    ):
        monkeypatch.setenv(env, text)
        settings.set(**{name: override})
        assert settings.get(name) == override
        settings.set(**{name: None})
        assert settings.get(name) == parsed

    def test_after_activate(self, monkeypatch, name, env, text, parsed, override):
        monkeypatch.setenv(env, text)
        EngineConfig(backend="python").activate()
        settings.set(**{name: None})
        assert settings.get(name) == parsed
