"""The settings registry itself: snapshot, scoping and validation."""

from __future__ import annotations

import pytest

from repro import settings


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for var in ("REPRO_DC_TILE", "REPRO_WORKERS"):
        monkeypatch.delenv(var, raising=False)


def test_snapshot_reads_every_knob():
    values = settings.snapshot()
    assert set(values) == {
        "backend",
        "dc_tile",
        "workers",
        "morsel_timeout",
        "approx",
        "optimize",
        "partition_cache_size",
        "delta_track_limit",
    }
    settings.set(dc_tile=64)
    assert settings.snapshot()["dc_tile"] == 64


def test_use_restores_every_override():
    settings.set(workers=2)
    with settings.use(dc_tile=64):
        settings.set(workers=3)
        assert settings.get("workers") == 3
    assert settings.get("workers") == 2
    assert settings.get("dc_tile") == 4096


def test_bad_value_installs_nothing():
    with pytest.raises(ValueError, match="workers must be"):
        settings.set(dc_tile=64, workers=-1)
    assert settings.get("dc_tile") == 4096


def test_unknown_knob_rejected():
    with pytest.raises(TypeError, match="unknown setting 'tile'"):
        settings.set(tile=64)


def test_text_spellings_normalize():
    settings.set(backend=" Python ", dc_tile="128")
    assert settings.get("backend") == "python"
    assert settings.get("dc_tile") == 128
