"""Process-wide engine settings: one table of knobs.

Every engine-level knob is one :class:`Knob` row — its name, the
environment variable that sets it (if any), the parser that validates
it, and its default.  A read resolves, in order:

1. an override installed by :func:`set` (or scoped by :func:`use`);
2. the knob's environment variable, when it has one and it is non-empty;
3. the knob's default.

Passing ``None`` for a knob to :func:`set` or :func:`use` removes its
override, so the environment variable applies again.  Each knob's
parser raises one message for every source, ending in the source it
came from (``$REPRO_WORKERS``, ``set()``, ``EngineConfig``), so a typo in
a unit file reads the same as a typo in code.

:class:`repro.core.config.EngineConfig` is the typed view over these
knobs: its :meth:`~repro.core.config.EngineConfig.activate` is
:func:`set` with every field.  The knob table, with each knob's
readers, is the *Engine settings* section of ``README.md``.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

__all__ = ["get", "set", "snapshot", "use"]


@dataclass(frozen=True)
class Knob:
    """One setting: where it comes from and how it is validated.

    ``parse(value, source)`` returns the canonical value or raises; it
    accepts the value's text spelling too, which is how the
    environment variable reaches it.
    """

    name: str
    env: str | None
    parse: Callable[[Any, str], Any]
    default: Any


def _choice(name: str, choices: tuple[str, ...]) -> Callable[[Any, str], str]:
    spelled = ", ".join(map(repr, choices[:-1])) + f" or {choices[-1]!r}"

    def parse(value: Any, source: str) -> str:
        normalized = value.strip().lower() if isinstance(value, str) else value
        if normalized not in choices:
            raise ValueError(
                f"{name} must be {spelled}, got {value!r} (from {source})"
            )
        return normalized

    return parse


def _integer(name: str, minimum: int, what: str) -> Callable[[Any, str], int]:
    def parse(value: Any, source: str) -> int:
        number = value
        if isinstance(value, str):
            try:
                number = int(value)
            except ValueError:
                number = None
        if isinstance(number, bool) or not isinstance(number, int) or number < minimum:
            raise ValueError(f"{name} must be {what}, got {value!r} (from {source})")
        return number

    return parse


def _bound(name: str) -> Callable[[Any, str], int | float]:
    """A cache bound: a positive integer, or ``math.inf`` for none."""
    count = _integer(name, 1, "a positive integer or math.inf")

    def parse(value: Any, source: str) -> int | float:
        return value if value == math.inf else count(value, source)

    return parse


_backend_name = _choice("backend", ("auto", "python", "numpy"))


def _backend(value: Any, source: str) -> str:
    # Imported here: the kernel layer reads this module at import time.
    from repro.relational.errors import KernelBackendError
    from repro.relational.kernels import numpy_available

    try:
        name = _backend_name(value, source)
    except ValueError as error:
        raise KernelBackendError(str(value), str(error)) from None
    if name == "numpy" and not numpy_available():
        raise KernelBackendError(
            "numpy",
            f"NumPy is not installed (requested via {source}); "
            "install the [fast] extra or select the python backend",
        )
    return name


def _timeout(value: Any, source: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
        raise ValueError(
            f"morsel timeout must be a positive number, got {value!r} (from {source})"
        )
    return float(value)


_KNOBS = {
    knob.name: knob
    for knob in (
        Knob("backend", "REPRO_BACKEND", _backend, "auto"),
        Knob(
            "dc_tile",
            "REPRO_DC_TILE",
            _integer("dc_tile", 1, "a positive integer"),
            4096,
        ),
        Knob(
            "workers",
            "REPRO_WORKERS",
            _integer("workers", 0, "a non-negative integer"),
            0,
        ),
        Knob("morsel_timeout", None, _timeout, None),
        Knob("approx", "REPRO_APPROX", _choice("approx", ("exact", "sketch")), "exact"),
        Knob("optimize", "REPRO_OPTIMIZE", _choice("optimize", ("on", "off")), "on"),
        # Per-relation partition LRU.  Generous: a 30-attribute discovery
        # at LHS <= 3 caches C(30,1) + C(30,2) + C(30,3) = 4525 sets and
        # must not thrash.
        Knob("partition_cache_size", None, _bound("partition_cache_size"), 8192),
        # Per-relation delta trackers.  The monitoring path tracks a
        # handful of sets per watched FD, so 64 covers about 20 FDs.
        Knob("delta_track_limit", None, _bound("delta_track_limit"), 64),
    )
}

#: Installed overrides; a value here is never ``None``.
_overrides: dict[str, Any] = {}


def _parse(name: str, value: Any, source: str) -> Any:
    """Validate ``value`` for knob ``name`` (per-call arguments use this)."""
    return _KNOBS[name].parse(value, source)


def get(name: str) -> Any:
    """The value of knob ``name``: override, else environment, else default."""
    value = _overrides.get(name)
    if value is not None:
        return value
    knob = _KNOBS[name]
    raw = os.environ.get(knob.env) if knob.env else None
    if raw:
        return knob.parse(raw, f"${knob.env}")
    return knob.default


def set(**knobs: Any) -> None:
    """Install overrides; ``None`` removes a knob's override.

    Every value is validated before any is installed, so a bad value
    leaves all settings as they were.
    """
    unknown = knobs.keys() - _KNOBS.keys()
    if unknown:
        raise TypeError(f"unknown setting {sorted(unknown)[0]!r}")
    parsed = {
        name: _parse(name, value, "set()")
        for name, value in knobs.items()
        if value is not None
    }
    for name in knobs:
        _overrides.pop(name, None)
    _overrides.update(parsed)


@contextmanager
def use(**knobs: Any) -> Iterator[None]:
    """Scoped :func:`set`: on exit every override is as it was on entry."""
    saved = dict(_overrides)
    set(**knobs)
    try:
        yield
    finally:
        _overrides.clear()
        _overrides.update(saved)


def snapshot() -> dict[str, Any]:
    """The value every knob reads now, by name."""
    return {name: get(name) for name in _KNOBS}

