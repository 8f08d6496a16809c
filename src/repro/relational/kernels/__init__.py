"""Backend-selectable kernel layer for the relational engine.

Every hot primitive of the engine — dictionary encoding, stripped
partition construction/refinement, distinct counting, the entropy sums
of the EB baseline, and violating-pair counting — is implemented twice:

* :mod:`repro.relational.kernels.python_backend` — the reference
  implementation, pure stdlib loops over ``list[int]`` code columns
  (the exact code the engine ran before the kernel layer existed);
* :mod:`repro.relational.kernels.numpy_backend` — vectorized kernels
  over ``int64`` arrays (argsort + run-length grouping instead of dict
  building), available when NumPy is installed (the ``[fast]`` extra).

Both backends expose the same module-level functions (see
``python_backend`` for the canonical signatures) and produce
*semantically identical* results: the same partitions, the same counts,
the same entropies.  The property-test suite pins that equivalence,
including NULL rows and the all-singleton/all-duplicate edge cases.

The backend is the ``backend`` knob of :mod:`repro.settings`:
``python``, ``numpy`` or ``auto`` (the default: the numpy backend when
NumPy imports, else python).  Requesting ``numpy`` without NumPy
installed raises :class:`~repro.relational.errors.KernelBackendError`;
``auto`` falls back silently, so a stdlib-pure install keeps working
unchanged.

Backends are resolved per *operation*, not per relation: a relation's
partition cache stores whichever representation the backend active at
build time produced.  The two partition representations interoperate
(either side of ``refine``/``product`` accepts the other), so switching
backends mid-session degrades gracefully instead of invalidating
caches.
"""

from __future__ import annotations

from types import ModuleType

from repro import settings

__all__ = [
    "available_backends",
    "backend_module",
    "get_backend",
    "active_backend_name",
    "numpy_available",
]

#: Cached result of the NumPy import probe (``None`` = not probed yet).
_numpy_probe: bool | None = None


def numpy_available() -> bool:
    """Whether the numpy backend can be used (NumPy imports)."""
    global _numpy_probe
    if _numpy_probe is None:
        try:
            import numpy  # noqa: F401

            _numpy_probe = True
        except ImportError:
            _numpy_probe = False
    return _numpy_probe


def available_backends() -> tuple[str, ...]:
    """Names of the backends usable in this environment."""
    if numpy_available():
        return ("python", "numpy")
    return ("python",)


def _concrete(name: str) -> str:
    if name == "auto":
        return "numpy" if numpy_available() else "python"
    return name


def active_backend_name() -> str:
    """The concrete backend (``python``/``numpy``) the setting selects now."""
    return _concrete(settings.get("backend"))


def get_backend() -> ModuleType:
    """The active kernel backend module (resolved per call)."""
    if active_backend_name() == "numpy":
        from . import numpy_backend

        return numpy_backend
    from . import python_backend

    return python_backend


def backend_module(name: str) -> ModuleType:
    """The backend module for a concrete name (``python``/``numpy``).

    The parallel layer ships the *resolved* backend name to pool
    workers and resolves it here, so a worker process always runs the
    exact backend its parent exported state for — independent of the
    worker's own environment-based resolution.
    """
    requested = settings._parse("backend", name, "backend_module()")
    if _concrete(requested) == "numpy":
        from . import numpy_backend

        return numpy_backend
    from . import python_backend

    return python_backend
