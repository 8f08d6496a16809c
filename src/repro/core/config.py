"""Configuration of the CB repair search.

The defaults follow the paper exactly; every knob corresponds to a
paragraph of Section 4:

* ``stop_at_first`` — §4.4: "the stop condition of the algorithm can be
  easily changed to end when the first repair is found"; with the queue
  order used, that first repair is also a *minimal* one.
* ``max_added_attributes`` — a bound on ``|U|``; ``None`` explores the
  whole search space as the paper's "find all repairs" mode does.
* ``goodness_threshold`` + ``goodness_mode`` — the §4.4 "future work"
  extension: a user-specified maximum goodness used to privilege (or
  outright exclude) repairs whose |goodness| stays under the threshold,
  discouraging UNIQUE-attribute repairs.
* ``exclude_unique`` — the blunt version of the same idea: never offer a
  UNIQUE attribute as a repair candidate (Section 3 explains why such
  repairs are undesirable).
* ``max_expansions`` — a safety budget on queue pops for benchmarking
  very wide relations; ``None`` means unbounded (paper behaviour).

:class:`EngineConfig` is the engine-level companion: a typed view over
the process-wide knobs of :mod:`repro.settings` (kernel backend, cache
bounds, DC tile, worker count, approx and optimize modes).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

from repro import settings
from repro.relational import kernels

__all__ = ["EngineConfig", "GoodnessMode", "RepairConfig"]


@dataclass(frozen=True)
class EngineConfig:
    """Engine-level settings, one field per knob of :mod:`repro.settings`.

    * ``backend`` — the kernel backend: ``"auto"`` (numpy when
      installed, else python), ``"python"`` or ``"numpy"``;
    * ``partition_cache_size`` / ``delta_track_limit`` — per-relation
      bounds on cached stripped partitions and delta-maintained group
      trackers; ``None`` means unbounded;
    * ``dc_tile`` — the edge length (representative rows) of the DC
      evidence engine's pair-space blocks: larger tiles amortize kernel
      dispatch, smaller ones bound peak memory;
    * ``workers`` — the morsel pool width: 0 is serial, the
      byte-identical oracle; 1 also runs inline; 2 or more fans work
      units across a process pool (numpy) or a thread pool (python);
    * ``approx`` — the profiling estimators: ``"exact"`` kernels or
      ``"sketch"`` (:mod:`repro.sketch`);
    * ``optimize`` — the query optimizer and zone-map chunk skipping:
      ``"on"``, or ``"off"``, the oracle the equivalence suite compares
      against.

    Construction validates each field with its knob's parser and keeps
    the canonical spelling; :meth:`activate` installs every field as a
    :mod:`repro.settings` override.
    """

    backend: str = "auto"
    partition_cache_size: int | None = 8192
    delta_track_limit: int | None = 64
    dc_tile: int = 4096
    workers: int = 0
    approx: str = "exact"
    optimize: str = "on"

    def __post_init__(self) -> None:
        for name, value in self._knobs().items():
            parsed = settings._parse(name, value, "EngineConfig")
            if getattr(self, name) is not None:
                object.__setattr__(self, name, parsed)

    def _knobs(self) -> dict[str, object]:
        """The fields as settings; an unbounded cache is ``math.inf``."""
        knobs = {field.name: getattr(self, field.name) for field in fields(self)}
        for name in ("partition_cache_size", "delta_track_limit"):
            if knobs[name] is None:
                knobs[name] = math.inf
        return knobs

    @classmethod
    def from_env(cls) -> "EngineConfig":
        """The config the ``REPRO_*`` environment variables select.

        Unset variables keep the defaults; an invalid value raises the
        constructor's message naming the variable, so misconfiguration
        surfaces at startup, not deep in a request.
        """
        names = [field.name for field in fields(cls)]
        with settings.use(**dict.fromkeys(names)):
            values = settings.snapshot()
        return cls(**{name: values[name] for name in names})

    def resolve(self) -> str:
        """The concrete backend name this config would run on."""
        if self.backend == "auto":
            return "numpy" if kernels.numpy_available() else "python"
        return self.backend

    def activate(self) -> None:
        """Install this config's choices process-wide (as overrides)."""
        settings.set(**self._knobs())


class GoodnessMode(enum.Enum):
    """How a configured goodness threshold is applied to exact repairs."""

    #: Repairs over the threshold are kept but ranked after every repair
    #: within it (the paper's "privilege" wording).
    PREFER = "prefer"
    #: Repairs over the threshold are dropped entirely.
    EXCLUDE = "exclude"


class CandidateOrder(enum.Enum):
    """How one-step candidates are ranked (ablation knob).

    The paper's ranking (§4.2) is confidence descending with |goodness|
    ascending as the secondary key.  The alternatives exist so the
    ordering ablation bench can quantify what each ingredient buys:

    * ``CONFIDENCE_ONLY`` drops the goodness tie-break — same repairs
      found, but ties resolve arbitrarily (by name), so the *first*
      repair may be a UNIQUE-ish attribute the paper's ranking avoids;
    * ``NAME`` drops ranking altogether (alphabetical) — the search is
      still correct but no longer guided, exploring more nodes before
      the first repair in stop-at-first mode.
    """

    RANK = "rank"
    CONFIDENCE_ONLY = "confidence-only"
    NAME = "name"


@dataclass(frozen=True)
class RepairConfig:
    """Immutable settings for one repair search."""

    stop_at_first: bool = False
    max_added_attributes: int | None = None
    goodness_threshold: int | None = None
    goodness_mode: GoodnessMode = GoodnessMode.PREFER
    exclude_unique: bool = False
    max_expansions: int | None = None
    #: Conflict-score convention for FD ordering (see DESIGN.md §3).
    include_self_in_conflict: bool = False
    #: Candidate ranking policy (ablation knob; paper = RANK).
    candidate_order: CandidateOrder = CandidateOrder.RANK

    def __post_init__(self) -> None:
        if self.max_added_attributes is not None and self.max_added_attributes < 1:
            raise ValueError("max_added_attributes must be >= 1 or None")
        if self.goodness_threshold is not None and self.goodness_threshold < 0:
            raise ValueError("goodness_threshold must be >= 0 or None")
        if self.max_expansions is not None and self.max_expansions < 1:
            raise ValueError("max_expansions must be >= 1 or None")

    # Convenience presets -------------------------------------------------
    @classmethod
    def find_first(cls, **overrides) -> "RepairConfig":
        """The paper's first-repair mode (minimal repair, early stop)."""
        overrides.setdefault("stop_at_first", True)
        return cls(**overrides)

    @classmethod
    def find_all(cls, **overrides) -> "RepairConfig":
        """The paper's find-all-repairs mode (full search-space walk)."""
        overrides.setdefault("stop_at_first", False)
        return cls(**overrides)

    def within_threshold(self, goodness: int) -> bool:
        """Whether a repair with this goodness passes the threshold."""
        if self.goodness_threshold is None:
            return True
        return abs(goodness) <= self.goodness_threshold
