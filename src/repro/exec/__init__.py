"""Execution engine: parallel sweeps with a content-addressed cache.

The analysis layer's grids (``analysis.sweep``) and all 21 benchmark
scripts were serial; this package makes "regenerate every figure" run
as fast as the hardware allows while staying **bit-for-bit
reproducible**:

- :mod:`repro.exec.seeding` — canonical JSON encoding and
  scheduling-independent per-point seed derivation;
- :mod:`repro.exec.cache` — :class:`ResultCache`, a content-addressed
  on-disk store (``sha256(fn + params + seed + code version)`` →
  JSON entry under ``.repro-cache/``) with telemetry counters;
- :mod:`repro.exec.runner` — :class:`ParallelRunner`, the process-pool
  fan-out with grid-order restoration and deterministic error
  propagation.

Most callers never touch this package directly — they pass
``workers=``/``cache=``/``base_seed=`` to
:func:`repro.analysis.sweep.sweep`, set ``REPRO_WORKERS`` /
``REPRO_CACHE`` for the benchmark harness, or run
``python -m repro.cli sweep``.  See ``docs/execution.md``.
"""

from .cache import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    cache_key,
    code_version_tag,
    function_id,
)
from .runner import ParallelRunner, PointOutcome
from .seeding import canonical_json, derive_seed

__all__ = [
    "ParallelRunner",
    "PointOutcome",
    "ResultCache",
    "cache_key",
    "code_version_tag",
    "function_id",
    "canonical_json",
    "derive_seed",
    "DEFAULT_CACHE_DIR",
]
