"""RunContext: the *how* of an experiment run.

A spec says *what* to run; a :class:`RunContext` says *how* — pool
size, result cache, artifact directory, tracer, metrics registry, and
the seed tree.  The same spec executed through any context yields the
same numbers; contexts only change speed and observability.  That
separation (run description vs. run configuration) follows the
run/config split of reproducible-workflow frameworks: the spec travels
in a repo, the context is a property of the machine running it.

Seed tree
---------
The context derives every subsystem seed from the spec's root seed via
:func:`repro.exec.seeding.derive_seed` on a labelled path::

    ctx.bind(spec.seed)
    ctx.seed("scenario")          # stable, collision-free 64-bit seeds
    ctx.seed("sweep", "point", 3)

so adding a new consumer of randomness never shifts anyone else's
stream — the property that makes "same spec + seed ⇒ same manifest
digest" hold as the system grows.
"""

from __future__ import annotations

import os
import pathlib
from typing import Callable, Dict, Mapping, Optional

from ..errors import ConfigurationError
from ..exec.cache import DEFAULT_CACHE_DIR, ResultCache
from ..exec.runner import ParallelRunner
from ..exec.seeding import derive_seed
from ..telemetry import MetricsRegistry, ensure_tracer
from ..vectorize import resolve_engine

__all__ = ["RunContext", "DEFAULT_RUNS_DIR"]

#: Default root for per-run artifact directories.
DEFAULT_RUNS_DIR = "runs"


def _pool_size(value: object, source: str) -> int:
    """``value`` as a pool size, or a ConfigurationError naming
    ``source`` (exit 2 from the CLI) when it is not an integer >= 1."""
    try:
        workers = int(value)
    except (TypeError, ValueError):
        workers = 0
    if workers < 1:
        raise ConfigurationError(
            f"{source} must be an integer >= 1, got {value!r}")
    return workers


def _usable_dir(path: os.PathLike | str, what: str, *,
                create: bool) -> pathlib.Path:
    """Check, and with ``create`` make, a writable directory up front,
    so a bad path fails before a run rather than at its first write."""
    path = pathlib.Path(path)
    try:
        if create:
            path.mkdir(parents=True, exist_ok=True)
        existing = next(p for p in (path, *path.parents) if p.exists())
    except OSError as exc:
        raise ConfigurationError(
            f"{what} {str(path)!r} is not a usable directory: {exc}")
    if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
        raise ConfigurationError(
            f"{what} {str(path)!r} is not a usable directory: "
            f"{str(existing)!r} is not a writable directory")
    return path


class RunContext:
    """Execution environment for :func:`repro.experiment.run_experiment`.

    Parameters
    ----------
    workers:
        Process-pool size for sweep fan-out; ``None``/``0``/``1`` runs
        serially.  Results are byte-identical either way.
    cache:
        A :class:`~repro.exec.cache.ResultCache`, a directory path to
        create one at, or None.  Applies uniformly: sweep grid points
        *and* whole scenario runs are cached.
    artifacts:
        Directory to write run artifacts (spec/result/manifest) under;
        defaults to ``runs/<spec name>/``.  None plus ``persist=False``
        keeps everything in memory.
    trace:
        ``True`` for a fresh tracer or an existing
        :class:`~repro.telemetry.Tracer`; rides into scenario runs.
        Traced scenario runs bypass the result cache (a cache hit could
        not replay the events).
    metrics:
        Shared :class:`~repro.telemetry.MetricsRegistry`; the cache and
        runner counters land here so one registry shows the whole run.
    backend:
        Simulation engine for the run — any
        :data:`repro.vectorize.SIM_ENGINES` member, validated here so a
        typo fails at context construction, not mid-run.  None (default)
        defers to :func:`repro.vectorize.resolve_engine` at execution
        time.  The approximate tier ("fluid"/"hybrid") can change
        results where the exact "numpy" kernel does not, so the resolved
        engine is recorded in the manifest's run section and joins the
        scenario cache identity.
    progress:
        Optional observer ``fn(event, fields)`` for live run progress
        — per-point completions land here as ``("point", {...})`` in
        completion order.  Pure observability: results and manifest
        digests are identical with or without it (how
        :mod:`repro.serve` streams partial results without touching
        run identity).  Exceptions from the observer propagate — a
        broken observer should fail loudly, not silently skew what an
        operator sees.
    """

    def __init__(self, *, workers: Optional[int] = None,
                 cache: Optional[ResultCache | str | os.PathLike] = None,
                 artifacts: Optional[os.PathLike | str] = None,
                 trace=None,
                 metrics: Optional[MetricsRegistry] = None,
                 backend: Optional[str] = None,
                 progress: Optional[Callable[
                     [str, Mapping[str, object]], None]] = None) -> None:
        self.workers = max(1, int(workers or 1))
        self.backend = resolve_engine(backend) if backend is not None else None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if isinstance(cache, (str, os.PathLike)):
            cache = ResultCache(_usable_dir(cache, "cache", create=True),
                                metrics=self.metrics)
        self.cache = cache
        self.artifacts = (_usable_dir(artifacts, "artifact directory",
                                      create=False)
                          if artifacts is not None else None)
        self.tracer = ensure_tracer(trace)
        self.progress = progress
        self._root_seed: Optional[int] = None

    @classmethod
    def from_env(cls, *, default_workers: int = 1,
                 **overrides) -> "RunContext":
        """A context from ``overrides`` over the environment knobs — the
        one place run settings are read from the environment.

        A knob absent from ``overrides`` (or None there) comes from its
        variable: ``REPRO_WORKERS`` the pool size (else
        ``default_workers``), ``REPRO_CACHE`` the cache (``1`` = default
        ``.repro-cache/``, ``0`` or empty = none, anything else = the
        directory) and ``REPRO_BACKEND`` the simulation engine.  Pool
        sizes from either source must be integers >= 1, and an unusable
        cache or artifact directory is rejected here: each failure is a
        :class:`~repro.errors.ConfigurationError` (exit 2 from the CLI)
        before anything runs.
        """
        env = os.environ
        settings = {k: v for k, v in overrides.items() if v is not None}
        if "workers" in settings:
            settings["workers"] = _pool_size(settings["workers"], "workers")
        else:
            value = env.get("REPRO_WORKERS", "")
            settings["workers"] = (_pool_size(value, "REPRO_WORKERS")
                                   if value else default_workers)
        if "cache" not in settings:
            value = env.get("REPRO_CACHE", "")
            if value and value != "0":
                settings["cache"] = (DEFAULT_CACHE_DIR if value == "1"
                                     else value)
        if "backend" not in settings and env.get("REPRO_BACKEND"):
            settings["backend"] = env["REPRO_BACKEND"]
        return cls(**settings)

    def resolved_backend(self) -> str:
        """The engine this context's runs execute on: the explicit
        ``backend`` knob, else the process default (which itself honors
        ``REPRO_BACKEND``)."""
        return resolve_engine(self.backend)

    # -- seed tree ------------------------------------------------------------
    def bind(self, root_seed: int) -> "RunContext":
        """Anchor the seed tree at a spec's root seed; returns self."""
        self._root_seed = int(root_seed)
        return self

    @property
    def root_seed(self) -> int:
        if self._root_seed is None:
            raise ConfigurationError(
                "RunContext has no root seed; call bind(spec.seed) first")
        return self._root_seed

    def seed(self, *path: object) -> int:
        """A stable 64-bit seed for the labelled ``path`` under the root.

        Pure function of ``(root_seed, path)`` — order-sensitive,
        scheduling-independent, identical in every worker process.
        """
        if not path:
            return self.root_seed
        return derive_seed(self.root_seed,
                           {"path": [str(p) for p in path]})

    # -- execution plumbing ---------------------------------------------------
    def emit_progress(self, event: str, **fields: object) -> None:
        """Hand an observability event to the progress observer (if any)."""
        if self.progress is not None:
            self.progress(event, fields)

    def point_observer(self):
        """The ``on_outcome``/``on_point`` callback for this context's
        progress observer, or None when no one is listening."""
        if self.progress is None:
            return None

        def observe(outcome) -> None:
            self.emit_progress("point", index=outcome.index,
                               cached=outcome.cached, ok=outcome.ok)
        return observe

    def runner(self, *, base_seed: Optional[int] = None,
               seed_param: str = "seed",
               code_version: Optional[str] = None,
               cached: bool = True) -> ParallelRunner:
        """A :class:`ParallelRunner` wired to this context's knobs."""
        return ParallelRunner(
            self.workers,
            cache=self.cache if cached else None,
            base_seed=base_seed,
            seed_param=seed_param,
            code_version=code_version,
            metrics=self.metrics,
            on_outcome=self.point_observer(),
        )

    def artifact_dir(self, name: str) -> pathlib.Path:
        """The (created) artifact directory for a run of spec ``name``."""
        root = (self.artifacts if self.artifacts is not None
                else pathlib.Path(DEFAULT_RUNS_DIR) / name)
        root.mkdir(parents=True, exist_ok=True)
        return root

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (cache + runner) for manifests and CLIs."""
        out: Dict[str, int] = {}
        for metric in self.metrics:
            if getattr(metric, "kind", "") != "counter":
                continue
            label = (f"{metric.component}.{metric.name}"
                     if metric.component else metric.name)
            out[label] = int(metric.value)
        return out
