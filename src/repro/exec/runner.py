"""Fan grid points out over a process pool, deterministically.

:class:`ParallelRunner` is the execution engine behind
``analysis.sweep.sweep(..., workers=, cache=, base_seed=)``.  The
contract that everything here serves: **a parallel or cached run
returns byte-identical results to the serial run** —

* results come back in grid order no matter which worker finished
  first (outcomes are slotted by index, never by completion);
* per-point RNG seeds are derived from the point itself
  (:func:`~repro.exec.seeding.derive_seed`), not from shared stream
  state, so scheduling cannot perturb stochastic sweeps;
* under ``on_error='raise'`` the *earliest failing grid point's*
  exception propagates, exactly as the serial loop would raise it,
  even if a later point failed first on the wall clock;
* cache hits short-circuit evaluation entirely, and only values that
  round-trip exactly are ever cached (see :mod:`repro.exec.cache`);
* every point runs on the simulation engine it is keyed under, and any
  engine but the exact ``"numpy"`` kernel forks the cache version
  (``<version>+<engine>``), so approximate and exact runs never share
  an entry.

Worker functions must be picklable (defined at module top level) when
``workers > 1``; the runner checks up front and raises a
:class:`~repro.errors.ConfigurationError` naming the offender instead
of letting the pool die with an opaque ``PicklingError``.
"""

from __future__ import annotations

import contextlib
import os
import pickle
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ExecError
from ..telemetry import MetricsRegistry
from ..vectorize import resolve_engine, use_backend
from .cache import ResultCache, code_version_tag, function_id
from .seeding import derive_seed

__all__ = ["ParallelRunner", "PointOutcome"]


@dataclass(frozen=True)
class PointOutcome:
    """What happened at one grid point."""

    index: int
    params: Dict[str, object]
    value: object
    error: Optional[str] = None
    seed: Optional[int] = None
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


def _call_point(fn: Callable[..., object], params: Mapping[str, object],
                seed: Optional[int], seed_param: str) -> object:
    kwargs = dict(params)
    if seed is not None:
        kwargs[seed_param] = seed
    return fn(**kwargs)


def _pool_task(payload: Tuple) -> Tuple:
    """Worker-side wrapper; must stay at module level for pickling.

    Exceptions are captured rather than raised so the parent can pick
    the *grid-earliest* failure deterministically.  The exception
    object rides along when it pickles; otherwise only its string
    survives the trip home.  The engine rides in the payload because a
    spawned or forkserver worker does not inherit the parent's
    :func:`~repro.vectorize.use_backend` default.
    """
    fn, index, params, seed, seed_param, engine = payload
    try:
        with use_backend(engine):
            value = _call_point(fn, params, seed, seed_param)
        return index, value, None, None
    except Exception as exc:  # noqa: BLE001 - transported to the parent
        transportable: Optional[BaseException] = exc
        try:
            pickle.dumps(exc)
        except Exception:  # noqa: BLE001 - fall back to the string
            transportable = None
        return index, None, str(exc), transportable


def _ensure_picklable(fn: Callable[..., object]) -> None:
    try:
        pickle.dumps(fn)
    except Exception as exc:  # noqa: BLE001 - any pickle failure mode
        name = getattr(fn, "__qualname__", repr(fn))
        raise ConfigurationError(
            f"swept function {name!r} is not picklable ({exc}); "
            "workers>1 needs a function defined at module top level "
            "(no lambdas, closures or locally-defined functions)")


class ParallelRunner:
    """Evaluate parameter points serially or across a process pool.

    Parameters
    ----------
    workers:
        Pool size; ``None``/``0``/``1`` evaluates inline, serially.
    cache:
        Optional :class:`ResultCache` (a str/PathLike is wrapped in
        one); hits skip evaluation, misses are stored after evaluation
        (in the parent — workers never touch the cache directory).
    base_seed:
        When given, each point's call receives
        ``seed_param=derive_seed(base_seed, params)``.
    code_version:
        Override for the cache's code-version tag (default: a hash of
        the function's source via
        :func:`~repro.exec.cache.code_version_tag`).
    mp_context:
        Optional :mod:`multiprocessing` context for the pool.
    engine:
        Simulation engine every point runs on, in pool workers too;
        None resolves the process default at each :meth:`map`.  Any
        engine but ``"numpy"`` appends ``+<engine>`` to the version.
    metrics:
        Shared registry for the runner's counters (component
        ``exec.runner``); defaults to the cache's registry, else a
        fresh one.
    on_outcome:
        Optional observer called with each :class:`PointOutcome` as it
        lands (cache hits at discovery, evaluated points on
        completion).  Called in the parent process, in *completion*
        order — an observability hook (progress streaming, live
        dashboards), never part of result identity: ``map`` still
        returns grid order regardless.
    """

    COMPONENT = "exec.runner"

    def __init__(self, workers: Optional[int] = None, *,
                 cache: Optional[ResultCache] = None,
                 base_seed: Optional[int] = None,
                 seed_param: str = "seed",
                 code_version: Optional[str] = None,
                 mp_context=None,
                 engine: Optional[str] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 on_outcome: Optional[
                     Callable[[PointOutcome], None]] = None) -> None:
        self.workers = max(1, int(workers or 1))
        if isinstance(cache, (str, os.PathLike)):
            cache = ResultCache(cache, metrics=metrics)
        self.cache = cache
        self.base_seed = base_seed
        self.seed_param = seed_param
        self.code_version = code_version
        self.mp_context = mp_context
        self.engine = engine
        if metrics is not None:
            self.metrics = metrics
        elif cache is not None:
            self.metrics = cache.metrics
        else:
            self.metrics = MetricsRegistry()
        self.on_outcome = on_outcome
        self._points = self.metrics.counter("points",
                                            component=self.COMPONENT)
        self._evaluated = self.metrics.counter("evaluated",
                                               component=self.COMPONENT)
        self._failures = self.metrics.counter("failures",
                                              component=self.COMPONENT)

    # -- public API -----------------------------------------------------------
    def map(self, fn: Callable[..., object],
            points: Sequence[Mapping[str, object]], *,
            catch_errors: bool = False) -> List[PointOutcome]:
        """Outcomes for every point, in input order."""
        jobs = [dict(p) for p in points]
        self._pool_errors: Dict[int, BaseException] = {}
        self._stats_base = self._snapshot()
        self._points.inc(len(jobs))
        seeds: List[Optional[int]] = [
            derive_seed(self.base_seed, p) if self.base_seed is not None
            else None
            for p in jobs
        ]
        engine = resolve_engine(self.engine)
        if self.cache is not None:
            fn_id = function_id(fn)
            version = (self.code_version if self.code_version is not None
                       else code_version_tag(fn))
            if engine != "numpy":
                version = f"{version}+{engine}"

        outcomes: List[Optional[PointOutcome]] = [None] * len(jobs)
        pending: List[int] = []
        keys: List[Optional[str]] = [None] * len(jobs)
        for i, (params, seed) in enumerate(zip(jobs, seeds)):
            if self.cache is not None:
                keys[i] = self.cache.key(fn_id, params, seed, version)
                entry = self.cache.load(keys[i])
                if entry is not None:
                    outcomes[i] = PointOutcome(
                        index=i, params=params,
                        value=entry.get("value"),
                        error=entry.get("error"),
                        seed=seed, cached=True)
                    self._observe(outcomes[i])
                    continue
            pending.append(i)

        if self.workers > 1 and len(pending) > 1:
            evaluated = self._run_pool(fn, jobs, seeds, pending, engine)
        else:
            # Without a named engine the process default already is
            # ``engine``; leaving that global alone keeps threaded
            # callers (``repro serve``'s job threads) off it.
            with (use_backend(engine) if self.engine is not None
                  else contextlib.nullcontext()):
                evaluated = self._run_serial(fn, jobs, seeds, pending,
                                             catch_errors)
        for i, outcome in evaluated.items():
            outcomes[i] = outcome
            # Error entries are only cached under on_error='record':
            # a raise-mode run must re-raise the original exception
            # type, which a replayed entry cannot reconstruct.
            if (self.cache is not None and keys[i] is not None
                    and (outcome.ok or catch_errors)):
                self.cache.store(keys[i], fn_id=fn_id,
                                 params=outcome.params, seed=outcome.seed,
                                 version=version, value=outcome.value,
                                 error=outcome.error)

        result = [o for o in outcomes if o is not None]
        if len(result) != len(jobs):  # pragma: no cover - invariant guard
            raise ExecError("runner lost grid points; this is a bug")
        for outcome in result:
            if not outcome.ok:
                self._failures.inc()
        if not catch_errors:
            self._raise_earliest(result)
        return result

    def _observe(self, outcome: PointOutcome) -> None:
        if self.on_outcome is not None:
            self.on_outcome(outcome)

    def _snapshot(self) -> Dict[str, int]:
        out = {
            "points": int(self._points.value),
            "evaluated": int(self._evaluated.value),
            "failures": int(self._failures.value),
        }
        if self.cache is not None:
            out.update({f"cache_{k}": v
                        for k, v in self.cache.stats().items()
                        if k != "entries"})
        return out

    def stats(self) -> Dict[str, int]:
        """Counters for the most recent :meth:`map` call.

        The underlying telemetry registry keeps cumulative totals (the
        cache may be shared across many sweeps); this reports the
        delta since the call started, plus the pool size.
        """
        base = getattr(self, "_stats_base", {})
        out = {k: v - base.get(k, 0) for k, v in self._snapshot().items()}
        out["workers"] = self.workers
        if self.cache is not None:
            out["cache_entries"] = len(self.cache)
        return out

    # -- execution strategies -------------------------------------------------
    def _run_serial(self, fn, jobs, seeds, pending,
                    catch_errors: bool) -> Dict[int, PointOutcome]:
        evaluated: Dict[int, PointOutcome] = {}
        for i in pending:
            self._evaluated.inc()
            try:
                value = _call_point(fn, jobs[i], seeds[i], self.seed_param)
                evaluated[i] = PointOutcome(index=i, params=jobs[i],
                                            value=value, seed=seeds[i])
            except Exception as exc:  # noqa: BLE001 - recorded or re-raised
                if not catch_errors:
                    raise
                evaluated[i] = PointOutcome(index=i, params=jobs[i],
                                            value=None, error=str(exc),
                                            seed=seeds[i])
            self._observe(evaluated[i])
        return evaluated

    def _run_pool(self, fn, jobs, seeds, pending,
                  engine: str) -> Dict[int, PointOutcome]:
        _ensure_picklable(fn)
        evaluated: Dict[int, PointOutcome] = {}
        errors: Dict[int, BaseException] = {}
        workers = min(self.workers, len(pending))
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=self.mp_context) as pool:
            futures = {
                pool.submit(_pool_task, (fn, i, jobs[i], seeds[i],
                                         self.seed_param, engine))
                for i in pending
            }
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining,
                                       return_when=FIRST_COMPLETED)
                for future in done:
                    self._evaluated.inc()
                    i, value, error, exc = future.result()
                    evaluated[i] = PointOutcome(index=i, params=jobs[i],
                                                value=value, error=error,
                                                seed=seeds[i])
                    self._observe(evaluated[i])
                    if exc is not None:
                        errors[i] = exc
        self._pool_errors = errors
        return evaluated

    def _raise_earliest(self, outcomes: List[PointOutcome]) -> None:
        """Re-raise the first (grid-order) failure, serial-style."""
        for outcome in outcomes:
            if outcome.ok:
                continue
            exc = getattr(self, "_pool_errors", {}).get(outcome.index)
            if exc is not None:
                raise exc
            raise ExecError(
                f"grid point {outcome.params} failed: {outcome.error}")
