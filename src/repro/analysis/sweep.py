"""Parameter sweeps: the benches' grid machinery, reusable.

:func:`sweep` evaluates a function over the cartesian product of named
parameter grids and collects results into a :class:`ResultTable` plus raw
records, so ablation studies ("loss x RTT x algorithm") are three lines:

>>> from repro.analysis.sweep import sweep
>>> result = sweep(lambda x, y: x * y, {"x": [1, 2], "y": [10, 20]})
>>> [r.value for r in result.records]
[10, 20, 20, 40]

Grids can fan out over a process pool and reuse cached points — the
results are byte-identical to the serial run (see
:mod:`repro.exec` and ``docs/execution.md``)::

    from repro.exec import ResultCache
    result = sweep(fn, grid, workers=4, cache=ResultCache())
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..errors import ConfigurationError
from .tables import ResultTable

__all__ = ["SweepRecord", "SweepResult", "sweep"]


@dataclass(frozen=True)
class SweepRecord:
    """One grid point and its outcome."""

    params: Dict[str, object]
    value: object
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepResult:
    """All grid points, with table rendering."""

    param_names: List[str]
    records: List[SweepRecord] = field(default_factory=list)
    value_label: str = "value"
    #: Execution counters (points/evaluated/cache hits...) from the
    #: :class:`repro.exec.ParallelRunner` every sweep runs through;
    #: :func:`sweep` always sets them.  Excluded from equality so a
    #: cached and a computed run still compare equal record-for-record.
    stats: Optional[Dict[str, int]] = field(default=None, compare=False,
                                            repr=False)

    def table(self, title: str = "sweep", *,
              status: Optional[bool] = None) -> ResultTable:
        """Render the grid.

        Failed points are reported through a dedicated ``status``
        column driven by each record's ``ok`` flag — never by
        formatting the value cell — so a legitimate string value that
        happens to start with ``"error:"`` can't masquerade as a
        failure (nor vice versa).  The column appears automatically
        when the sweep has failures; pass ``status=True``/``False`` to
        force it on or off.
        """
        include_status = (any(not r.ok for r in self.records)
                          if status is None else status)
        columns = self.param_names + [self.value_label]
        if include_status:
            columns = columns + ["status"]
        table = ResultTable(title, columns)
        for record in self.records:
            cells = [record.params[k] for k in self.param_names]
            cells.append(record.value if record.ok else "-")
            if include_status:
                cells.append("ok" if record.ok
                             else f"error: {record.error}")
            table.add_row(cells)
        return table

    def values(self) -> List[object]:
        """Outcomes of the successful points, in grid order."""
        return [r.value for r in self.records if r.ok]

    def best(self, key: Callable[[object], float], *,
             maximize: bool = True) -> SweepRecord:
        """The grid point optimizing ``key`` over successful outcomes."""
        candidates = [r for r in self.records if r.ok]
        if not candidates:
            raise ConfigurationError("sweep produced no successful points")
        return (max if maximize else min)(
            candidates, key=lambda r: key(r.value))

    def failures(self) -> List[SweepRecord]:
        return [r for r in self.records if not r.ok]


def sweep(
    fn: Callable[..., object],
    grid: Mapping[str, Sequence[object]],
    *,
    value_label: str = "value",
    catch_errors: bool = False,
    on_error: Optional[str] = None,
    workers: Optional[int] = None,
    cache: Optional[object] = None,
    base_seed: Optional[int] = None,
    seed_param: str = "seed",
    code_version: Optional[str] = None,
    mp_context=None,
    metrics=None,
    on_point=None,
) -> SweepResult:
    """Evaluate ``fn(**point)`` over the cartesian product of ``grid``.

    Parameters
    ----------
    fn:
        Called with one keyword argument per grid dimension.  Must be
        picklable (module top level) when ``workers > 1``.
    grid:
        ``{param_name: [values...]}``.  Order of keys defines column and
        iteration order (last key varies fastest).
    catch_errors:
        When True, exceptions from ``fn`` become failed records instead
        of propagating — useful for sweeps that intentionally cross into
        invalid regions (e.g. oversubscribed reservations).
    on_error:
        Explicit spelling of the same choice: ``"raise"`` propagates the
        first exception (in grid order, even under ``workers``),
        ``"record"`` turns each into a failed record.  Overrides
        ``catch_errors`` when given.
    workers:
        Process-pool size; ``None``/``0``/``1`` runs serially.  Results
        are restored to grid order and are byte-identical to the
        serial run.
    cache:
        Optional :class:`repro.exec.ResultCache` or a directory path
        (str/PathLike) to create one at; previously computed
        points are loaded instead of re-evaluated, new points are
        stored.  Hit/miss counters land in the cache's telemetry
        registry and in ``SweepResult.stats``.
    base_seed:
        When given, each call receives a derived, per-point seed as
        keyword ``seed_param`` (``seed`` by default) — stable across
        runs and independent of worker scheduling.
    code_version:
        Override for the cache's code-version tag; defaults to a hash
        of ``fn``'s source, so editing ``fn`` invalidates its entries.
    mp_context:
        Optional :mod:`multiprocessing` context for the pool.
    metrics:
        Optional shared :class:`~repro.telemetry.MetricsRegistry` the
        engine counters land in — lets a
        :class:`~repro.experiment.RunContext` aggregate sweep, cache
        and scenario counters in one place.
    on_point:
        Optional observer called with each
        :class:`~repro.exec.PointOutcome` as it completes (completion
        order, parent process) — how the experiment service streams
        per-point progress.

    Every sweep runs through :class:`~repro.exec.ParallelRunner`, which
    evaluates each point on the process-default simulation engine
    (:func:`~repro.vectorize.resolve_engine`), in pool workers too.
    """
    if on_error is not None:
        if on_error not in ("raise", "record"):
            raise ConfigurationError(
                f"on_error must be 'raise' or 'record', got {on_error!r}")
        catch_errors = on_error == "record"
    if not grid:
        raise ConfigurationError("sweep needs at least one parameter")
    names = list(grid.keys())
    for name, values in grid.items():
        if not values:
            raise ConfigurationError(f"parameter {name!r} has no values")
    if seed_param in names and base_seed is not None:
        raise ConfigurationError(
            f"grid already has a {seed_param!r} dimension; it would "
            "collide with the derived per-point seed")
    result = SweepResult(param_names=names, value_label=value_label)
    points = [dict(zip(names, combo))
              for combo in itertools.product(*(grid[n] for n in names))]

    from ..exec import ParallelRunner
    runner = ParallelRunner(workers, cache=cache, base_seed=base_seed,
                            seed_param=seed_param,
                            code_version=code_version,
                            mp_context=mp_context,
                            metrics=metrics,
                            on_outcome=on_point)
    for outcome in runner.map(fn, points, catch_errors=catch_errors):
        result.records.append(SweepRecord(
            params=outcome.params, value=outcome.value,
            error=outcome.error))
    result.stats = runner.stats()
    return result
