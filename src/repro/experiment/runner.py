"""Execute an :class:`ExperimentSpec` and write its provenance.

:func:`run_experiment` is the one door every run shape goes through.
It looks the spec's kind up in the one kind registry
(:func:`~repro.experiment.spec.register_spec_kind`) and calls the
runner registered there; the built-in kinds register below exactly as
``campaign`` and ``federation`` do in their own packages:

* **scenario** specs run as a single *grid point* through the same
  :class:`~repro.exec.runner.ParallelRunner` the sweeps use — which is
  what finally puts whole scenario runs behind the content-addressed
  :class:`~repro.exec.cache.ResultCache`: rerun the §2 timeline with an
  unchanged spec, seed and code version and the outcome is a disk read;
* **sweep** specs resolve their registered target and fan out with the
  context's workers/cache, per-point seeds derived from the spec seed;
* **bench** specs time their pinned scenarios via :mod:`repro.bench`,
  each reported as a ``"scenario"`` progress event (timings land in the
  manifest's run section: they are provenance, not identity).

Every run produces the same artifact set (``spec.json``,
``result.json``, ``manifest.json``) and a :class:`RunManifest` whose
digest is identical across serial, parallel and cache-warm executions
of the same spec — the property the golden-replay CI job gates on.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..errors import ConfigurationError
from ..exec.seeding import canonical_json
from ..vectorize import use_backend
from .context import RunContext
from .manifest import RunManifest, package_code_version
from .registry import sweep_target
from .spec import (BenchSpec, ExperimentSpec, ScenarioSpec, SweepSpec,
                   register_spec_kind, spec_kind)

__all__ = ["RunOutput", "RunResult", "run_experiment"]


@dataclass
class RunOutput:
    """What every registered runner returns.

    ``payload`` is the JSON-able result record (``result.json``, and
    what the result digest covers); ``summary`` the manifest's outcome
    summary; ``value`` the richer in-process object, if any.  Both
    artifact maps hold JSON documents by file name: ``artifacts`` are
    deterministic and join the manifest's digested artifact set (a
    campaign report); ``run_artifacts`` are written and hashed only when
    the run persists, outside the digest (bench timings).  ``timings``
    land in the manifest's run section.
    """

    payload: Dict[str, object]
    summary: Dict[str, object]
    value: object = None
    artifacts: Dict[str, object] = field(default_factory=dict)
    run_artifacts: Dict[str, object] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)


@dataclass
class RunResult:
    """What a spec run handed back.

    ``payload`` is the JSON-able result record (what ``result.json``
    holds and what the result digest covers).  ``value`` is the richer
    in-process object when one exists — a
    :class:`~repro.analysis.sweep.SweepResult`, the bench suite
    payload, or (for *traced* scenario runs only) the
    :class:`~repro.scenario.ScenarioOutcome`.  Untraced scenario runs
    go through the exec engine — possibly a worker process or the
    cache — so only their JSON payload comes back.
    """

    spec: ExperimentSpec
    manifest: RunManifest
    payload: Dict[str, object]
    value: object = None
    artifact_dir: Optional[str] = None
    manifest_path: Optional[str] = None

    @property
    def cached(self) -> bool:
        """True when a scenario run was answered by the result cache."""
        return bool(self.manifest.stats.get("exec.cache.hits"))


def _outcome_payload(outcome) -> Dict[str, object]:
    """A ScenarioOutcome as a strict-JSON record (cacheable, hashable)."""
    first = outcome.first_alert()
    return {
        "duration_s": float(outcome.duration.s),
        "measurements": int(outcome.archive.count()),
        "alerts": len(outcome.alerts),
        "first_alert_s": None if first is None else float(first.time),
        "faults": len(outcome.faults),
        "detected": sum(1 for d in outcome.detection_delays.values()
                        if d is not None),
        "detection_delays_s": {
            str(idx): None if delay is None else float(delay)
            for idx, delay in sorted(outcome.detection_delays.items())
        },
    }


def _scenario_point(spec: str) -> Dict[str, object]:
    """Run one scenario spec end to end; module-level so the exec
    engine can fingerprint, cache and (in principle) ship it to a pool
    exactly like any sweep target."""
    return _outcome_payload(_run_timeline(ExperimentSpec.from_json(spec)))


def _run_timeline(spec: ScenarioSpec, trace=None):
    """Build ``spec``'s scenario and run it to its horizon."""
    from ..scenario import Scenario
    from ..units import seconds

    return Scenario.from_spec(spec).run(until=seconds(spec.until_s),
                                        trace=trace)


def _run_scenario(spec: ScenarioSpec, ctx: RunContext, version: str):
    if ctx.tracer.enabled:
        # A cache hit could not replay trace events, so traced runs
        # execute in-process and skip the cache entirely.
        outcome = _run_timeline(spec, ctx.tracer)
        payload = _outcome_payload(outcome)
        return RunOutput(payload, payload, outcome)
    runner = ctx.runner(code_version=version)
    outcomes = runner.map(_scenario_point, [{"spec": spec.to_json()}])
    payload = outcomes[0].value
    return RunOutput(payload, payload)


def _run_sweep(spec: SweepSpec, ctx: RunContext, version: str):
    from ..analysis.sweep import sweep

    target = sweep_target(spec.target)
    if spec.seeded and not target.seeded:
        raise ConfigurationError(
            f"spec {spec.name!r} asks for per-point seeds but target "
            f"{spec.target!r} is registered without a seed parameter")
    target.check_grid(spec.grid, seeded=spec.seeded)
    result = sweep(
        target.fn,
        spec.grid_mapping(),
        value_label=spec.value_label,
        on_error=spec.on_error,
        workers=ctx.workers,
        cache=ctx.cache,
        base_seed=spec.seed if spec.seeded else None,
        code_version=version,
        metrics=ctx.metrics,
        on_point=ctx.point_observer(),
    )
    payload = {
        "param_names": list(result.param_names),
        "value_label": result.value_label,
        "records": [
            {"params": dict(r.params), "value": r.value, "error": r.error}
            for r in result.records
        ],
    }
    summary = {
        "target": spec.target,
        "points": len(result.records),
        "ok": sum(1 for r in result.records if r.ok),
        "failed": sum(1 for r in result.records if not r.ok),
    }
    return RunOutput(payload, summary, result)


def _render_sweep(result) -> str:
    return result.value.table(result.spec.name).render_text()


def _run_bench(spec: BenchSpec, ctx: RunContext, version: str):
    from .. import bench

    suite = bench.run_suite(
        list(spec.scenarios), repeats=spec.repeats, quick=spec.quick,
        progress=lambda name, seconds: ctx.emit_progress(
            "scenario", name=name, seconds=seconds))
    payload = {
        "scenarios": sorted(suite["results"]),
        "repeats": spec.repeats,
        "quick": spec.quick,
        "bench_schema": suite["schema"],
    }
    summary = {"scenarios": len(suite["results"]), "repeats": spec.repeats,
               "quick": spec.quick}
    timings = {name: float(seconds)
               for name, seconds in sorted(suite["results"].items())}
    timings["calibration"] = float(suite["calibration"])
    return RunOutput(payload, summary, suite,
                     run_artifacts={"timings.json": suite}, timings=timings)


def _pretty_bytes(data: object) -> bytes:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    return text.encode("utf-8")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_experiment(spec: ExperimentSpec,
                   context: Optional[RunContext] = None, *,
                   persist: bool = True) -> RunResult:
    """Run ``spec`` through ``context`` and record its manifest.

    Parameters
    ----------
    spec:
        Any :class:`~repro.experiment.spec.ExperimentSpec` kind.
    context:
        Execution knobs; defaults to a serial, uncached, untraced
        :class:`RunContext` (the manifest digest is the same either
        way — that is the point).
    persist:
        Write ``spec.json`` / ``result.json`` / ``manifest.json`` into
        the context's artifact directory.  Artifact *hashes* are
        computed from the exact bytes regardless, so a non-persisted
        run still produces the identical manifest digest.
    """
    ctx = context if context is not None else RunContext()
    ctx.bind(spec.seed)
    version = package_code_version()
    stats_before = ctx.stats()
    started = time.perf_counter()

    run = spec_kind(spec.kind).run
    # An explicit context backend becomes the process default for the
    # duration of the run, so every kernel the spec reaches — including
    # traced in-process scenarios and serial sweep points — resolves it.
    with (use_backend(ctx.backend) if ctx.backend is not None
          else contextlib.nullcontext()):
        out = run(spec, ctx, version)
    timings = dict(out.timings)
    timings["elapsed_s"] = round(time.perf_counter() - started, 6)

    files = {"spec.json": _pretty_bytes(spec.to_dict()),
             "result.json": _pretty_bytes(out.payload)}
    for name, doc in sorted(out.artifacts.items()):
        files[name] = _pretty_bytes(doc)
    stats_after = ctx.stats()
    delta = {k: v - stats_before.get(k, 0) for k, v in stats_after.items()
             if v - stats_before.get(k, 0)}
    manifest = RunManifest(
        kind=spec.kind,
        name=spec.name,
        spec_digest=spec.digest(),
        code_version=version,
        seed=spec.seed,
        result_digest=_sha256(
            canonical_json(out.payload).encode("utf-8")),
        summary=out.summary,
        artifacts={name: _sha256(data) for name, data in files.items()},
        timings=timings,
        stats=delta,
        workers=ctx.workers,
        backend=ctx.resolved_backend(),
    )

    artifact_dir = None
    manifest_path = None
    if persist:
        out_dir = ctx.artifact_dir(spec.name)
        for name, data in files.items():
            (out_dir / name).write_bytes(data)
        for name, doc in sorted(out.run_artifacts.items()):
            data = _pretty_bytes(doc)
            (out_dir / name).write_bytes(data)
            manifest.run_artifacts[name] = _sha256(data)
        manifest_path = manifest.write(out_dir / "manifest.json")
        artifact_dir = str(out_dir)

    return RunResult(spec=spec, manifest=manifest, payload=out.payload,
                     value=out.value, artifact_dir=artifact_dir,
                     manifest_path=manifest_path)


register_spec_kind(ScenarioSpec, _run_scenario)
register_spec_kind(SweepSpec, _run_sweep, _render_sweep)
register_spec_kind(BenchSpec, _run_bench)
