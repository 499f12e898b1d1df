"""Experiments as data: specs, run contexts, and provenance manifests.

Any paper figure is one portable JSON file plus one command.  The three
historic run shapes — :class:`~repro.scenario.Scenario` timelines,
:func:`repro.analysis.sweep.sweep` grids, and :mod:`repro.bench` timing
suites — all construct themselves *from* a serializable
:class:`ExperimentSpec` and execute *through* one :class:`RunContext`,
so the exec layer's process pool, content-addressed result cache and
telemetry counters apply uniformly instead of only to sweeps:

* :mod:`repro.experiment.spec` — :class:`ExperimentSpec` and its kinds
  (``scenario`` / ``sweep`` / ``bench``) with lossless JSON round-trip,
  and the one kind registry (:func:`register_spec_kind`: class, runner,
  renderer) that built-in and extension kinds share;
* :mod:`repro.experiment.registry` — the name→factory maps specs refer
  to (designs, faults, sweep targets);
* :mod:`repro.experiment.context` — :class:`RunContext`: workers,
  cache, tracer, artifact directory, and the derive-seeded seed tree;
* :mod:`repro.experiment.manifest` — :class:`RunManifest`: spec digest,
  code-version tag, per-artifact hashes, timings, outcome summary;
* :mod:`repro.experiment.runner` — :func:`run_experiment`.

Quick start::

    from repro.experiment import ExperimentSpec, RunContext, run_experiment

    spec = ExperimentSpec.from_file("specs/linecard_softfail.json")
    result = run_experiment(spec, RunContext(cache=".repro-cache"))
    print(result.manifest.digest())     # same every run, warm or cold

or, without writing Python: ``python -m repro.cli run <spec.json>``.
See ``docs/experiments.md``.
"""

from .context import RunContext
from .manifest import RunManifest, file_sha256, package_code_version
from .registry import (
    DESIGNS,
    FAULTS,
    SWEEP_TARGETS,
    SweepTarget,
    build_design,
    build_fault,
    register_sweep_target,
    sweep_target,
)
from .runner import RunOutput, RunResult, run_experiment
from .spec import (
    SPEC_SCHEMA_VERSION,
    AlertRuleSpec,
    BenchSpec,
    ExperimentSpec,
    FaultSpec,
    LinkCutSpec,
    MAX_MESH_SESSIONS,
    MeshSpec,
    ScenarioSpec,
    SpecKind,
    SpecRecord,
    SweepSpec,
    load_spec,
    register_spec_kind,
    registered_spec_kinds,
    spec_kind,
    spec_kinds,
)

__all__ = [
    "ExperimentSpec",
    "ScenarioSpec",
    "SweepSpec",
    "BenchSpec",
    "MeshSpec",
    "MAX_MESH_SESSIONS",
    "FaultSpec",
    "LinkCutSpec",
    "AlertRuleSpec",
    "SPEC_SCHEMA_VERSION",
    "load_spec",
    "register_spec_kind",
    "registered_spec_kinds",
    "spec_kind",
    "spec_kinds",
    "SpecKind",
    "SpecRecord",
    "RunContext",
    "RunOutput",
    "RunResult",
    "RunManifest",
    "run_experiment",
    "package_code_version",
    "file_sha256",
    "DESIGNS",
    "FAULTS",
    "SWEEP_TARGETS",
    "SweepTarget",
    "build_design",
    "build_fault",
    "register_sweep_target",
    "sweep_target",
]
