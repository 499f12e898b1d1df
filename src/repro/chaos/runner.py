"""Campaign execution: sample, fan out, check oracles, shrink, report.

:func:`run_campaign` is the ``"campaign"`` spec runner registered with
:func:`repro.experiment.spec.register_spec_kind` — running a
:class:`~repro.chaos.spec.CampaignSpec` through
:func:`~repro.experiment.run_experiment` (or ``repro chaos`` / ``repro
run``) lands here.  Each sampled schedule executes through the same
:class:`~repro.exec.runner.ParallelRunner` fan-out the sweeps use, so
campaigns inherit the whole exec contract for free: byte-identical
results serial vs. pooled, content-addressed caching, deterministic
error ordering.

The worker function :func:`_campaign_point` is the unit of caching: one
schedule in, one JSON record out — the scenario outcome summary, every
oracle violation, and the optional DTN transfer-probe record.
:func:`replay` judges one given schedule the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, ReproError
from ..exec.seeding import canonical_json, derive_seed
from ..experiment.manifest import package_code_version
from ..experiment.runner import RunOutput, _outcome_payload
from ..experiment.spec import ExperimentSpec, ScenarioSpec, register_spec_kind
from .oracles import (
    ProfileTimeline,
    RunObservation,
    default_oracles,
    evaluate_oracles,
    get_oracle,
)
from .sample import sample_schedules
from .shrink import shrink_schedule
from .spec import CampaignSpec, OracleSpec, TransferProbeSpec

__all__ = ["CampaignResult", "ScheduleRecord", "replay", "run_campaign"]


@dataclass(frozen=True)
class ScheduleRecord:
    """One schedule's spec plus everything its run produced."""

    index: int
    spec: ScenarioSpec
    summary: Dict[str, object]
    violations: Dict[str, List[str]]
    transfer: Optional[Dict[str, object]]
    cached: bool = False
    #: ddmin result when the schedule failed and shrinking ran.
    minimal: Optional[ScenarioSpec] = None

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class CampaignResult:
    """In-process value of a campaign run (``RunResult.value``)."""

    spec: CampaignSpec
    report: Dict[str, object]
    records: List[ScheduleRecord] = field(default_factory=list)

    @property
    def failed(self) -> List[ScheduleRecord]:
        return [r for r in self.records if not r.ok]


def _oracle_items(oracles: Sequence[OracleSpec]
                  ) -> List[Tuple[str, Dict[str, object]]]:
    """``oracles`` resolved (() = the defaults), names checked up front."""
    if oracles:
        items = [(o.name, o.param_mapping()) for o in oracles]
    else:
        items = [(name, {}) for name in default_oracles()]
    for name, _ in items:
        get_oracle(name)  # raises ConfigurationError with known names
    return items


def _transfer_record(parsed: ScenarioSpec, probe: TransferProbeSpec,
                     scenario) -> Dict[str, object]:
    """Run the post-horizon DTN probe, taxonomizing every ending."""
    from ..dtn.transfer import Dataset, TransferPlan
    from ..units import GB

    bundle = scenario.bundle
    record: Dict[str, object] = {
        "max_duration_s": probe.max_duration_s,
        "tool": probe.tool,
    }
    try:
        if not bundle.dtns:
            raise ConfigurationError(
                f"design {parsed.design!r} has no DTN to probe from")
        plan = TransferPlan(
            bundle.topology, bundle.dtns[0], bundle.remote_dtn,
            Dataset("chaos-probe", GB(probe.size_gb),
                    file_count=probe.files),
            probe.tool, policy=bundle.science_policy)
        rng = np.random.default_rng(
            derive_seed(parsed.seed, {"probe": "transfer"}))
        report = plan.execute(rng)
    except ReproError as exc:
        record.update(status="failed", is_repro_error=True,
                      error_type=type(exc).__name__, error=str(exc))
    except Exception as exc:  # noqa: BLE001 - the oracle wants these too
        record.update(status="crashed", is_repro_error=False,
                      error_type=type(exc).__name__, error=str(exc))
    else:
        record.update(
            status="completed",
            duration_s=float(report.duration.s),
            effective_gbps=float(report.effective_rate.gbps),
            limiting_factor=report.limiting_factor,
        )
    return record


def _campaign_point(spec: str, oracles: str,
                    transfer: str) -> Dict[str, object]:
    """Run one sampled schedule and judge it against the oracles.

    All three parameters are JSON strings so the exec cache can key
    them canonically and a pool worker can receive them unpickled.
    Module-level by the same rule as every other swept function.
    """
    from ..scenario import Scenario
    from ..units import seconds

    parsed = ExperimentSpec.from_json(spec)
    oracle_items = [(name, params)
                    for name, params in json.loads(oracles)]
    probe_data = json.loads(transfer)

    scenario = Scenario.from_spec(parsed)
    timeline = ProfileTimeline.install(scenario, parsed)
    outcome = scenario.run(until=seconds(parsed.until_s))
    mesh = scenario.mesh
    transfer_record = None
    if probe_data is not None:
        transfer_record = _transfer_record(
            parsed, TransferProbeSpec.from_dict(probe_data), scenario)
    cache_ledger = None
    if "cache_workload" in scenario.bundle.extras:
        # Imported here, not at module top: chaos must not depend on the
        # federation package unless the design actually carries caches.
        from ..federation.sim import replay_design_workload
        cache_ledger = replay_design_workload(
            scenario.bundle, outcome, parsed.seed)
    obs = RunObservation(
        spec=parsed,
        outcome=outcome,
        timeline=timeline,
        packet_ledger=list(mesh.packet_ledger),
        unreachable=[(t, pair) for t, pair in mesh.unreachable_events],
        transfer=transfer_record,
        caches=cache_ledger,
    )
    violations = evaluate_oracles(obs, oracle_items)
    result: Dict[str, object] = {
        "summary": _outcome_payload(outcome),
        "violations": {name: list(msgs)
                       for name, msgs in sorted(violations.items())},
        "transfer": transfer_record,
    }
    if cache_ledger is not None:
        result["summary"]["cache"] = {
            "hit_rate": cache_ledger["hit_rate"],
            "delivered_bytes": cache_ledger["delivered_bytes"],
            "origin_bytes": cache_ledger["origin_bytes"],
            "cache_served_bytes": cache_ledger["cache_served_bytes"],
            "corrupted_nodes": list(cache_ledger["corrupted_nodes"]),
        }
    return result


def _judge(runner, schedules: Sequence[ScenarioSpec], oracle_items: list,
           transfer: Optional[TransferProbeSpec]) -> list:
    """Run ``schedules`` as :func:`_campaign_point` calls on ``runner``:
    the one place a schedule's point parameters are built."""
    oracles = canonical_json([[name, params]
                              for name, params in oracle_items])
    probe = canonical_json(None if transfer is None else transfer.to_dict())
    return runner.map(_campaign_point, [
        {"spec": s.to_json(), "oracles": oracles, "transfer": probe}
        for s in schedules])


def _schedule_fault_payload(spec: ScenarioSpec) -> List[Dict[str, object]]:
    return [
        {"kind": f.kind, "node": f.node, "at_s": f.at_s}
        for f in spec.faults
    ] + [
        {"kind": "link-cut", "node": f"{c.a}--{c.b}", "at_s": c.at_s}
        for c in spec.link_cuts
    ]


def run_campaign(spec: CampaignSpec, ctx, version: str):
    """Execute a campaign; the ``"campaign"`` spec-runner entry point.

    Returns a :class:`~repro.experiment.runner.RunOutput` whose
    artifacts are the report and the shrunk repro specs.  The payload
    (= report core, = ``report.json`` minus nothing) deliberately
    contains no code
    version, timings, worker counts or cache stats, so its digest is
    identical across serial/pooled and cold/warm runs — that digest is
    what the CI smoke job and the golden gate compare.
    """
    from .report import build_report

    tracer = ctx.tracer
    oracle_items = _oracle_items(spec.oracles)

    schedules = sample_schedules(spec)
    if tracer.enabled:
        tracer.event("chaos", "campaign-start", name=spec.name,
                     schedules=len(schedules),
                     oracles=[name for name, _ in oracle_items])

    runner = ctx.runner(code_version=version)
    outcomes = _judge(runner, schedules, oracle_items, spec.transfer)

    records: List[ScheduleRecord] = []
    for i, (schedule, outcome) in enumerate(zip(schedules, outcomes)):
        result = outcome.value
        records.append(ScheduleRecord(
            index=i, spec=schedule,
            summary=dict(result["summary"]),
            violations={k: list(v)
                        for k, v in result["violations"].items()},
            transfer=result.get("transfer"),
            cached=outcome.cached,
        ))
        if tracer.enabled and records[-1].violations:
            tracer.event("chaos", "schedule-failed", schedule=schedule.name,
                         oracles=sorted(records[-1].violations))
    failing = [r for r in records if not r.ok]
    if tracer.enabled:
        tracer.counter("schedules", component="chaos").inc(len(records))
        tracer.counter("violations", component="chaos").inc(
            sum(len(msgs) for r in records
                for msgs in r.violations.values()))

    extra_artifacts: Dict[str, object] = {}
    if spec.shrink and failing:
        def evaluate(candidates: Sequence[ScenarioSpec]
                     ) -> List[Dict[str, List[str]]]:
            outs = _judge(runner, candidates, oracle_items, spec.transfer)
            return [o.value["violations"] for o in outs]

        for record in failing[:spec.max_shrink]:
            minimal = shrink_schedule(record.spec,
                                      set(record.violations), evaluate)
            minimal = replace(minimal, name=f"{record.spec.name}-min",
                              description=(
                                  f"ddmin of {record.spec.name}: minimal "
                                  f"fault set still violating "
                                  f"{sorted(record.violations)}"))
            records[record.index] = replace(record, minimal=minimal)
            artifact = f"repro-{record.spec.name}.json"
            extra_artifacts[artifact] = minimal.to_dict()
            if tracer.enabled:
                tracer.event(
                    "chaos", "shrunk", schedule=record.spec.name,
                    from_faults=len(_schedule_fault_payload(record.spec)),
                    to_faults=len(_schedule_fault_payload(minimal)),
                    artifact=artifact)

    report = build_report(spec, records, oracle_items)
    extra_artifacts["report.json"] = report

    summary = {
        "schedules": len(records),
        "failed": len(failing),
        "violations": sum(len(msgs) for r in records
                          for msgs in r.violations.values()),
        "oracles": len(oracle_items),
        "shrunk": sum(1 for r in records if r.minimal is not None),
    }
    if tracer.enabled:
        tracer.event("chaos", "campaign-end", **summary)
    value = CampaignResult(spec=spec, report=report, records=records)
    return RunOutput(report, summary, value, artifacts=extra_artifacts)


def replay(spec: ScenarioSpec, oracles: Sequence[OracleSpec], ctx
           ) -> Tuple[List[str], Dict[str, object]]:
    """Judge one schedule against ``oracles`` (() = the defaults).

    ``spec`` is a concrete schedule, e.g. a shrunk ``repro-*.json``
    artifact; it runs with the worker function, exec runner and cache
    key a campaign gives it.  Returns the judged oracle names and the
    point's record (``summary``, ``violations``, ``transfer``).
    """
    oracle_items = _oracle_items(oracles)
    outcome, = _judge(ctx.runner(code_version=package_code_version()),
                      [spec], oracle_items, None)
    return [name for name, _ in oracle_items], outcome.value


def _render_campaign(result) -> str:
    from .report import render_report

    return render_report(result.payload)


register_spec_kind(CampaignSpec, run_campaign, _render_campaign)
