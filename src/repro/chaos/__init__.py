"""repro.chaos — deterministic, seedable fault campaigns with oracles.

The paper argues a Science DMZ stays *operable under faults* because
test-and-measurement is built into the design (§3.3, §5).  This
package turns that claim into a checkable artifact: a frozen
:class:`CampaignSpec` describes a fault space over a base design; the
campaign runner samples N fault schedules from the seed tree, executes
each through the exec engine (parallel, cached, bit-reproducible), and
judges every run against registered invariant **oracles** — packets
conserved, event time monotonic, throughput below true capacity,
Mathis ceiling respected, lossy faults detected within bound, the mesh
never silent, transfers terminating with taxonomized errors.

Failing schedules shrink (greedy ddmin) to a minimal fault set and
emit a replayable spec artifact; the campaign report aggregates
survival curves and an oracle-violation table.

Importing this module registers the ``"campaign"`` spec kind and its
runner, so ``ExperimentSpec.from_dict``/``run_experiment`` resolve it
lazily without :mod:`repro.experiment` depending on this package.
"""

from .oracles import (
    ORACLES,
    Oracle,
    PathState,
    ProfileTimeline,
    RunObservation,
    check_bounded,
    check_monotonic,
    default_oracles,
    evaluate_oracles,
    get_oracle,
    register_oracle,
)
from .report import build_report, render_report
from .runner import CampaignResult, ScheduleRecord, replay, run_campaign
from .sample import sample_schedule, sample_schedules, schedule_seed
from .shrink import candidate_removals, shrink_schedule
from .spec import CampaignSpec, FaultSpaceSpec, OracleSpec, TransferProbeSpec

__all__ = [
    "ORACLES",
    "CampaignResult",
    "CampaignSpec",
    "FaultSpaceSpec",
    "Oracle",
    "OracleSpec",
    "PathState",
    "ProfileTimeline",
    "RunObservation",
    "ScheduleRecord",
    "TransferProbeSpec",
    "build_report",
    "candidate_removals",
    "check_bounded",
    "check_monotonic",
    "default_oracles",
    "evaluate_oracles",
    "get_oracle",
    "register_oracle",
    "render_report",
    "replay",
    "run_campaign",
    "sample_schedule",
    "sample_schedules",
    "schedule_seed",
    "shrink_schedule",
]
