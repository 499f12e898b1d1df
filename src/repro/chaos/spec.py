"""CampaignSpec: a randomized fault campaign as one JSON document.

The paper's robustness claims (§2's line card, §3.3's soft-failure
taxonomy, §5's security argument) are claims about *behavior under
faults* — so a campaign describes a whole fault **space**, not one
hand-placed timeline: which soft-failure kinds may strike which nodes,
when, whether links get cut, how many faults per schedule.  The
campaign runner then samples N concrete fault schedules from the seed
tree and checks every run against invariant oracles
(:mod:`repro.chaos.oracles`).

:class:`CampaignSpec` is a fourth :class:`~repro.experiment.spec.ExperimentSpec`
kind (``"campaign"``) with the same contract as the other three:
frozen, lossless JSON round-trip, canonical digest, runnable through
:func:`repro.experiment.run_experiment` (and so through ``repro run``
with golden gating) — plus the dedicated ``repro chaos`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, Optional, Tuple

from ..experiment.spec import (AS_OBJECT, AlertRuleSpec, ExperimentSpec,
                               MeshSpec, SpecRecord, _require)

__all__ = [
    "CampaignSpec",
    "FaultSpaceSpec",
    "OracleSpec",
    "TransferProbeSpec",
]


@dataclass(frozen=True)
class FaultSpaceSpec(SpecRecord):
    """The sampling space one campaign draws fault schedules from.

    ``kinds`` name entries in :data:`repro.experiment.registry.FAULTS`
    (membership is validated at campaign-run time, when the registry —
    including user additions — is authoritative).  ``nodes`` are the
    candidate injection sites for device faults (() = the design's
    border router); ``storage_nodes`` are the candidates for
    ``storage`` faults (() = the design's DTNs); ``cache_nodes`` are the
    candidates for ``cachebug`` faults (() = every cache node the
    design's bundle declares in ``extras["caches"]``).  Each sampled
    schedule
    draws between ``min_faults`` and ``max_faults`` faults with onsets
    uniform in ``[onset_min_s, onset_max_s]``; with probability
    ``repair_fraction`` the schedule repairs everything at a time drawn
    from ``(onset_max_s, horizon)``, and with probability
    ``cut_fraction`` it also severs one of the candidate ``cuts`` links.
    """

    kinds: Tuple[str, ...] = ("linecard", "optics", "cpu", "duplex")
    nodes: Tuple[str, ...] = ()
    storage_nodes: Tuple[str, ...] = ()
    cache_nodes: Tuple[str, ...] = ()
    min_faults: int = 1
    max_faults: int = 2
    onset_min_s: float = 300.0
    onset_max_s: float = 1800.0
    repair_fraction: float = 0.0
    cuts: Tuple[Tuple[str, str], ...] = ()
    cut_fraction: float = 0.0

    def __post_init__(self) -> None:
        _require(len(self.kinds) > 0, "fault space needs at least one kind")
        _require(1 <= self.min_faults <= self.max_faults,
                 "fault space needs 1 <= min_faults <= max_faults")
        _require(0 <= self.onset_min_s <= self.onset_max_s,
                 "fault space needs 0 <= onset_min_s <= onset_max_s")
        for frac, label in ((self.repair_fraction, "repair_fraction"),
                            (self.cut_fraction, "cut_fraction")):
            _require(0.0 <= frac <= 1.0, f"{label} must be in [0,1]")
        _require(not (self.cut_fraction > 0 and not self.cuts),
                 "cut_fraction > 0 needs at least one candidate in cuts")



@dataclass(frozen=True)
class OracleSpec(SpecRecord):
    """One invariant oracle to evaluate, with its parameters.

    ``name`` indexes :data:`repro.chaos.oracles.ORACLES`; ``params``
    override the oracle's keyword defaults (JSON scalars only, stored
    sorted like :class:`~repro.experiment.spec.FaultSpec` params).
    """

    name: str
    params: Tuple[Tuple[str, object], ...] = field(default=(),
                                                   metadata=AS_OBJECT)

    def __post_init__(self) -> None:
        _require(bool(self.name), "oracle name must be non-empty")

    def param_mapping(self) -> Dict[str, object]:
        return dict(self.params)



@dataclass(frozen=True)
class TransferProbeSpec(SpecRecord):
    """An end-to-end DTN transfer run once per schedule, post-horizon.

    The transfer-termination oracle checks the probe either completes
    or raises a taxonomized :class:`~repro.errors.ReproError` — never
    hangs silently, never dies with an untyped exception.
    """

    size_gb: float = 10.0
    files: int = 10
    tool: str = "globus"
    max_duration_s: float = 86_400.0

    def __post_init__(self) -> None:
        _require(self.size_gb > 0, "transfer probe size_gb must be > 0")
        _require(self.files >= 1, "transfer probe files must be >= 1")
        _require(self.max_duration_s > 0,
                 "transfer probe max_duration_s must be > 0")



@dataclass(frozen=True)
class CampaignSpec(ExperimentSpec):
    """A deterministic, seedable fault campaign over a base design."""

    kind: ClassVar[str] = "campaign"

    design: str = "simple-science-dmz"
    until_s: float = 2700.0
    mesh: MeshSpec = field(default_factory=MeshSpec)
    alert_rule: AlertRuleSpec = field(default_factory=AlertRuleSpec)
    space: FaultSpaceSpec = field(default_factory=FaultSpaceSpec)
    schedules: int = 16
    #: () means "every registered oracle with default parameters".
    oracles: Tuple[OracleSpec, ...] = ()
    transfer: Optional[TransferProbeSpec] = None
    #: Shrink failing schedules to minimal fault sets (ddmin)?
    shrink: bool = True
    #: Cap on how many failing schedules get shrunk (earliest first).
    max_shrink: int = 4

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.until_s > 0, "campaign horizon until_s must be > 0")
        self.mesh.check_horizon(self.until_s)
        _require(self.schedules >= 1, "a campaign needs schedules >= 1")
        _require(self.max_shrink >= 0, "max_shrink must be >= 0")
        _require(self.space.onset_max_s < self.until_s,
                 f"fault onsets up to t={self.space.onset_max_s}s must fall "
                 f"before the horizon {self.until_s}s")
        seen = set()
        for oracle in self.oracles:
            _require(oracle.name not in seen,
                     f"duplicate oracle {oracle.name!r} in campaign")
            seen.add(oracle.name)
