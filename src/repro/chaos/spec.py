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
from typing import ClassVar, Dict, Mapping, Optional, Tuple

from ..errors import ConfigurationError
from ..experiment.spec import AlertRuleSpec, ExperimentSpec, MeshSpec

__all__ = [
    "CampaignSpec",
    "FaultSpaceSpec",
    "OracleSpec",
    "TransferProbeSpec",
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class FaultSpaceSpec:
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

    def to_dict(self) -> Dict[str, object]:
        return {
            "kinds": list(self.kinds),
            "nodes": list(self.nodes),
            "storage_nodes": list(self.storage_nodes),
            "cache_nodes": list(self.cache_nodes),
            "min_faults": self.min_faults,
            "max_faults": self.max_faults,
            "onset_min_s": self.onset_min_s,
            "onset_max_s": self.onset_max_s,
            "repair_fraction": self.repair_fraction,
            "cuts": [[a, b] for a, b in self.cuts],
            "cut_fraction": self.cut_fraction,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultSpaceSpec":
        kinds = data.get("kinds")
        return cls(
            kinds=(tuple(str(k) for k in kinds) if kinds is not None
                   else ("linecard", "optics", "cpu", "duplex")),
            nodes=tuple(str(n) for n in data.get("nodes") or ()),
            storage_nodes=tuple(str(n)
                                for n in data.get("storage_nodes") or ()),
            cache_nodes=tuple(str(n)
                              for n in data.get("cache_nodes") or ()),
            min_faults=int(data.get("min_faults", 1)),
            max_faults=int(data.get("max_faults", 2)),
            onset_min_s=float(data.get("onset_min_s", 300.0)),
            onset_max_s=float(data.get("onset_max_s", 1800.0)),
            repair_fraction=float(data.get("repair_fraction", 0.0)),
            cuts=tuple((str(a), str(b)) for a, b in data.get("cuts") or ()),
            cut_fraction=float(data.get("cut_fraction", 0.0)),
        )


@dataclass(frozen=True)
class OracleSpec:
    """One invariant oracle to evaluate, with its parameters.

    ``name`` indexes :data:`repro.chaos.oracles.ORACLES`; ``params``
    override the oracle's keyword defaults (JSON scalars only, stored
    sorted like :class:`~repro.experiment.spec.FaultSpec` params).
    """

    name: str
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        _require(bool(self.name), "oracle name must be non-empty")

    def param_mapping(self) -> Dict[str, object]:
        return dict(self.params)

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "params": {k: v for k, v in self.params}}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "OracleSpec":
        params = data.get("params") or {}
        return cls(name=str(data["name"]),
                   params=tuple(sorted(params.items())))


@dataclass(frozen=True)
class TransferProbeSpec:
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

    def to_dict(self) -> Dict[str, object]:
        return {
            "size_gb": self.size_gb,
            "files": self.files,
            "tool": self.tool,
            "max_duration_s": self.max_duration_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TransferProbeSpec":
        return cls(
            size_gb=float(data.get("size_gb", 10.0)),
            files=int(data.get("files", 10)),
            tool=str(data.get("tool", "globus")),
            max_duration_s=float(data.get("max_duration_s", 86_400.0)),
        )


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

    def _payload_dict(self) -> Dict[str, object]:
        return {
            "design": self.design,
            "until_s": self.until_s,
            "mesh": self.mesh.to_dict(),
            "alert_rule": self.alert_rule.to_dict(),
            "space": self.space.to_dict(),
            "schedules": self.schedules,
            "oracles": [o.to_dict() for o in self.oracles],
            "transfer": (self.transfer.to_dict()
                         if self.transfer is not None else None),
            "shrink": self.shrink,
            "max_shrink": self.max_shrink,
        }

    @classmethod
    def _from_payload(cls, data: Mapping[str, object]) -> "CampaignSpec":
        transfer = data.get("transfer")
        return cls(
            name=str(data["name"]),
            seed=int(data.get("seed", 0)),
            description=str(data.get("description", "")),
            design=str(data.get("design", "simple-science-dmz")),
            until_s=float(data.get("until_s", 2700.0)),
            mesh=MeshSpec.from_dict(data.get("mesh") or {}),
            alert_rule=AlertRuleSpec.from_dict(data.get("alert_rule") or {}),
            space=FaultSpaceSpec.from_dict(data.get("space") or {}),
            schedules=int(data.get("schedules", 16)),
            oracles=tuple(OracleSpec.from_dict(o)
                          for o in data.get("oracles") or ()),
            transfer=(TransferProbeSpec.from_dict(transfer)
                      if transfer else None),
            shrink=bool(data.get("shrink", True)),
            max_shrink=int(data.get("max_shrink", 4)),
        )
