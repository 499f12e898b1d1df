"""Science transfer workload builders.

The paper's introduction motivates three recurring traffic shapes, which
these builders produce as lists of :class:`~repro.netsim.flow.FlowSpec`
ready for :class:`~repro.tcp.simulate.MultiFlowSimulation`:

* **LHC-style fan-in** (§4.3, §6.1): many remote sites pushing/pulling
  steadily against one cluster, "multiple streams of traffic approaching
  an aggregate of 5 Gbps".
* **Climate-archive bulk pull** (§6.3): one site draining a large archive
  through a handful of parallel streams.
* **Light-source bursts** (§3.2, §6.4): an instrument emitting a dataset
  per experiment cycle, quiet between cycles.

Each builder copies its ``policy`` argument once and gives every demand
of the workload that one mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


from ..errors import ConfigurationError
from ..netsim.flow import FlowSpec
from ..units import DataSize, GB, TimeDelta, minutes, seconds

__all__ = [
    "ScienceWorkload",
    "lhc_tier2_fanin",
    "climate_archive_pull",
    "lightsource_bursts",
]


@dataclass(frozen=True)
class ScienceWorkload:
    """A named bundle of flow demands."""

    name: str
    flows: tuple

    def __post_init__(self) -> None:
        if not self.flows:
            raise ConfigurationError("workload must contain flows")

    @property
    def total_bytes(self) -> DataSize:
        total = sum(f.size_bits for f in self.flows
                    if f.size_bits is not None)
        return DataSize(total)

    def specs(self) -> List[FlowSpec]:
        return list(self.flows)


def lhc_tier2_fanin(
    remote_sites: Sequence[str],
    cluster_host: str,
    *,
    per_site_size: DataSize = GB(200),
    streams_per_site: int = 2,
    policy: Optional[dict] = None,
    stagger: TimeDelta = seconds(5),
) -> ScienceWorkload:
    """Many sites pushing datasets into one analysis cluster (§6.1 CMS)."""
    if not remote_sites:
        raise ConfigurationError("need at least one remote site")
    policy = dict(policy or {})
    flows = []
    for i, site in enumerate(remote_sites):
        flows.append(FlowSpec(
            src=site,
            dst=cluster_host,
            size=per_site_size,
            start=seconds(stagger.s * i),
            parallel_streams=streams_per_site,
            policy=policy,
            label=f"cms-{site}",
        ))
    return ScienceWorkload(name="lhc-tier2-fanin", flows=tuple(flows))


def climate_archive_pull(
    archive_host: str,
    home_host: str,
    *,
    total: DataSize,
    parallel_transfers: int = 4,
    streams_per_transfer: int = 4,
    policy: Optional[dict] = None,
) -> ScienceWorkload:
    """One site draining an archive (§6.3 NOAA reforecast shape)."""
    if parallel_transfers < 1:
        raise ConfigurationError("parallel_transfers must be >= 1")
    share = DataSize(total.bits / parallel_transfers)
    policy = dict(policy or {})
    flows = [
        FlowSpec(
            src=archive_host,
            dst=home_host,
            size=share,
            parallel_streams=streams_per_transfer,
            policy=policy,
            label=f"archive-pull-{i}",
        )
        for i in range(parallel_transfers)
    ]
    return ScienceWorkload(name="climate-archive-pull", flows=tuple(flows))


def lightsource_bursts(
    beamline_host: str,
    compute_host: str,
    *,
    dataset_per_cycle: DataSize,
    cycles: int = 4,
    cycle_gap: TimeDelta = minutes(2),
    streams: int = 4,
    policy: Optional[dict] = None,
) -> ScienceWorkload:
    """An instrument emitting one dataset per experiment cycle (§6.4 ALS)."""
    if cycles < 1:
        raise ConfigurationError("cycles must be >= 1")
    policy = dict(policy or {})
    flows = [
        FlowSpec(
            src=beamline_host,
            dst=compute_host,
            size=dataset_per_cycle,
            start=seconds(cycle_gap.s * i),
            parallel_streams=streams,
            policy=policy,
            label=f"beamline-cycle-{i}",
        )
        for i in range(cycles)
    ]
    return ScienceWorkload(name="lightsource-bursts", flows=tuple(flows))
