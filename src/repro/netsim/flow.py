"""Flow descriptors.

A :class:`FlowSpec` names the endpoints, routing policy and transfer size of
one logical traffic demand.  It is the unit the multi-flow TCP simulator
(:mod:`repro.tcp.simulate`), the workload generators and the transfer
planner all exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import ConfigurationError
from ..units import DataRate, DataSize, TimeDelta, seconds

__all__ = ["FlowSpec"]


@dataclass(frozen=True)
class FlowSpec:
    """One logical traffic demand between two hosts.

    Attributes
    ----------
    src, dst:
        Node names in the topology.
    size:
        Total data to move.  ``None`` means an unbounded (rate-measured)
        flow, used by throughput tests and background traffic.
    start:
        Simulation time at which the flow begins.
    policy:
        Routing-policy keyword arguments forwarded to
        :meth:`repro.netsim.topology.Topology.path` (e.g.
        ``{'forbid_node_kinds': ('firewall',)}``).
    parallel_streams:
        Number of TCP connections carrying this flow (GridFTP-style
        parallelism).  Streams split the size evenly.
    rate_limit:
        Application-level pacing cap, if any.  A 0 bps cap holds an
        unbounded flow at zero; a sized flow must have a positive cap.
    label:
        Free-form identifier for reporting.
    """

    src: str
    dst: str
    size: Optional[DataSize] = None
    start: TimeDelta = seconds(0)
    policy: dict = field(default_factory=dict)
    parallel_streams: int = 1
    rate_limit: Optional[DataRate] = None
    label: str = ""

    def __post_init__(self) -> None:
        if not self.src or not self.dst:
            raise ConfigurationError("FlowSpec requires src and dst node names")
        if self.src == self.dst:
            raise ConfigurationError("FlowSpec endpoints must differ")
        if self.parallel_streams < 1:
            raise ConfigurationError(
                f"parallel_streams must be >= 1, got {self.parallel_streams}"
            )
        if self.size is not None and self.size.bits <= 0:
            raise ConfigurationError("FlowSpec.size must be positive when given")
        if (self.rate_limit is not None and self.size is not None
                and self.rate_limit.bps <= 0):
            raise ConfigurationError(
                "FlowSpec.rate_limit must be positive for a sized flow, "
                "which could never finish at 0 bps")

    def per_stream_size(self) -> Optional[DataSize]:
        """Size carried by each parallel stream (even split)."""
        if self.size is None:
            return None
        return DataSize(self.size.bits / self.parallel_streams)

    def describe(self) -> str:
        size = self.size.human() if self.size is not None else "unbounded"
        streams = (f" x{self.parallel_streams} streams"
                   if self.parallel_streams > 1 else "")
        name = f"[{self.label}] " if self.label else ""
        return f"{name}{self.src} -> {self.dst}: {size}{streams}"
