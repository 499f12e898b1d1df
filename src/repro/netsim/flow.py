"""Flow descriptors.

A :class:`FlowSpec` names the endpoints, routing policy and transfer size of
one logical traffic demand.  It is the unit the multi-flow TCP simulator
(:mod:`repro.tcp.simulate`), the workload generators and the transfer
planner all exchange.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigurationError
from ..units import (DataRate, DataSize, TimeDelta, _frozen, _new, _put_bits,
                     _put_s, seconds)

__all__ = ["FlowSpec"]


@_frozen
class FlowSpec:
    """One logical traffic demand between two hosts.

    The record stores the size and start time as plain floats,
    ``size_bits`` (``None`` for an unbounded flow) and ``start_s``, so a
    100k-flow traffic matrix carries one GC-tracked object per demand.
    The constructor takes them as unit types, and :attr:`size` and
    :attr:`start` build equal wrappers on each read.  Like a frozen
    dataclass, a spec refuses assignment, compares equal field by
    field and fails to hash (its ``policy`` is a dict).

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
        ``{'forbid_node_kinds': ('firewall',)}``).  Not copied: builders
        give every demand of one workload the same mapping.  ``None``
        means no policy.
    parallel_streams:
        Number of TCP connections carrying this flow (GridFTP-style
        parallelism).  Streams split the size evenly.
    rate_limit:
        Application-level pacing cap, if any.  A 0 bps cap holds an
        unbounded flow at zero; a sized flow must have a positive cap.
    label:
        Free-form identifier for reporting.
    """

    __slots__ = ("src", "dst", "size_bits", "start_s", "policy",
                 "parallel_streams", "rate_limit", "label")

    def __init__(self, src: str, dst: str, size: Optional[DataSize] = None,
                 start: TimeDelta = seconds(0), policy: Optional[dict] = None,
                 parallel_streams: int = 1,
                 rate_limit: Optional[DataRate] = None,
                 label: str = "") -> None:
        if not src or not dst:
            raise ConfigurationError("FlowSpec requires src and dst node names")
        if src == dst:
            raise ConfigurationError("FlowSpec endpoints must differ")
        if parallel_streams < 1:
            raise ConfigurationError(
                f"parallel_streams must be >= 1, got {parallel_streams}"
            )
        size_bits = None
        if size is not None:
            size_bits = size.bits
            if size_bits <= 0:
                raise ConfigurationError(
                    "FlowSpec.size must be positive when given")
            if rate_limit is not None and rate_limit.bps <= 0:
                raise ConfigurationError(
                    "FlowSpec.rate_limit must be positive for a sized flow, "
                    "which could never finish at 0 bps")
        _put_src(self, src)
        _put_dst(self, dst)
        _put_size_bits(self, size_bits)
        _put_start_s(self, start.s)
        _put_policy(self, {} if policy is None else policy)
        _put_parallel_streams(self, parallel_streams)
        _put_rate_limit(self, rate_limit)
        _put_label(self, label)

    @property
    def size(self) -> Optional[DataSize]:
        """Total data to move, or ``None`` for an unbounded flow."""
        b = self.size_bits
        if b is None:
            return None
        size = _new(DataSize)
        _put_bits(size, b)
        return size

    @property
    def start(self) -> TimeDelta:
        """Simulation time at which the flow begins."""
        start = _new(TimeDelta)
        _put_s(start, self.start_s)
        return start

    def _fields(self) -> tuple:
        return (self.src, self.dst, self.size_bits, self.start_s,
                self.policy, self.parallel_streams, self.rate_limit,
                self.label)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return (FlowSpec, (self.src, self.dst, self.size, self.start,
                           self.policy, self.parallel_streams,
                           self.rate_limit, self.label))

    def __repr__(self) -> str:
        return (f"FlowSpec(src={self.src!r}, dst={self.dst!r}, "
                f"size={self.size!r}, start={self.start!r}, "
                f"policy={self.policy!r}, "
                f"parallel_streams={self.parallel_streams!r}, "
                f"rate_limit={self.rate_limit!r}, label={self.label!r})")

    def per_stream_size(self) -> Optional[DataSize]:
        """Size carried by each parallel stream (even split)."""
        if self.size_bits is None:
            return None
        return DataSize(self.size_bits / self.parallel_streams)

    def describe(self) -> str:
        size = self.size.human() if self.size is not None else "unbounded"
        streams = (f" x{self.parallel_streams} streams"
                   if self.parallel_streams > 1 else "")
        name = f"[{self.label}] " if self.label else ""
        return f"{name}{self.src} -> {self.dst}: {size}{streams}"


# A frozen record cannot assign its own fields; its slots' descriptors
# store them for __init__ at about two thirds of object.__setattr__'s
# cost, which counts when a traffic matrix builds 100k records.
(_put_src, _put_dst, _put_size_bits, _put_start_s, _put_policy,
 _put_parallel_streams, _put_rate_limit, _put_label) = (
    getattr(FlowSpec, name).__set__ for name in FlowSpec.__slots__)
