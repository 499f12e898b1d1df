"""Multi-domain virtual circuits: the DYNES / inter-domain controller story.

§7.1: "The campus or lab 'inter-domain' controller (IDC) can provision
the local switch and initiate multi-domain wide area virtual circuit
connectivity to provide guaranteed bandwidth between DTN's at multiple
institutions.  An example of this configuration is the NSF-funded
DYNES project that is supporting a deployment of approximately 60
university campuses and regional networks across the US."

Model: each administrative **domain** owns a topology and an
:class:`~repro.circuits.oscars.OscarsService`; domains peer at named
**exchange points** (a node present in both domains, e.g. the campus
border as seen by campus and by the regional).  The
:class:`InterDomainController` computes a domain-level route, reserves
the intra-domain segment in every domain along it (all-or-nothing: any
admission failure rolls back the segments already reserved), and returns
an :class:`EndToEndCircuit` whose stitched profile concatenates the
segment profiles at the reserved bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import CapacityError, ConfigurationError, RoutingError
from ..netsim.graph import Graph, NoPath
from ..netsim.node import FlowContext
from ..netsim.topology import PathProfile, Topology
from ..units import DataRate, DataSize, TimeDelta
from .oscars import OscarsService, Reservation, ReservationRequest

__all__ = ["Domain", "EndToEndCircuit", "InterDomainController"]


@dataclass
class Domain:
    """One administrative domain: a topology plus its circuit service."""

    name: str
    topology: Topology
    oscars: OscarsService

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("domain needs a name")
        if self.oscars.topology is not self.topology:
            raise ConfigurationError(
                f"domain {self.name!r}: OscarsService must be bound to the "
                "domain's own topology"
            )

    def has_host(self, name: str) -> bool:
        return self.topology.has_node(name)


@dataclass(frozen=True)
class EndToEndCircuit:
    """A stitched multi-domain circuit."""

    circuit_id: str
    bandwidth: DataRate
    segments: Tuple[Reservation, ...]      # one per domain, in path order
    domain_names: Tuple[str, ...]
    profile: PathProfile

    @property
    def domain_count(self) -> int:
        return len(self.domain_names)

    def describe(self) -> str:
        return (f"circuit {self.circuit_id}: {self.bandwidth.human()} "
                f"across {' -> '.join(self.domain_names)} "
                f"({self.profile.base_rtt.human()} RTT)")


class InterDomainController:
    """Provision guaranteed-bandwidth circuits across domains (§7.1).

    Parameters
    ----------
    domains:
        The participating domains.
    peerings:
        ``(domain_a, domain_b, exchange_node)`` triples.  The exchange
        node must exist in both domains' topologies (the shared
        demarcation — a border router or exchange-point switch).
    """

    def __init__(
        self,
        domains: Sequence[Domain],
        peerings: Sequence[Tuple[str, str, str]],
    ) -> None:
        if not domains:
            raise ConfigurationError("need at least one domain")
        self._domains: Dict[str, Domain] = {}
        for d in domains:
            if d.name in self._domains:
                raise ConfigurationError(f"duplicate domain {d.name!r}")
            self._domains[d.name] = d
        self._graph = Graph(self._domains)
        for a, b, exchange in peerings:
            for name in (a, b):
                if name not in self._domains:
                    raise ConfigurationError(f"unknown domain {name!r}")
            for name in (a, b):
                if not self._domains[name].has_host(exchange):
                    raise ConfigurationError(
                        f"exchange node {exchange!r} missing from domain "
                        f"{name!r}; peerings need a shared demarcation node"
                    )
            self._graph.add_edge(a, b, exchange=exchange)
        self._exchanges = frozenset(
            data["exchange"] for _, _, data in self._graph.edges())
        self._counter = 0
        self._active: List[EndToEndCircuit] = []

    # -- lookup ----------------------------------------------------------------
    def domain_of(self, host: str) -> Domain:
        """The unique domain containing ``host`` (exchange nodes excluded)."""
        owners = [
            d for d in self._domains.values()
            if d.has_host(host) and not self._is_exchange(host)
        ]
        if not owners:
            raise ConfigurationError(f"no domain contains host {host!r}")
        if len(owners) > 1:
            raise ConfigurationError(
                f"host {host!r} is ambiguous across domains "
                f"{[d.name for d in owners]}"
            )
        return owners[0]

    def _is_exchange(self, node: str) -> bool:
        return node in self._exchanges

    def domain_route(self, src_domain: str, dst_domain: str) -> List[str]:
        try:
            return self._graph.shortest_path(src_domain, dst_domain)
        except NoPath:
            raise RoutingError(
                f"no peering route from domain {src_domain!r} to "
                f"{dst_domain!r}"
            ) from None

    def active(self) -> List[EndToEndCircuit]:
        return list(self._active)

    # -- provisioning ------------------------------------------------------------
    def reserve_end_to_end(
        self,
        src_host: str,
        dst_host: str,
        bandwidth: DataRate,
        *,
        start: TimeDelta,
        end: TimeDelta,
        description: str = "",
    ) -> EndToEndCircuit:
        """All-or-nothing reservation along the domain route.

        Each domain reserves its segment (ingress exchange -> egress
        exchange, or host -> exchange at the ends).  Any admission
        failure releases the segments already placed and re-raises.
        """
        src_dom = self.domain_of(src_host)
        dst_dom = self.domain_of(dst_host)
        route = self.domain_route(src_dom.name, dst_dom.name)

        # Per-domain (entry, exit) endpoints along the route.
        endpoints: List[Tuple[str, str, str]] = []  # (domain, seg_src, seg_dst)
        entry = src_host
        for i, domain_name in enumerate(route):
            if i < len(route) - 1:
                exchange = self._graph.edge(domain_name, route[i + 1])["exchange"]
                endpoints.append((domain_name, entry, exchange))
                entry = exchange
            else:
                endpoints.append((domain_name, entry, dst_host))

        placed: List[Tuple[Domain, Reservation]] = []
        try:
            for domain_name, seg_src, seg_dst in endpoints:
                domain = self._domains[domain_name]
                if seg_src == seg_dst:
                    continue  # degenerate hairpin at an exchange
                request = ReservationRequest(
                    src=seg_src, dst=seg_dst, bandwidth=bandwidth,
                    start=start, end=end,
                    description=description or
                    f"segment of {src_host}->{dst_host}",
                )
                placed.append((domain, domain.oscars.reserve(request)))
        except (CapacityError, RoutingError):
            for domain, reservation in placed:
                domain.oscars.release(reservation)
            raise

        self._counter += 1
        circuit = EndToEndCircuit(
            circuit_id=f"idc-{self._counter}",
            bandwidth=bandwidth,
            segments=tuple(r for _, r in placed),
            domain_names=tuple(route),
            profile=self._stitch([(d, r) for d, r in placed], bandwidth),
        )
        self._active.append(circuit)
        return circuit

    def release(self, circuit: EndToEndCircuit) -> None:
        if circuit not in self._active:
            raise ConfigurationError(
                f"circuit {circuit.circuit_id} is not active"
            )
        # domain_names may outnumber segments when a hairpin segment was
        # skipped, so match each reservation to its owning service directly.
        for reservation in circuit.segments:
            for domain in self._domains.values():
                if reservation in domain.oscars.active():
                    domain.oscars.release(reservation)
                    break
        self._active.remove(circuit)

    # -- profile stitching ---------------------------------------------------------
    @staticmethod
    def _stitch(placed: List[Tuple[Domain, Reservation]],
                bandwidth: DataRate) -> PathProfile:
        """Concatenate segment profiles into one end-to-end profile."""
        if not placed:
            raise ConfigurationError("cannot stitch an empty circuit")
        capacity = float("inf")
        latency = 0.0
        survive = 1.0
        mtu_bits = float("inf")
        names: List[str] = []
        losses: List[float] = []
        ctx: Optional[FlowContext] = None
        for domain, reservation in placed:
            profile = domain.oscars.circuit_profile(reservation)
            capacity = min(capacity, profile.capacity.bps)
            latency += profile.one_way_latency.s
            survive *= (1.0 - profile.random_loss)
            mtu_bits = min(mtu_bits, profile.mtu.bits)
            names.extend(f"{domain.name}:{n}" for n in profile.element_names)
            losses.extend(profile.segment_loss)
            ctx = profile.flow if ctx is None else ctx
        capacity = min(capacity, bandwidth.bps)
        return PathProfile(
            capacity=DataRate(capacity),
            one_way_latency=TimeDelta(latency),
            random_loss=1.0 - survive,
            mtu=DataSize(mtu_bits),
            flow=ctx,
            element_names=tuple(names),
            segment_loss=tuple(losses),
            bottleneck_index=0,
            bottleneck_buffer=None,
        )
