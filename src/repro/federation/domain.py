"""Domains, peering policy, and the federation build step.

A federation instantiates each :class:`~repro.federation.spec.DomainSpec`
as an administrative domain with its own topology and OSCARS service
(§7.1's per-domain circuit controller), joins mutually-declared peers at
exchange-point routers, and reuses the
:class:`~repro.circuits.multidomain.InterDomainController` for
end-to-end circuit reservation across the mesh.

Policy is enforced at two seams:

* **peering is mutual** — a domain listing a peer that does not list it
  back is a configuration error, caught at build time;
* **stubs never transit** — route computation only admits paths whose
  interior domains are all ``transit`` role, so a campus can never end
  up carrying another campus's traffic even if the raw peering graph
  would allow the shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..circuits.multidomain import Domain, InterDomainController
from ..circuits.oscars import OscarsService
from ..devices.cache import CacheDevice
from ..dtn.host import attach_profile, tuned_dtn
from ..dtn.storage import ParallelFilesystem
from ..errors import ConfigurationError, RoutingError
from ..netsim.graph import Graph, NoPath
from ..netsim.link import JUMBO_MTU, Link
from ..netsim.node import Host, Router
from ..netsim.topology import PathProfile, Topology
from ..units import GB, Gbps, hours, ms, seconds
from .spec import FederationSpec, ROLE_TRANSIT

__all__ = ["FederationDomain", "Federation", "build_federation",
           "exchange_name"]


def exchange_name(a: str, b: str) -> str:
    """Canonical exchange-point node shared by a peering pair."""
    lo, hi = sorted((a, b))
    return f"ix-{lo}-{hi}"


@dataclass
class FederationDomain:
    """One instantiated domain: topology, circuit service, cache."""

    name: str
    role: str
    peers: Tuple[str, ...]
    topology: Topology
    oscars: OscarsService
    site_host: str
    border: str
    cache: Optional[CacheDevice] = None

    def as_circuit_domain(self) -> Domain:
        return Domain(name=self.name, topology=self.topology,
                      oscars=self.oscars)


class Federation:
    """The built multi-domain system a :class:`FederationSpec` describes."""

    def __init__(self, spec: FederationSpec, *,
                 scale: float = 1.0) -> None:
        if scale <= 0:
            raise ConfigurationError("cache scale must be > 0")
        self.spec = spec
        self.scale = float(scale)
        self.domains: Dict[str, FederationDomain] = {}
        self._build_domains()
        self._peering_graph = self._check_peering()
        self.idc = InterDomainController(
            [d.as_circuit_domain() for d in self.domains.values()],
            [(a, b, exchange_name(a, b))
             for a, b, _ in self._peering_graph.edges()],
        )

    # -- construction ------------------------------------------------------
    def _build_domains(self) -> None:
        spec = self.spec
        link_rate = Gbps(spec.link_gbps)
        for dom in spec.domains:
            topo = Topology(name=dom.name)
            border = topo.add_node(Router(name=f"{dom.name}-border"))
            site = topo.add_node(Host(name=f"{dom.name}-dtn"))
            attach_profile(site, tuned_dtn(
                f"{dom.name}-dtn", ParallelFilesystem()))
            topo.connect(site, border, Link(
                rate=link_rate, delay=ms(0.1), mtu=JUMBO_MTU,
                tags=("science",)))
            cache = None
            if dom.cache_gb > 0:
                cache = CacheDevice(
                    name=f"{dom.name}-cache",
                    capacity=GB(dom.cache_gb * self.scale),
                    policy=dom.cache_policy,
                    tier="regional" if dom.role == ROLE_TRANSIT else "site",
                )
                # Transparent on the path; lives at the domain border.
                border.attach(cache)
            self.domains[dom.name] = FederationDomain(
                name=dom.name, role=dom.role, peers=dom.peers,
                topology=topo, oscars=OscarsService(topo),
                site_host=site.name, border=border.name, cache=cache,
            )

    def _check_peering(self) -> Graph:
        """Mutual-consent peering graph; exchange routers added to both."""
        graph = Graph(self.domains)
        spec = self.spec
        link_rate = Gbps(spec.link_gbps)
        # Each peering crossing contributes half the configured RTT
        # one-way, split across its two border->exchange links.
        hop_delay = ms(spec.link_rtt_ms / 4.0)
        for dom in spec.domains:
            for peer in dom.peers:
                peer_spec = next(d for d in spec.domains if d.name == peer)
                if dom.name not in peer_spec.peers:
                    raise ConfigurationError(
                        f"asymmetric peering: {dom.name!r} lists "
                        f"{peer!r} but {peer!r} does not list "
                        f"{dom.name!r} back"
                    )
                if graph.edge(dom.name, peer) is not None:
                    continue
                ix = exchange_name(dom.name, peer)
                for side in (dom.name, peer):
                    topo = self.domains[side].topology
                    ix_node = topo.add_node(Router(name=ix))
                    topo.connect(self.domains[side].border, ix_node, Link(
                        rate=link_rate, delay=hop_delay, mtu=JUMBO_MTU,
                        tags=("science", "interdomain")))
                graph.add_edge(dom.name, peer)
        return graph

    # -- policy-aware routing ----------------------------------------------
    def route(self, src: str, dst: str) -> List[str]:
        """Domain-level route honoring the stub-never-transits rule.

        Interior domains must all be ``transit`` role; stubs may only
        appear as endpoints.  Raises :class:`RoutingError` when no
        policy-compliant route exists.
        """
        for name in (src, dst):
            if name not in self.domains:
                raise ConfigurationError(f"unknown domain {name!r}")
        if src == dst:
            return [src]
        try:
            return self._peering_graph.shortest_path(
                src, dst, node_ok=lambda n: (
                    n in (src, dst) or self.domains[n].role == ROLE_TRANSIT))
        except NoPath:
            raise RoutingError(
                f"no policy-compliant route from domain {src!r} to "
                f"{dst!r} (stubs never transit)"
            ) from None

    def tier_chain(self, client: str) -> List[CacheDevice]:
        """Caches a client's request consults, nearest first.

        The client's own site cache, then each transit domain's cache
        along the policy route toward the origin.  The origin domain's
        cache (if any) is excluded — past the last tier the request is
        served by the origin DTN itself.
        """
        chain: List[CacheDevice] = []
        for name in self.route(client, self.spec.origin)[:-1]:
            cache = self.domains[name].cache
            if cache is not None:
                chain.append(cache)
        return chain

    def caches(self) -> Dict[str, CacheDevice]:
        """Every deployed cache, keyed by domain name."""
        return {name: dom.cache for name, dom in self.domains.items()
                if dom.cache is not None}

    def circuit_profile(self, client: str) -> PathProfile:
        """Stitched profile of a guaranteed circuit client-DTN -> origin.

        Reserves half the inter-domain link rate end-to-end through the
        :class:`InterDomainController` (all-or-nothing across domains),
        captures the stitched profile, and releases the reservation —
        the federation only needs the path view, not a held calendar
        slot.  The circuit's domain sequence must match the policy
        route; a mismatch means the raw peering graph offered a
        stub-transit shortcut, which is a routing-policy violation.
        """
        policy_route = self.route(client, self.spec.origin)
        circuit = self.idc.reserve_end_to_end(
            self.domains[client].site_host,
            self.domains[self.spec.origin].site_host,
            Gbps(self.spec.link_gbps / 2.0),
            start=seconds(0), end=hours(1),
            description=f"{client} -> {self.spec.origin} federation feed",
        )
        try:
            if list(circuit.domain_names) != policy_route:
                raise RoutingError(
                    f"circuit route {list(circuit.domain_names)} violates "
                    f"policy route {policy_route} for {client!r}"
                )
            return circuit.profile
        finally:
            self.idc.release(circuit)


def build_federation(spec: FederationSpec, *,
                     scale: float = 1.0) -> Federation:
    """Instantiate the federation a spec describes at one cache scale."""
    return Federation(spec, scale=scale)
