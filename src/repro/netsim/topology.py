"""Topology graph, policy routing and end-to-end path profiles.

The Science DMZ's *location pattern* is fundamentally a routing statement:
science traffic must reach the WAN through a short, clean path that bypasses
the enterprise firewall, while business traffic keeps its protected path.
We express this with tag-based policy routing — links and nodes carry tags,
and path selection can require or forbid them — so that the same topology
object answers both "what path does science data take?" and "what path does
enterprise data take?".

A :class:`PathProfile` is the folded end-to-end view of one path: bottleneck
capacity, base RTT, combined random per-packet loss, path MTU, and the final
:class:`~repro.netsim.node.FlowContext` after every middlebox transform.
The fluid TCP model consumes profiles; it never looks at the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError, RoutingError, TopologyError
from ..units import DataRate, DataSize, TimeDelta
from .graph import Graph, NoPath
from .link import Link
from .node import FlowContext, Host, Node, PathElement

__all__ = ["Topology", "Path", "PathProfile"]


@dataclass(frozen=True)
class PathProfile:
    """End-to-end characteristics of a concrete path.

    Attributes
    ----------
    capacity:
        Bottleneck rate: the minimum over every element that imposes one.
    one_way_latency:
        Sum of element latencies (propagation + forwarding).
    base_rtt:
        Two-way latency, assuming the reverse path mirrors the forward one.
    random_loss:
        Combined independent per-packet random-loss probability.
    mtu:
        Path MTU — minimum over traversed links.
    flow:
        The transport context after all middlebox transforms.
    bottleneck_index:
        Index into ``element_names`` of the capacity bottleneck.
    segment_loss:
        Per-element random-loss contribution, parallel to ``element_names``
        (used by fault localization).
    """

    capacity: DataRate
    one_way_latency: TimeDelta
    random_loss: float
    mtu: DataSize
    flow: FlowContext
    element_names: Tuple[str, ...]
    segment_loss: Tuple[float, ...]
    bottleneck_index: int
    #: Queue depth at the bottleneck element, when that element advertises
    #: one (shallow-buffered devices); None means "assume well-provisioned".
    bottleneck_buffer: Optional[DataSize] = None

    @property
    def base_rtt(self) -> TimeDelta:
        return TimeDelta(self.one_way_latency.s * 2.0)

    @property
    def bottleneck_name(self) -> str:
        return self.element_names[self.bottleneck_index]

    def bdp(self) -> DataSize:
        """Bandwidth-delay product of this path."""
        return self.capacity.bdp(self.base_rtt)


@dataclass(frozen=True)
class Path:
    """An ordered walk through the topology: nodes and the links between."""

    nodes: Tuple[Node, ...]
    links: Tuple[Link, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 1:
            raise TopologyError("a path needs at least one node")
        if len(self.links) != len(self.nodes) - 1:
            raise TopologyError(
                f"path with {len(self.nodes)} nodes must have "
                f"{len(self.nodes) - 1} links, got {len(self.links)}"
            )

    @property
    def src(self) -> Node:
        return self.nodes[0]

    @property
    def dst(self) -> Node:
        return self.nodes[-1]

    @property
    def hop_count(self) -> int:
        return len(self.links)

    def node_names(self) -> List[str]:
        return [n.name for n in self.nodes]

    def elements(self) -> List[Tuple[str, PathElement]]:
        """The interleaved (name, element) sequence the profile folds over."""
        out: List[Tuple[str, PathElement]] = []
        for i, node in enumerate(self.nodes):
            for el in node.transit_elements():
                label = node.name if el is node else f"{node.name}:{type(el).__name__}"
                out.append((label, el))
            if i < len(self.links):
                link = self.links[i]
                label = link.name or f"{node.name}--{self.nodes[i + 1].name}"
                out.append((label, link))
        return out

    def traverses(self, predicate: Callable[[Node], bool]) -> bool:
        """True if any node on the path satisfies ``predicate``."""
        return any(predicate(n) for n in self.nodes)

    def traverses_kind(self, kind: str) -> bool:
        return self.traverses(lambda n: n.kind == kind)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Path(" + " -> ".join(self.node_names()) + ")"


class Topology:
    """A named collection of nodes and links with policy-routed paths.

    :meth:`path` memoizes each route it finds, keyed by the resolved
    endpoint names, the four policy keywords as frozensets and the
    resolved ``via`` names.  Only :meth:`add_node` (and so
    :meth:`add_host`), :meth:`connect` and :meth:`remove_link` change
    the graph, and each clears the cache.  Routing also reads link and
    node tags and node kinds; those are fixed once an element joins a
    topology (nothing in the library reassigns them).  A
    :class:`~repro.errors.RoutingError` is never cached.  Profiles are
    not cached: faults and :meth:`Link.degrade` change element state
    between measurements, so :meth:`profile` folds the path afresh.

    Examples
    --------
    >>> from repro.units import Gbps, ms
    >>> topo = Topology("example")
    >>> a = topo.add_host("a"); b = topo.add_host("b")
    >>> _ = topo.connect(a, b, Link(rate=Gbps(10), delay=ms(5)))
    >>> topo.path("a", "b").hop_count
    1
    """

    def __init__(self, name: str = "topology") -> None:
        if not name:
            raise TopologyError("topology requires a name")
        self.name = name
        self._graph = Graph()
        self._nodes: Dict[str, Node] = {}
        self._routes: Dict[tuple, Path] = {}

    # -- construction -----------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        if node.name in self._nodes:
            raise TopologyError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._graph.add_node(node.name)
        self._routes.clear()
        return node

    def add_host(self, name: str, **kwargs) -> Host:
        return self.add_node(Host(name=name, **kwargs))

    def connect(self, a, b, link: Link) -> Link:
        """Attach ``link`` between two nodes (by object or name)."""
        na, nb = self._resolve(a), self._resolve(b)
        if na.name == nb.name:
            raise TopologyError(f"cannot connect node {na.name!r} to itself")
        if self._graph.edge(na.name, nb.name) is not None:
            raise TopologyError(
                f"nodes {na.name!r} and {nb.name!r} are already connected; "
                "parallel links are modelled as separate intermediate nodes"
            )
        if not isinstance(link, Link):
            raise TopologyError("connect() requires a Link")
        self._graph.add_edge(na.name, nb.name, link=link,
                             weight=link.delay.s + 1e-9)
        self._routes.clear()
        return link

    def remove_link(self, a, b) -> None:
        na, nb = self._resolve(a), self._resolve(b)
        if self._graph.edge(na.name, nb.name) is None:
            raise TopologyError(f"no link between {na.name!r} and {nb.name!r}")
        self._graph.remove_edge(na.name, nb.name)
        self._routes.clear()

    # -- lookup -------------------------------------------------------------------
    def _resolve(self, ref) -> Node:
        if isinstance(ref, Node):
            if ref.name not in self._nodes:
                raise TopologyError(f"node {ref.name!r} is not in topology {self.name!r}")
            return self._nodes[ref.name]
        if isinstance(ref, str):
            try:
                return self._nodes[ref]
            except KeyError:
                raise TopologyError(
                    f"no node named {ref!r} in topology {self.name!r}"
                ) from None
        raise TopologyError(f"cannot resolve node reference {ref!r}")

    def node(self, name: str) -> Node:
        return self._resolve(name)

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def nodes(self, *, kind: Optional[str] = None,
              tag: Optional[str] = None) -> List[Node]:
        out = list(self._nodes.values())
        if kind is not None:
            out = [n for n in out if n.kind == kind]
        if tag is not None:
            out = [n for n in out if n.has_tag(tag)]
        return out

    def link_between(self, a, b) -> Link:
        na, nb = self._resolve(a), self._resolve(b)
        data = self._graph.edge(na.name, nb.name)
        if data is None:
            raise TopologyError(f"no link between {na.name!r} and {nb.name!r}")
        return data["link"]

    def links(self) -> List[Link]:
        return [d["link"] for _, _, d in self._graph.edges()]

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def link_count(self) -> int:
        return sum(1 for _ in self._graph.edges())

    # -- routing --------------------------------------------------------------------
    def path(
        self,
        src,
        dst,
        *,
        require_link_tags: Iterable[str] = (),
        forbid_link_tags: Iterable[str] = (),
        forbid_node_tags: Iterable[str] = (),
        forbid_node_kinds: Iterable[str] = (),
        via: Iterable = (),
    ) -> Path:
        """Find the minimum-latency path subject to policy constraints.

        ``require_link_tags`` keeps only links carrying *all* the tags
        (e.g. science traffic pinned to the Science DMZ fabric);
        ``forbid_*`` excludes links/nodes (e.g. routing around the
        enterprise firewall).  ``via`` forces the path through waypoints,
        in order.  A bare string for any of these keywords raises
        :class:`~repro.errors.ConfigurationError`.  Repeated queries
        return the cached :class:`Path` (see the class docstring).
        """
        nsrc, ndst = self._resolve(src), self._resolve(dst)
        require = frozenset(_names("require_link_tags", require_link_tags))
        forbid_l = frozenset(_names("forbid_link_tags", forbid_link_tags))
        forbid_nt = frozenset(_names("forbid_node_tags", forbid_node_tags))
        forbid_nk = frozenset(_names("forbid_node_kinds", forbid_node_kinds))
        waypoints = tuple(self._resolve(w).name for w in _names("via", via))
        key = (nsrc.name, ndst.name, require, forbid_l, forbid_nt,
               forbid_nk, waypoints)
        path = self._routes.get(key)
        if path is None:
            path = self._routes[key] = self._route(*key)
        return path

    def _route(self, src: str, dst: str, require: frozenset,
               forbid_l: frozenset, forbid_nt: frozenset,
               forbid_nk: frozenset, via: Tuple[str, ...]) -> Path:
        adj = self._graph.adj

        def link_ok(u: str, v: str) -> bool:
            link: Link = adj[u][v]["link"]
            if require and not require <= link.tags:
                return False
            if forbid_l and link.tags & forbid_l:
                return False
            return True

        def node_ok(name: str) -> bool:
            node = self._nodes[name]
            if name in (src, dst):
                return True
            if forbid_nt and node.tags & forbid_nt:
                return False
            if forbid_nk and node.kind in forbid_nk:
                return False
            return True

        # An unconstrained query runs without the filters, which call back
        # into Python for every node and edge the search visits.
        constrained = require or forbid_l or forbid_nt or forbid_nk
        waypoints = (src,) + via + (dst,)
        names: List[str] = [src]
        for a, b in zip(waypoints, waypoints[1:]):
            try:
                seg = self._graph.shortest_path(
                    a, b, weight="weight",
                    node_ok=node_ok if constrained else None,
                    edge_ok=link_ok if constrained else None)
            except NoPath:
                raise RoutingError(
                    f"no route from {a!r} to {b!r} in {self.name!r} under the "
                    f"given policy constraints"
                ) from None
            names.extend(seg[1:])
        nodes = tuple(self._nodes[n] for n in names)
        links = tuple(adj[u][v]["link"] for u, v in zip(names, names[1:]))
        return Path(nodes=nodes, links=links)

    # -- profiling -----------------------------------------------------------------
    def profile(self, path: Path, *,
                flow: Optional[FlowContext] = None) -> PathProfile:
        """Fold a path into its end-to-end :class:`PathProfile`."""
        elements = path.elements()
        if flow is None:
            # Start from the smallest link MTU so the MSS is path-valid.
            mtu = min((l.mtu for l in path.links), default=None)
            if mtu is None:
                from .link import ETHERNET_MTU
                mtu = ETHERNET_MTU
            flow = FlowContext(mss=self._mss_for_mtu(mtu))

        capacity_bps = float("inf")
        bottleneck = 0
        bottleneck_buffer: Optional[DataSize] = None
        latency = 0.0
        survive = 1.0
        seg_loss: List[float] = []
        names: List[str] = []
        mtu_bits = float("inf")
        ctx = flow
        for idx, (name, el) in enumerate(elements):
            names.append(name)
            cap = el.element_capacity()
            if cap is not None and cap.bps < capacity_bps:
                capacity_bps = cap.bps
                bottleneck = idx
                buffer_fn = getattr(el, "element_buffer", None)
                bottleneck_buffer = buffer_fn() if callable(buffer_fn) else None
            latency += el.element_latency().s
            p = el.element_loss_probability()
            if not 0.0 <= p <= 1.0:
                raise TopologyError(
                    f"element {name!r} reported loss probability {p} outside [0,1]"
                )
            seg_loss.append(p)
            survive *= (1.0 - p)
            ctx = el.transform_flow(ctx)
            if isinstance(el, Link):
                mtu_bits = min(mtu_bits, el.mtu.bits)

        if capacity_bps == float("inf"):
            raise TopologyError(
                f"path {path!r} has no capacity-constraining element; "
                "every real path must include at least one link or NIC"
            )
        if mtu_bits == float("inf"):
            from .link import ETHERNET_MTU
            mtu_bits = ETHERNET_MTU.bits
        mtu = DataSize(mtu_bits)
        # Clamp the MSS to the path MTU (minus 40 B TCP/IP headers, plus 12 B
        # for timestamps when window scaling survives — simplified to 40 B).
        max_mss = DataSize(mtu.bits - 40 * 8)
        if ctx.mss.bits > max_mss.bits:
            ctx = ctx.with_(mss=max_mss)
        return PathProfile(
            capacity=DataRate(capacity_bps),
            one_way_latency=TimeDelta(latency),
            random_loss=1.0 - survive,
            mtu=mtu,
            flow=ctx,
            element_names=tuple(names),
            segment_loss=tuple(seg_loss),
            bottleneck_index=bottleneck,
            bottleneck_buffer=bottleneck_buffer,
        )

    def profile_between(self, src, dst, **path_kwargs) -> PathProfile:
        """Shorthand: route then profile."""
        flow = path_kwargs.pop("flow", None)
        return self.profile(self.path(src, dst, **path_kwargs), flow=flow)

    @staticmethod
    def _mss_for_mtu(mtu: DataSize) -> DataSize:
        return DataSize(max(mtu.bits - 40 * 8, 64 * 8))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Topology({self.name!r}, nodes={self.node_count}, "
                f"links={self.link_count})")


def _names(keyword: str, value: Iterable) -> Iterable:
    """``value`` unchanged, unless it is a bare string.

    Iterating a string yields its characters, so
    ``forbid_node_kinds="firewall"`` would silently forbid nothing.
    """
    if isinstance(value, str):
        raise ConfigurationError(
            f"{keyword} takes a collection of names, not the string "
            f"{value!r}; write {keyword}=({value!r},)")
    return value
