"""The in-package router against networkx, path for path.

:class:`repro.netsim.graph.Graph` ports the two searches a
source-target ``nx.shortest_path`` dispatches to: ``bidirectional_dijkstra``
when a weight is given and ``bidirectional_shortest_path`` when not.  On
graphs with equal-cost paths the two sides must still pick the *same*
path, so the cases here draw tied weights from a three-value set, node and
edge filters (networkx's ``subgraph_view``), and edge removals followed
by re-adds (which move an edge to the end of its endpoints' neighbour
order).  ``Topology.path`` is checked the same way against the
networkx-based router it replaced, waypoints and policy keywords
included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.netsim import Host, Link, Router, Switch, Topology
from repro.netsim.graph import Graph, NoPath
from repro.units import Gbps, ms

nx = pytest.importorskip("networkx")

WEIGHTS = (0.5, 1.0, 2.0)


def _nx_path(graph, src, dst, **kwargs):
    try:
        return nx.shortest_path(graph, src, dst, **kwargs)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def _path(graph, src, dst, **kwargs):
    try:
        return graph.shortest_path(src, dst, **kwargs)
    except NoPath:
        return None


@st.composite
def graph_cases(draw):
    """Node count, an add/remove/re-add edge history, and filters."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    history = []
    present = []
    for _ in range(draw(st.integers(0, 3 * n))):
        if present and draw(st.integers(0, 3)) == 0:
            edge = present.pop(draw(st.integers(0, len(present) - 1)))
            history.append(("remove",) + edge)
            if draw(st.booleans()):
                weight = draw(st.sampled_from(WEIGHTS))
                history.append(("add",) + edge + (weight,))
                present.append(edge)
        else:
            u, v = draw(node), draw(node)
            history.append(("add", u, v, draw(st.sampled_from(WEIGHTS))))
            if (u, v) not in present and (v, u) not in present:
                present.append((u, v))
    banned_nodes = draw(st.none() | st.frozensets(node, max_size=n // 2))
    banned_edges = draw(st.none() | st.frozensets(
        st.frozensets(node, min_size=1, max_size=2), max_size=n))
    return n, history, banned_nodes, banned_edges


def _build(n, history):
    ours, theirs = Graph(range(n)), nx.Graph()
    theirs.add_nodes_from(range(n))
    for op, u, v, *weight in history:
        if op == "add":
            ours.add_edge(u, v, weight=weight[0])
            theirs.add_edge(u, v, weight=weight[0])
        else:
            ours.remove_edge(u, v)
            theirs.remove_edge(u, v)
    return ours, theirs


@settings(max_examples=300, deadline=None)
@given(graph_cases())
def test_shortest_path_matches_networkx(case):
    n, history, banned_nodes, banned_edges = case
    ours, theirs = _build(n, history)
    assert list(ours.edges()) == list(theirs.edges(data=True))
    node_ok = edge_ok = None
    view = theirs
    if banned_nodes is not None:
        def node_ok(x):
            return x not in banned_nodes
    if banned_edges is not None:
        def edge_ok(a, b):
            return frozenset((a, b)) not in banned_edges
    if node_ok or edge_ok:
        view = nx.subgraph_view(
            theirs, filter_node=node_ok or nx.filters.no_filter,
            filter_edge=edge_ok or nx.filters.no_filter)
    for src in range(n + 1):          # node n is absent from both graphs
        for dst in range(n + 1):
            for weight in ("weight", None):
                assert _path(ours, src, dst, weight=weight, node_ok=node_ok,
                             edge_ok=edge_ok) == _nx_path(
                    view, src, dst, weight=weight), (src, dst, weight)


def test_readded_edge_moves_to_the_end():
    g = Graph("abc")
    g.add_edge("a", "b", w=1)
    g.add_edge("a", "c", w=2)
    g.remove_edge("a", "b")
    g.add_edge("a", "b", w=3)
    assert list(g.adj["a"]) == ["c", "b"]
    assert g.edge("b", "a") is g.edge("a", "b") == {"w": 3}
    assert g.edge("b", "c") is None and g.edge("z", "a") is None


def test_no_path_cases():
    g = Graph("abc")
    g.add_edge("a", "b", weight=1.0)
    for weight in ("weight", None):
        with pytest.raises(NoPath):
            g.shortest_path("a", "c", weight=weight)
        with pytest.raises(NoPath):
            g.shortest_path("a", "z", weight=weight)
        with pytest.raises(NoPath):
            g.shortest_path("a", "b", weight=weight,
                            node_ok=lambda x: x != "b")
        with pytest.raises(NoPath):
            g.shortest_path("a", "b", weight=weight,
                            edge_ok=lambda u, v: False)
        assert g.shortest_path("c", "c", weight=weight) == ["c"]


# -- Topology.path against the networkx router it replaced ----------------

NODE_KINDS = (Host, Router, Switch)
NODE_TAGS = ("firewall", "dmz")
LINK_TAGS = ("science", "enterprise")
POLICIES = (
    {},
    {"require_link_tags": ("science",)},
    {"forbid_link_tags": ("enterprise",)},
    {"forbid_node_tags": ("firewall",)},
    {"forbid_node_kinds": ("switch",)},
    {"require_link_tags": ("science",), "forbid_node_tags": ("dmz",),
     "forbid_node_kinds": ("router",)},
)


def _nx_route(graph, nodes, src, dst, require=frozenset(),
              forbid_l=frozenset(), forbid_nt=frozenset(),
              forbid_nk=frozenset(), via=()):
    """``Topology._route`` as it was on networkx; node names or ``None``."""
    def link_ok(u, v, data):
        link = data["link"]
        if require and not require <= link.tags:
            return False
        if forbid_l and link.tags & forbid_l:
            return False
        return True

    def node_ok(name):
        node = nodes[name]
        if name in (src, dst):
            return True
        if forbid_nt and node.tags & forbid_nt:
            return False
        if forbid_nk and node.kind in forbid_nk:
            return False
        return True

    view = graph
    if require or forbid_l or forbid_nt or forbid_nk:
        view = nx.subgraph_view(
            view, filter_node=node_ok,
            filter_edge=lambda u, v: link_ok(u, v, graph[u][v]))
    waypoints = (src,) + tuple(via) + (dst,)
    names = [src]
    for a, b in zip(waypoints, waypoints[1:]):
        seg = _nx_path(view, a, b, weight="weight")
        if seg is None:
            return None
        names.extend(seg[1:])
    return names


@st.composite
def topology_cases(draw):
    n = draw(st.integers(2, 10))
    kinds = draw(st.lists(st.sampled_from(NODE_KINDS), min_size=n,
                          max_size=n))
    tags = draw(st.lists(st.frozensets(st.sampled_from(NODE_TAGS)),
                         min_size=n, max_size=n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    links = draw(st.lists(st.tuples(
        pair, st.sampled_from(WEIGHTS),
        st.frozensets(st.sampled_from(LINK_TAGS))), max_size=3 * n))
    removals = draw(st.lists(st.tuples(st.integers(0, 3 * n),
                                       st.booleans()), max_size=n))
    vias = draw(st.lists(st.integers(0, n - 1), max_size=2))
    return n, kinds, tags, links, removals, vias


@settings(max_examples=100, deadline=None)
@given(topology_cases())
def test_topology_path_matches_networkx_router(case):
    n, kinds, tags, links, removals, vias = case
    topo, graph, nodes = Topology("diff"), nx.Graph(), {}
    for i in range(n):
        node = nodes[f"n{i}"] = topo.add_node(
            kinds[i](name=f"n{i}", tags=tags[i]))
        graph.add_node(node.name)
    connected = []
    for (u, v), delay_ms, link_tags in links:
        a, b = f"n{u}", f"n{v}"
        if graph.has_edge(a, b):
            continue
        link = topo.connect(a, b, Link(rate=Gbps(10), delay=ms(delay_ms),
                                       tags=link_tags))
        graph.add_edge(a, b, link=link, weight=link.delay.s + 1e-9)
        connected.append((a, b, link))
    for index, readd in removals:
        if not connected:
            break
        a, b, link = connected.pop(index % len(connected))
        topo.remove_link(a, b)
        graph.remove_edge(a, b)
        if readd:
            topo.connect(a, b, link)
            graph.add_edge(a, b, link=link, weight=link.delay.s + 1e-9)
            connected.append((a, b, link))
    assert topo.links() == [d["link"] for _, _, d in graph.edges(data=True)]
    assert topo.link_count == graph.number_of_edges()
    via = tuple(f"n{i}" for i in vias)
    for policy in POLICIES:
        constraints = {key: frozenset(value) for key, value in (
            ("require", policy.get("require_link_tags", ())),
            ("forbid_l", policy.get("forbid_link_tags", ())),
            ("forbid_nt", policy.get("forbid_node_tags", ())),
            ("forbid_nk", policy.get("forbid_node_kinds", ())))}
        for waypoints in ((), via):
            for src in nodes:
                for dst in nodes:
                    want = _nx_route(graph, nodes, src, dst,
                                     via=waypoints, **constraints)
                    try:
                        path = topo.path(src, dst, via=waypoints, **policy)
                    except RoutingError:
                        got = None
                    else:
                        got = [node.name for node in path.nodes]
                        assert path.links == tuple(
                            graph[u][v]["link"]
                            for u, v in zip(got, got[1:]))
                    assert got == want, (src, dst, policy, waypoints)
