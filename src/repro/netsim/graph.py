"""A small undirected graph and its source-target shortest paths.

Routing in this package asks one question: the shortest path between two
nodes, perhaps over a filtered view of the graph (policy routing, stubs
that never transit).  :meth:`Graph.shortest_path` answers it with a
bidirectional Dijkstra when edges are weighted and a bidirectional BFS
when they are not.  Both follow networkx's ``bidirectional_dijkstra`` and
``bidirectional_shortest_path`` step for step, because on graphs with
equal-cost paths (a ring of equal delays) the tie-breaks decide which
route wins, and routes feed every golden digest:

* the weighted search alternates direction on every pop, forward first;
  heap entries are ``(dist, seq, node)`` with ``seq`` one counter shared by
  both heaps; the best meeting node is updated whenever a relaxed node is
  already seen from the other side, and the search stops the first time
  a node is settled from both sides;
* the unweighted search expands the smaller fringe a whole level at a
  time (forward on a tie) and returns at the first meeting;
* neighbours are visited in edge-insertion order, the node filter is
  applied to each neighbour and the edge filter called as ``(v, w)``
  with ``v`` the node being expanded.

A plain one-sided Dijkstra finds equally short paths but not the same
ones (see ``docs/performance.md``, "Routing without networkx").
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import (Any, Callable, Dict, Hashable, Iterable, Iterator, List,
                    Optional, Tuple)

__all__ = ["Graph", "NoPath"]

NodeFilter = Callable[[Hashable], bool]
EdgeFilter = Callable[[Hashable, Hashable], bool]


class NoPath(Exception):
    """No path joins the endpoints, or an endpoint is absent or filtered."""


class Graph:
    """Undirected adjacency ``{node: {neighbour: data}}``.

    Both directions of an edge share one ``data`` dict.  Nodes and each
    node's neighbours keep insertion order; removing an edge and adding
    it again moves it to the end of both endpoints' neighbour lists.

    Examples
    --------
    >>> g = Graph(["a", "b", "c", "d"])
    >>> g.add_edge("a", "b", weight=1.0)
    >>> g.add_edge("b", "d", weight=1.0)
    >>> g.add_edge("a", "c", weight=1.0)
    >>> g.add_edge("c", "d", weight=1.0)
    >>> g.shortest_path("a", "d", weight="weight")
    ['a', 'b', 'd']
    >>> g.shortest_path("a", "d", node_ok=lambda n: n != "b")
    ['a', 'c', 'd']
    """

    __slots__ = ("adj",)

    def __init__(self, nodes: Iterable[Hashable] = ()) -> None:
        self.adj: Dict[Hashable, Dict[Hashable, dict]] = {}
        for node in nodes:
            self.add_node(node)

    def add_node(self, node: Hashable) -> None:
        if node not in self.adj:
            self.adj[node] = {}

    def add_edge(self, u: Hashable, v: Hashable, **data: Any) -> None:
        """Add edge ``u``-``v``, or update the data of an existing one."""
        self.add_node(u)
        self.add_node(v)
        shared = self.adj[u].get(v)
        if shared is None:
            shared = data
        else:
            shared.update(data)
        self.adj[u][v] = self.adj[v][u] = shared

    def remove_edge(self, u: Hashable, v: Hashable) -> None:
        del self.adj[u][v]
        if u != v:
            del self.adj[v][u]

    def edge(self, u: Hashable, v: Hashable) -> Optional[dict]:
        """The data dict of edge ``u``-``v``; ``None`` if there is none."""
        nbrs = self.adj.get(u)
        return None if nbrs is None else nbrs.get(v)

    def edges(self) -> Iterator[Tuple[Hashable, Hashable, dict]]:
        """Each edge once as ``(u, v, data)``: nodes in insertion order,
        each node's neighbours in insertion order, skipping neighbours
        already yielded as a node."""
        done = set()
        for u, nbrs in self.adj.items():
            for v, data in nbrs.items():
                if v not in done:
                    yield u, v, data
            done.add(u)

    def shortest_path(self, src: Hashable, dst: Hashable, *,
                      weight: Optional[str] = None,
                      node_ok: Optional[NodeFilter] = None,
                      edge_ok: Optional[EdgeFilter] = None) -> List[Hashable]:
        """Nodes of a shortest ``src``-``dst`` path, both ends included.

        ``weight`` names the edge-data key holding each edge's
        (non-negative) cost; without it every edge costs one hop.  Only
        nodes passing ``node_ok`` (endpoints included) and edges passing
        ``edge_ok`` are used.  Raises :class:`NoPath` when an endpoint is
        missing or filtered out, or when the endpoints are not connected.
        """
        adj = self.adj
        for end in (src, dst):
            if end not in adj or (node_ok is not None and not node_ok(end)):
                raise NoPath(f"node {end!r} is not in the graph")
        if node_ok is None and edge_ok is None:
            def neighbours(v):
                return adj[v].items()
        else:
            node_ok = node_ok or _any
            edge_ok = edge_ok or _any

            def neighbours(v):
                return [(w, d) for w, d in adj[v].items()
                        if node_ok(w) and edge_ok(v, w)]
        if weight is None:
            return _bidirectional_bfs(neighbours, src, dst)
        return _bidirectional_dijkstra(neighbours, src, dst, weight)


def _any(*_nodes) -> bool:
    return True


def _bidirectional_dijkstra(neighbours, src, dst, weight: str) -> list:
    if src == dst:
        return [src]
    dists: List[dict] = [{}, {}]
    preds: List[dict] = [{src: None}, {dst: None}]
    seen: List[dict] = [{src: 0}, {dst: 0}]
    fringe: List[list] = [[], []]
    seq = count()
    heappush(fringe[0], (0, next(seq), src))
    heappush(fringe[1], (0, next(seq), dst))
    finaldist = meetnode = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        settled = dists[direction]
        if v in settled:
            continue
        settled[v] = dist
        if v in dists[1 - direction]:
            return _join(preds[0], preds[1], meetnode)
        here, there = seen[direction], seen[1 - direction]
        for w, data in neighbours(v):
            if w in settled:
                continue
            length = dist + data[weight]
            if w not in here or length < here[w]:
                here[w] = length
                heappush(fringe[direction], (length, next(seq), w))
                preds[direction][w] = v
                if w in there:
                    total = length + there[w]
                    if finaldist is None or finaldist > total:
                        finaldist, meetnode = total, w
    raise NoPath(f"no path between {src!r} and {dst!r}")


def _bidirectional_bfs(neighbours, src, dst) -> list:
    if src == dst:
        return [src]
    pred: dict = {src: None}
    succ: dict = {dst: None}
    forward_fringe, reverse_fringe = [src], [dst]
    while forward_fringe and reverse_fringe:
        if len(forward_fringe) <= len(reverse_fringe):
            level, forward_fringe = forward_fringe, []
            for v in level:
                for w, _ in neighbours(v):
                    if w not in pred:
                        forward_fringe.append(w)
                        pred[w] = v
                    if w in succ:
                        return _join(pred, succ, w)
        else:
            level, reverse_fringe = reverse_fringe, []
            for v in level:
                for w, _ in neighbours(v):
                    if w not in succ:
                        succ[w] = v
                        reverse_fringe.append(w)
                    if w in pred:
                        return _join(pred, succ, w)
    raise NoPath(f"no path between {src!r} and {dst!r}")


def _join(pred: dict, succ: dict, meet) -> list:
    """``pred`` leads from ``meet`` back to the source, ``succ`` on to the
    target."""
    path = []
    node = meet
    while node is not None:
        path.append(node)
        node = pred[node]
    path.reverse()
    node = succ[meet]
    while node is not None:
        path.append(node)
        node = succ[node]
    return path
