"""The route cache in :meth:`Topology.path`.

A route can change only when the topology's structure does, so
``Topology.path`` memoizes each route and the three structural
mutators (``add_node``, ``connect``, ``remove_link``) clear the cache.
These tests pin that contract: repeated and equivalently-spelled
queries share one cached :class:`Path`, every mutation re-routes, a
``RoutingError`` is never cached, and a random mutation/query sequence
routes exactly as a freshly built topology does.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import simple_science_dmz
from repro.devices.firewall import Firewall
from repro.errors import ConfigurationError, RoutingError
from repro.netsim import Link, Topology
from repro.netsim.node import Node, Router
from repro.perfsonar import Metric
from repro.scenario import Scenario
from repro.units import Gbps, minutes, ms, us


def firewall_diamond():
    """a -> b through a firewall (short) or a router (long)."""
    topo = Topology("diamond")
    topo.add_host("a", nic_rate=Gbps(10))
    topo.add_host("b", nic_rate=Gbps(10))
    topo.add_node(Firewall(name="fw"))
    topo.add_node(Router(name="r"))
    topo.connect("a", "fw", Link(rate=Gbps(10), delay=ms(1)))
    topo.connect("fw", "b", Link(rate=Gbps(10), delay=ms(1)))
    topo.connect("a", "r", Link(rate=Gbps(10), delay=ms(5), tags={"science"}))
    topo.connect("r", "b", Link(rate=Gbps(10), delay=ms(5), tags={"science"}))
    return topo


class TestCacheHits:
    def test_repeated_query_returns_same_path(self):
        topo = firewall_diamond()
        first = topo.path("a", "b", forbid_node_kinds=("firewall",))
        assert first.node_names() == ["a", "r", "b"]
        assert topo.path("a", "b", forbid_node_kinds=("firewall",)) is first

    def test_collection_spellings_share_one_entry(self):
        topo = firewall_diamond()
        first = topo.path("a", "b", forbid_node_kinds=["firewall"],
                          require_link_tags=("science",))
        for kinds in (("firewall",), frozenset({"firewall"}),
                      ["firewall", "firewall"]):
            for tags in (["science"], frozenset({"science"})):
                assert topo.path("a", "b", forbid_node_kinds=kinds,
                                 require_link_tags=tags) is first

    def test_node_objects_and_names_share_one_entry(self):
        topo = firewall_diamond()
        first = topo.path("a", "b", via=["r"])
        a, b, r = topo.node("a"), topo.node("b"), topo.node("r")
        assert topo.path(a, b, via=(r,)) is first
        assert topo.path("a", b, via=[r]) is first

    def test_via_order_is_part_of_the_key(self):
        topo = Topology("line")
        for i in range(4):
            topo.add_node(Router(name=f"n{i}"))
        for i in range(3):
            topo.connect(f"n{i}", f"n{i + 1}",
                         Link(rate=Gbps(10), delay=ms(1)))
        forward = topo.path("n0", "n3", via=["n1", "n2"])
        backward = topo.path("n0", "n3", via=["n2", "n1"])
        assert forward.node_names() == ["n0", "n1", "n2", "n3"]
        assert backward.node_names() == ["n0", "n1", "n2", "n1", "n2", "n3"]

    def test_policies_are_separate_entries(self):
        topo = firewall_diamond()
        default = topo.path("a", "b")
        science = topo.path("a", "b", forbid_node_kinds=("firewall",))
        assert default.node_names() == ["a", "fw", "b"]
        assert science.node_names() == ["a", "r", "b"]
        assert topo.path("a", "b") is default

    def test_profile_is_not_cached(self):
        topo = firewall_diamond()
        assert topo.profile_between("a", "b").random_loss == 0.0
        topo.link_between("a", "fw").degrade(loss_probability=0.01)
        assert topo.profile_between("a", "b").random_loss == pytest.approx(0.01)


class TestInvalidation:
    def test_remove_link_reroutes(self):
        topo = firewall_diamond()
        assert topo.path("a", "b").node_names() == ["a", "fw", "b"]
        topo.remove_link("fw", "b")
        assert topo.path("a", "b").node_names() == ["a", "r", "b"]

    def test_connect_takes_new_shorter_link(self):
        topo = firewall_diamond()
        before = topo.path("a", "b", forbid_node_kinds=("firewall",))
        topo.connect("a", "b", Link(rate=Gbps(10), delay=us(10)))
        after = topo.path("a", "b", forbid_node_kinds=("firewall",))
        assert before.node_names() == ["a", "r", "b"]
        assert after.node_names() == ["a", "b"]

    def test_add_node_clears_cache(self):
        topo = firewall_diamond()
        before = topo.path("a", "b")
        topo.add_host("c")
        after = topo.path("a", "b")
        assert after is not before
        assert after.node_names() == before.node_names()

    def test_scenario_link_cut_is_seen_by_the_mesh(self):
        bundle = simple_science_dmz()
        topo = bundle.topology
        policy = bundle.science_policy
        # Warm the cache with the route the mesh will test.
        topo.path("dmz-perfsonar", "remote-dtn", **policy)
        scenario = Scenario(bundle, seed=11).with_mesh(
            ["dmz-perfsonar", "remote-dtn"]).cut_link(
                "border", "wan", at=minutes(20))
        outcome = scenario.run(until=minutes(40))
        times, values = outcome.archive.series(
            "dmz-perfsonar", "remote-dtn", Metric.LOSS_RATE)
        assert (values[times < minutes(20).s] < 1.0).all()
        assert (values[times >= minutes(20).s] == 1.0).all()
        with pytest.raises(RoutingError):
            topo.path("dmz-perfsonar", "remote-dtn", **policy)


class TestErrors:
    def test_routing_error_raised_on_every_call(self):
        topo = firewall_diamond()
        topo.add_host("island")
        for _ in range(3):
            with pytest.raises(RoutingError):
                topo.path("a", "island")
        topo.connect("b", "island", Link(rate=Gbps(1), delay=ms(1)))
        assert topo.path("a", "island").node_names()[-1] == "island"

    @pytest.mark.parametrize("keyword", [
        "require_link_tags", "forbid_link_tags", "forbid_node_tags",
        "forbid_node_kinds", "via",
    ])
    def test_bare_string_rejected(self, keyword):
        topo = firewall_diamond()
        with pytest.raises(ConfigurationError, match=keyword):
            topo.path("a", "b", **{keyword: "firewall"})


# -- differential: cached routing vs a freshly built topology -----------------

NAMES = [f"n{i}" for i in range(6)]
KINDS = ["router", "switch", "firewall"]
TAGS = ["science", "enterprise"]


def _build(nodes, links) -> Topology:
    """A fresh topology from a model: ``nodes`` maps name -> (kind,
    tags) in insertion order, ``links`` maps a sorted name pair ->
    (delay exponent, tags)."""
    topo = Topology("fresh")
    for name, (kind, tags) in nodes.items():
        topo.add_node(Node(name=name, kind=kind, tags=tags))
    for (a, b), (k, tags) in sorted(links.items()):
        topo.connect(a, b, _link(k, tags))
    return topo


def _link(k: int, tags) -> Link:
    # Delays are distinct powers of two microseconds, so no two
    # different link sets sum to the same latency: shortest paths are
    # unique and cannot depend on the graph's insertion order.
    return Link(rate=Gbps(10), delay=us(2 ** k), tags=tags)


def _route(topo, src, dst, policy):
    try:
        return topo.path(src, dst, **policy).node_names()
    except RoutingError:
        return None


node_spec = st.tuples(st.sampled_from(KINDS),
                      st.frozensets(st.sampled_from(TAGS), max_size=1))
policies = st.fixed_dictionaries({}, optional={
    "require_link_tags": st.lists(st.sampled_from(TAGS), max_size=1),
    "forbid_link_tags": st.lists(st.sampled_from(TAGS), max_size=1),
    "forbid_node_tags": st.lists(st.sampled_from(TAGS), max_size=1),
    "forbid_node_kinds": st.lists(st.sampled_from(KINDS), max_size=1),
    "via": st.lists(st.sampled_from(NAMES), max_size=2),
})


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_fresh_topology(self, data):
        nodes = {}
        links = {}
        topo = Topology("mutated")
        next_k = 0
        for _ in range(data.draw(st.integers(4, 30), label="steps")):
            op = data.draw(st.sampled_from(
                ["add", "connect", "remove", "query", "query"]))
            present = list(nodes)
            if op == "add" or len(present) < 2:
                free = [n for n in NAMES if n not in nodes]
                if not free:
                    continue
                name = data.draw(st.sampled_from(free))
                nodes[name] = data.draw(node_spec)
                topo.add_node(Node(name=name, kind=nodes[name][0],
                                   tags=nodes[name][1]))
            elif op == "connect":
                a, b = sorted(data.draw(st.lists(
                    st.sampled_from(present), min_size=2, max_size=2,
                    unique=True)))
                if (a, b) in links:
                    continue
                tags = data.draw(st.frozensets(st.sampled_from(TAGS),
                                               max_size=1))
                links[(a, b)] = (next_k, tags)
                topo.connect(a, b, _link(next_k, tags))
                next_k += 1
            elif op == "remove":
                if not links:
                    continue
                a, b = data.draw(st.sampled_from(sorted(links)))
                del links[(a, b)]
                topo.remove_link(b, a)
            else:
                src, dst = data.draw(st.lists(st.sampled_from(present),
                                              min_size=2, max_size=2,
                                              unique=True))
                policy = data.draw(policies)
                if any(w not in nodes for w in policy.get("via", ())):
                    continue
                expected = _route(_build(nodes, links), src, dst, policy)
                assert _route(topo, src, dst, policy) == expected
                # Asked again, the (possibly cached) answer still holds.
                assert _route(topo, src, dst, policy) == expected
                # A constraint nothing matches changes no route: an
                # unconstrained query skips the filtered graph view,
                # and both must agree.
                no_op = dict(policy, forbid_node_kinds=list(
                    policy.get("forbid_node_kinds", ())) + ["no-such-kind"])
                assert _route(topo, src, dst, no_op) == expected
