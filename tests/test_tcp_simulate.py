"""Tests for the multi-flow fluid simulation and max-min fairness."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.netsim import FlowSpec, Link, Topology
from repro.tcp.simulate import MultiFlowSimulation, max_min_fair_allocation
from repro.units import GB, Gbps, MB, Mbps, bytes_, ms, seconds


class TestMaxMinFairness:
    def test_single_flow_gets_demand(self):
        alloc = max_min_fair_allocation(
            np.array([5e9]), np.array([[True]]), np.array([10e9]))
        assert alloc[0] == pytest.approx(5e9)

    def test_single_flow_capped_by_link(self):
        alloc = max_min_fair_allocation(
            np.array([20e9]), np.array([[True]]), np.array([10e9]))
        assert alloc[0] == pytest.approx(10e9)

    def test_equal_split_between_greedy_flows(self):
        alloc = max_min_fair_allocation(
            np.array([10e9, 10e9]),
            np.array([[True], [True]]),
            np.array([10e9]))
        assert alloc[0] == pytest.approx(5e9)
        assert alloc[1] == pytest.approx(5e9)

    def test_small_flow_satisfied_leftover_to_big(self):
        alloc = max_min_fair_allocation(
            np.array([1e9, 20e9]),
            np.array([[True], [True]]),
            np.array([10e9]))
        assert alloc[0] == pytest.approx(1e9)
        assert alloc[1] == pytest.approx(9e9)

    def test_disjoint_links_independent(self):
        alloc = max_min_fair_allocation(
            np.array([8e9, 8e9]),
            np.array([[True, False], [False, True]]),
            np.array([10e9, 10e9]))
        assert np.allclose(alloc, [8e9, 8e9])

    def test_multi_link_flow_takes_tightest(self):
        # Flow 0 crosses both links; flow 1 only the second.
        alloc = max_min_fair_allocation(
            np.array([10e9, 10e9]),
            np.array([[True, True], [False, True]]),
            np.array([2e9, 10e9]))
        assert alloc[0] == pytest.approx(2e9)
        assert alloc[1] == pytest.approx(8e9)

    def test_links_never_oversubscribed(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            f, l = rng.integers(1, 6), rng.integers(1, 4)
            demands = rng.uniform(1e8, 2e10, size=f)
            usage = rng.random((f, l)) < 0.6
            usage[:, 0] = True  # everyone crosses link 0
            caps = rng.uniform(1e9, 4e10, size=l)
            alloc = max_min_fair_allocation(demands, usage, caps)
            assert np.all(alloc <= demands + 1e-6)
            per_link = (alloc[:, None] * usage).sum(axis=0)
            assert np.all(per_link <= caps * (1 + 1e-9) + 1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            max_min_fair_allocation(np.array([1.0]),
                                    np.array([[True, False]]),
                                    np.array([1.0]))


class TestMultiFlow:
    def test_single_flow_completes(self, clean_path_topology):
        spec = FlowSpec(src="a", dst="b", size=GB(1), label="solo")
        sim = MultiFlowSimulation(clean_path_topology, [spec])
        progress = sim.run()
        assert progress["solo"].done
        assert progress["solo"].delivered.bits >= GB(1).bits * 0.999

    def test_two_flows_share_bottleneck(self, star_topology):
        specs = [
            FlowSpec(src="h1", dst="h3", size=GB(1), label="x"),
            FlowSpec(src="h2", dst="h3", size=GB(1), label="y"),
        ]
        sim = MultiFlowSimulation(star_topology, specs)
        progress = sim.run()
        # Both complete; the shared h3 access link halves each one's rate
        # relative to running alone, so neither finishes at full 10G pace.
        assert progress["x"].done and progress["y"].done
        solo = MultiFlowSimulation(
            star_topology, [FlowSpec(src="h1", dst="h3", size=GB(1),
                                     label="solo")]).run()["solo"]
        assert progress["x"].finish_time.s > solo.finish_time.s * 1.4

    def test_parallel_streams_fill_faster_than_one_under_loss(self):
        topo = Topology("lossy")
        topo.add_host("a", nic_rate=Gbps(10))
        topo.add_host("b", nic_rate=Gbps(10))
        topo.connect("a", "b", Link(rate=Gbps(10), delay=ms(20),
                                    mtu=bytes_(9000),
                                    loss_probability=1e-4))
        rng = np.random.default_rng(11)
        single = MultiFlowSimulation(
            topo, [FlowSpec(src="a", dst="b", size=GB(1), label="s1")],
            rng=rng).run()["s1"]
        rng = np.random.default_rng(11)
        multi = MultiFlowSimulation(
            topo, [FlowSpec(src="a", dst="b", size=GB(1),
                            parallel_streams=8, label="s8")],
            rng=rng).run()["s8"]
        assert multi.finish_time.s < single.finish_time.s

    def test_unbounded_needs_horizon(self, clean_path_topology):
        spec = FlowSpec(src="a", dst="b", size=None, label="bg")
        sim = MultiFlowSimulation(clean_path_topology, [spec])
        with pytest.raises(ConfigurationError):
            sim.run()

    def test_unbounded_flow_with_horizon(self, clean_path_topology):
        spec = FlowSpec(src="a", dst="b", size=None, label="bg",
                        rate_limit=Mbps(100))
        sim = MultiFlowSimulation(clean_path_topology, [spec])
        progress = sim.run(until=seconds(20))
        delivered = progress["bg"].delivered
        expected = Mbps(100).bps * 20
        assert delivered.bits == pytest.approx(expected, rel=0.25)

    def test_start_offsets_respected(self, clean_path_topology):
        specs = [
            FlowSpec(src="a", dst="b", size=MB(100), label="early"),
            FlowSpec(src="a", dst="b", size=MB(100), label="late",
                     start=seconds(5)),
        ]
        progress = MultiFlowSimulation(clean_path_topology, specs).run()
        assert progress["early"].finish_time.s < progress["late"].finish_time.s
        assert progress["late"].finish_time.s > 5.0

    def test_duplicate_labels_rejected(self, clean_path_topology):
        specs = [FlowSpec(src="a", dst="b", size=GB(1), label="dup"),
                 FlowSpec(src="b", dst="a", size=GB(1), label="dup")]
        with pytest.raises(ConfigurationError):
            MultiFlowSimulation(clean_path_topology, specs)

    def test_lossy_path_requires_rng(self):
        topo = Topology("lossy2")
        topo.add_host("a", nic_rate=Gbps(1))
        topo.add_host("b", nic_rate=Gbps(1))
        topo.connect("a", "b", Link(rate=Gbps(1), delay=ms(5),
                                    loss_probability=0.01))
        with pytest.raises(ConfigurationError):
            MultiFlowSimulation(topo, [FlowSpec(src="a", dst="b",
                                                size=MB(10), label="f")])

    def test_per_flow_algorithms(self, clean_path_topology):
        specs = [FlowSpec(src="a", dst="b", size=MB(100), label="f")]
        sim = MultiFlowSimulation(clean_path_topology, specs,
                                  algorithm={"f": "htcp"})
        progress = sim.run()
        assert progress["f"].done

    def test_aggregate_delivered(self, star_topology):
        specs = [FlowSpec(src="h1", dst="h2", size=MB(50), label="m1"),
                 FlowSpec(src="h3", dst="h4", size=MB(50), label="m2")]
        sim = MultiFlowSimulation(star_topology, specs)
        sim.run()
        assert sim.aggregate_delivered().bits >= MB(100).bits * 0.999

    def test_profile_lookup(self, clean_path_topology):
        sim = MultiFlowSimulation(
            clean_path_topology,
            [FlowSpec(src="a", dst="b", size=MB(1), label="f")])
        assert sim.profile_of("f").capacity.gbps == pytest.approx(10)
        with pytest.raises(ConfigurationError):
            sim.profile_of("ghost")


class TestFlowSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FlowSpec(src="a", dst="a")
        with pytest.raises(ConfigurationError):
            FlowSpec(src="a", dst="b", parallel_streams=0)
        with pytest.raises(ConfigurationError):
            FlowSpec(src="", dst="b")

    def test_per_stream_size(self):
        spec = FlowSpec(src="a", dst="b", size=GB(4), parallel_streams=4)
        assert spec.per_stream_size().gigabytes == pytest.approx(1.0)
        assert FlowSpec(src="a", dst="b").per_stream_size() is None

    def test_describe(self):
        spec = FlowSpec(src="a", dst="b", size=GB(4), parallel_streams=4,
                        label="demo")
        text = spec.describe()
        assert "demo" in text and "x4" in text

    def test_zero_rate_limit_rejected_on_sized_flow(self):
        with pytest.raises(ConfigurationError, match="rate_limit"):
            FlowSpec(src="a", dst="b", size=MB(1), rate_limit=Mbps(0))
        spec = FlowSpec(src="a", dst="b", rate_limit=Mbps(0))
        assert spec.rate_limit.bps == 0.0


class TestZeroRateLimit:
    """A 0 bps cap holds a flow at zero; it is not "no cap"."""

    @pytest.mark.parametrize("backend", ["numpy", "fluid"])
    @pytest.mark.parametrize("kbps", [0, 1])
    def test_background_cap_holds(self, backend, kbps):
        from repro.units import Kbps
        from repro.workloads import BackgroundProfile, wan_backbone
        profile = BackgroundProfile(per_flow_mean=Kbps(kbps))
        specs = profile.flow_specs("site0", "site2")
        sim = MultiFlowSimulation(wan_backbone(4), specs, backend=backend)
        progress = sim.run(until=seconds(1))
        delivered = sum(p.delivered.bits for p in progress.values())
        # At most the aggregate cap for the 1 s horizon plus a tick.
        assert 0.0 <= delivered <= profile.aggregate_mean.bps * 1.1
        if kbps == 0:
            assert delivered == 0.0

    @pytest.mark.parametrize("backend", ["numpy", "fluid"])
    def test_zero_cap_flow_leaves_the_link_to_others(self, backend,
                                                     clean_path_topology):
        specs = [FlowSpec(src="a", dst="b", rate_limit=Mbps(0),
                          label="held"),
                 FlowSpec(src="a", dst="b", size=MB(50), label="bulk")]
        sim = MultiFlowSimulation(clean_path_topology, specs,
                                  backend=backend)
        progress = sim.run(until=seconds(5))
        assert progress["held"].delivered.bits == 0.0
        assert progress["bulk"].done
