"""The per-flow records: float-backed ``FlowSpec`` and ``FlowProgress``.

Both records keep sizes and times as plain floats and build the unit
wrappers on read, so a 100k-flow traffic matrix leaves few objects for
the cyclic collector to walk.  These tests pin the record semantics the
callers rely on (equal wrappers on read, frozen specs, equality,
pickling, every validation error) and the tracked-object budget itself.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.netsim import FlowSpec
from repro.tcp import FlowProgress, MultiFlowSimulation
from repro.units import DataSize, GB, MB, Mbps, TimeDelta, bps, seconds
from repro.workloads import (climate_archive_pull, lhc_tier2_fanin,
                             lightsource_bursts, traffic_matrix,
                             wan_backbone)

SITES = [f"site{i}" for i in range(12)]
POLICY = {"forbid_node_kinds": ("firewall",)}


class TestFlowSpecRecord:
    def test_sized_flow_reads_back_equal_wrappers(self):
        spec = FlowSpec(src="a", dst="b", size=MB(3), start=seconds(2.5))
        assert type(spec.size) is DataSize and spec.size == MB(3)
        assert type(spec.start) is TimeDelta and spec.start == seconds(2.5)
        assert spec.size_bits == MB(3).bits and spec.start_s == 2.5

    def test_unbounded_flow_and_default_start(self):
        spec = FlowSpec(src="a", dst="b")
        assert spec.size is None and spec.size_bits is None
        assert spec.start == seconds(0) and spec.start_s == 0.0
        assert spec.per_stream_size() is None
        assert spec.describe() == "a -> b: unbounded"

    def test_per_stream_size_and_describe(self):
        spec = FlowSpec(src="a", dst="b", size=GB(4), parallel_streams=4,
                        label="x")
        assert spec.per_stream_size() == GB(1)
        assert spec.describe() == "[x] a -> b: 4 GB x4 streams"

    @pytest.mark.parametrize("field", ["src", "size", "start", "size_bits",
                                       "policy", "label"])
    def test_assigning_a_field_raises(self, field):
        spec = FlowSpec(src="a", dst="b", size=MB(1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, field, None)

    def test_equality_hash_and_pickle(self):
        kwargs = dict(src="a", dst="b", size=MB(1), start=seconds(1),
                      policy=dict(POLICY), parallel_streams=2,
                      rate_limit=Mbps(100), label="f")
        spec = FlowSpec(**kwargs)
        assert spec == FlowSpec(**kwargs)
        assert spec != FlowSpec(**dict(kwargs, size=MB(2)))
        assert spec != FlowSpec(**dict(kwargs, start=seconds(2)))
        assert spec != FlowSpec(**dict(kwargs, size=None))
        with pytest.raises(TypeError):
            hash(spec)  # the policy dict is unhashable
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and clone.size == MB(1)
        assert clone.start == seconds(1) and clone.policy == POLICY

    def test_repr_names_the_wrappers(self):
        text = repr(FlowSpec(src="a", dst="b", size=MB(1), label="f"))
        assert text.startswith("FlowSpec(src='a', dst='b', size=DataSize(")
        assert "start=TimeDelta(" in text and "label='f'" in text

    @pytest.mark.parametrize("kwargs, message", [
        (dict(src="", dst="b"), "requires src and dst node names"),
        (dict(src="a", dst=""), "requires src and dst node names"),
        (dict(src="a", dst="a"), "endpoints must differ"),
        (dict(src="a", dst="b", parallel_streams=0),
         "parallel_streams must be >= 1, got 0"),
        (dict(src="a", dst="b", size=DataSize(0.0)),
         "size must be positive when given"),
        (dict(src="a", dst="b", size=MB(1), rate_limit=bps(0)),
         "rate_limit must be positive for a sized flow"),
    ])
    def test_every_validation_error_fires(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            FlowSpec(**kwargs)

    def test_zero_cap_is_allowed_on_an_unbounded_flow(self):
        spec = FlowSpec(src="a", dst="b", rate_limit=bps(0))
        assert spec.rate_limit == bps(0) and spec.size is None

    def test_default_policy_is_an_empty_mapping(self):
        assert FlowSpec(src="a", dst="b").policy == {}
        assert FlowSpec(src="a", dst="b", policy=None).policy == {}


class TestSharedPolicy:
    """Builders copy the caller's policy once and share the copy."""

    def _assert_shared(self, flows, given):
        first = flows[0].policy
        assert first == given and first is not given
        assert all(f.policy is first for f in flows)

    def test_traffic_matrix(self):
        given = dict(POLICY)
        matrix = traffic_matrix(SITES, n_flows=50,
                                rng=np.random.default_rng(0), policy=given)
        self._assert_shared(matrix.flows, given)

    def test_science_builders(self):
        given = dict(POLICY)
        workloads = [
            lhc_tier2_fanin(["s1", "s2", "s3"], "cluster", policy=given),
            climate_archive_pull("archive", "home", total=GB(40),
                                 policy=given),
            lightsource_bursts("beamline", "compute",
                               dataset_per_cycle=GB(1), policy=given),
        ]
        for workload in workloads:
            self._assert_shared(workload.flows, given)

    def test_science_builders_outputs_unchanged(self):
        fanin = lhc_tier2_fanin(["s1", "s2"], "cluster", policy=POLICY)
        assert fanin.flows == (
            FlowSpec(src="s1", dst="cluster", size=GB(200),
                     start=seconds(0), parallel_streams=2,
                     policy=dict(POLICY), label="cms-s1"),
            FlowSpec(src="s2", dst="cluster", size=GB(200),
                     start=seconds(5), parallel_streams=2,
                     policy=dict(POLICY), label="cms-s2"),
        )
        pull = climate_archive_pull("archive", "home", total=GB(40),
                                    parallel_transfers=2)
        assert [f.size for f in pull.flows] == [GB(20), GB(20)]
        assert all(f.policy == {} for f in pull.flows)
        assert pull.total_bytes == GB(40)
        bursts = lightsource_bursts("beamline", "compute",
                                    dataset_per_cycle=GB(1), cycles=3)
        assert [f.start for f in bursts.flows] == [
            seconds(0), seconds(120), seconds(240)]


class TestFlowProgressRecord:
    def test_fields_read_and_assign_as_unit_types(self):
        prog = FlowProgress(spec=FlowSpec(src="a", dst="b", size=MB(1)))
        assert prog.delivered == DataSize(0.0) and not prog.done
        assert prog.finish_time is None and prog.finish_s is None
        prog.delivered = MB(1)
        prog.finish_time = seconds(3)
        assert prog.delivered_bits == MB(1).bits and prog.finish_s == 3.0
        assert prog.delivered == MB(1) and prog.finish_time == seconds(3)
        assert prog.done
        assert prog.mean_throughput(seconds(10)).bps == MB(1).bits / 3.0
        prog.finish_time = None
        assert not prog.done

    def test_time_series_keeps_an_appended_sample(self):
        prog = FlowProgress(spec=FlowSpec(src="a", dst="b"))
        prog.time_series.append((1.0, 5e9))
        assert prog.time_series == [(1.0, 5e9)]

    def test_equality_ignores_whether_the_series_was_read(self):
        spec = FlowSpec(src="a", dst="b", size=MB(1))
        read, unread = FlowProgress(spec=spec), FlowProgress(spec=spec)
        assert read.time_series == []
        assert read == unread
        read.time_series.append((1.0, 1.0))
        assert read != unread

    def test_fluid_flows_read_an_empty_series(self):
        matrix = traffic_matrix(SITES, n_flows=200,
                                rng=np.random.default_rng(3),
                                mean_size=MB(1), arrival_window=seconds(1))
        sim = MultiFlowSimulation(wan_backbone(12), matrix.specs(),
                                  backend="fluid")
        progress = sim.run()
        assert all(p.done for p in progress.values())
        assert all(p.time_series == [] for p in progress.values())


def test_fluid_run_keeps_at_most_three_tracked_objects_per_flow():
    """A 10k-flow matrix through the fluid engine: the matrix, the
    simulation set-up and the run together leave at most three
    GC-tracked objects per flow (a spec and a progress record, plus the
    engine's per-class state spread over the flows)."""
    n_flows = 10_000
    kwargs = dict(mean_size=MB(1), arrival_window=seconds(2))
    topology = wan_backbone(12)
    # Pay lazy imports and route caches before counting.
    warm = traffic_matrix(SITES, n_flows=50, rng=np.random.default_rng(1),
                          **kwargs)
    MultiFlowSimulation(topology, warm.specs(), backend="fluid").run()
    gc.collect()
    before = len(gc.get_objects())
    matrix = traffic_matrix(SITES, n_flows=n_flows,
                            rng=np.random.default_rng(0), **kwargs)
    sim = MultiFlowSimulation(topology, matrix.specs(), backend="fluid")
    progress = sim.run()
    gc.collect()
    per_flow = (len(gc.get_objects()) - before) / n_flows
    assert len(progress) == n_flows
    assert per_flow <= 3.0, f"{per_flow:.2f} tracked objects per flow"
