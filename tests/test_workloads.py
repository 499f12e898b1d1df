"""Tests for workload and traffic generation."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads import (
    BackgroundProfile,
    CARBON14_INPUTS,
    FileSizeDistribution,
    LHC_DAILY_REPLICATION,
    NOAA_GEFS_FULL_PULL,
    NOAA_GEFS_SAMPLE,
    climate_archive_pull,
    enterprise_background_sources,
    lhc_tier2_fanin,
    lightsource_bursts,
    make_dataset,
    wan_backbone,
)
from repro.units import GB, Kbps, MB, Mbps, TB, minutes


class TestNamedDatasets:
    def test_noaa_sample_matches_paper(self):
        # §6.3: "273 files with a total size of 239.5GB".
        assert NOAA_GEFS_SAMPLE.file_count == 273
        assert NOAA_GEFS_SAMPLE.total_size.gigabytes == pytest.approx(239.5)

    def test_noaa_full_pull(self):
        assert NOAA_GEFS_FULL_PULL.total_size.terabytes == pytest.approx(170)

    def test_carbon14_matches_paper(self):
        # §6.4: 20 files of ~33 GB.
        assert CARBON14_INPUTS.file_count == 20
        assert CARBON14_INPUTS.mean_file_size.gigabytes == pytest.approx(33)

    def test_lhc_scale(self):
        assert LHC_DAILY_REPLICATION.total_size.terabytes == pytest.approx(100)


class TestMakeDataset:
    def test_by_file_count(self):
        ds = make_dataset("d", GB(100), file_count=50)
        assert ds.file_count == 50

    def test_by_mean_file(self):
        ds = make_dataset("d", GB(100), mean_file=GB(2))
        assert ds.file_count == 50

    def test_exactly_one_spec_required(self):
        with pytest.raises(ConfigurationError):
            make_dataset("d", GB(1))
        with pytest.raises(ConfigurationError):
            make_dataset("d", GB(1), file_count=1, mean_file=GB(1))


class TestFileSizeDistribution:
    def test_sample_count_and_floor(self, rng):
        dist = FileSizeDistribution(median=MB(100), sigma=1.5, floor=MB(1))
        sizes = dist.sample(500, rng)
        assert len(sizes) == 500
        assert all(s.bits >= MB(1).bits for s in sizes)

    def test_median_approximately_respected(self, rng):
        dist = FileSizeDistribution(median=MB(100), sigma=1.0)
        sizes = sorted(s.bits for s in dist.sample(2001, rng))
        median = sizes[1000]
        assert median == pytest.approx(MB(100).bits, rel=0.25)

    def test_sample_dataset(self, rng):
        dist = FileSizeDistribution(median=MB(10))
        ds = dist.sample_dataset("synth", 100, rng)
        assert ds.file_count == 100
        assert ds.total_size.bits > 0

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            FileSizeDistribution(median=MB(0))
        dist = FileSizeDistribution(median=MB(10))
        with pytest.raises(ConfigurationError):
            dist.sample(0, rng)


class TestScienceWorkloads:
    def test_lhc_fanin_structure(self):
        wl = lhc_tier2_fanin(["site1", "site2", "site3"], "cluster",
                             per_site_size=GB(100))
        assert len(wl.flows) == 3
        assert all(f.dst == "cluster" for f in wl.flows)
        assert wl.total_bytes.gigabytes == pytest.approx(300)
        # Staggered starts.
        starts = [f.start.s for f in wl.flows]
        assert starts == sorted(starts) and starts[0] != starts[-1]

    def test_climate_pull_splits_evenly(self):
        wl = climate_archive_pull("archive", "home", total=TB(1),
                                  parallel_transfers=4)
        assert len(wl.flows) == 4
        assert wl.total_bytes.bits == pytest.approx(TB(1).bits)

    def test_lightsource_cycles(self):
        wl = lightsource_bursts("beamline", "compute",
                                dataset_per_cycle=GB(50), cycles=3,
                                cycle_gap=minutes(2))
        assert len(wl.flows) == 3
        assert wl.flows[2].start.s == pytest.approx(240)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            lhc_tier2_fanin([], "cluster")
        with pytest.raises(ConfigurationError):
            climate_archive_pull("a", "h", total=TB(1), parallel_transfers=0)
        with pytest.raises(ConfigurationError):
            lightsource_bursts("b", "c", dataset_per_cycle=GB(1), cycles=0)


class TestBackgroundTraffic:
    def test_aggregate_mean(self):
        profile = BackgroundProfile(flow_count=200, per_flow_mean=Kbps(500))
        assert profile.aggregate_mean.mbps == pytest.approx(100)

    def test_sources_generated(self):
        sources = enterprise_background_sources(count=50)
        assert len(sources) == 50
        assert all(s.mean_rate.bps <= s.line_rate.bps for s in sources)

    def test_flow_specs_bundled(self):
        profile = BackgroundProfile(flow_count=100)
        specs = profile.flow_specs("campus", "wan", bundle=10)
        assert len(specs) == 10
        total = sum(s.rate_limit.bps for s in specs)
        assert total == pytest.approx(profile.aggregate_mean.bps)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BackgroundProfile(flow_count=0)
        with pytest.raises(ConfigurationError):
            BackgroundProfile(per_flow_mean=Mbps(200),
                              per_flow_line_rate=Mbps(100))


class TestWanBackbone:
    def test_three_sites_build_a_plain_ring(self):
        topo = wan_backbone(3)
        # Three ring links and three uplinks; the core0-core2 chord
        # would duplicate a ring link, so there is none.
        assert topo.link_count == 6
        assert topo.path("site0", "site1").hop_count == 3

    def test_minimum_enforced(self):
        with pytest.raises(ConfigurationError):
            wan_backbone(2)

    def test_larger_backbones_unchanged(self):
        """Every n >= 4 builds the topology it built before 3-site
        backbones were allowed: node order, link endpoints in graph
        order, rates, delays and MTUs, for each chord spacing."""
        import hashlib
        import json
        digests = {}
        for n in range(4, 17):
            for chord_every in (0, 1, 2, 3):
                topo = wan_backbone(n, chord_every=chord_every)
                edges = [[u, v, d["link"].rate.bps, d["link"].delay.s,
                          d["link"].mtu.bits]
                         for u, v, d in topo._graph.edges()]
                text = json.dumps([list(topo._graph.adj), edges])
                digests[f"{n}/{chord_every}"] = hashlib.sha256(
                    text.encode()).hexdigest()
        assert digests["12/3"] == (
            "cf9304e5235e418f9289b24dbd60c7b5439d07119d00bfe2f45728b172fbf2b6")
        assert hashlib.sha256(json.dumps(
            sorted(digests.items())).encode()).hexdigest() == (
            "214458fa504d975dad9cb8785fde8ecf168382fb6a7b6a47c715a0b3e7c76060")
