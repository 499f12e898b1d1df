"""CampaignSpec contract: frozen, JSON round-trip, digest, validation."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.chaos import (
    CampaignSpec,
    FaultSpaceSpec,
    OracleSpec,
    TransferProbeSpec,
    sample_schedule,
    sample_schedules,
    schedule_seed,
)
from repro.errors import ConfigurationError
from repro.experiment import ExperimentSpec
from repro.experiment.spec import ScenarioSpec, spec_kinds


def full_spec(**overrides) -> CampaignSpec:
    base = dict(
        name="camp", seed=13, description="a test campaign",
        design="simple-science-dmz", until_s=2000.0,
        space=FaultSpaceSpec(
            kinds=("linecard", "duplex"), min_faults=1, max_faults=3,
            onset_min_s=100.0, onset_max_s=800.0, repair_fraction=0.5,
            cuts=(("border", "wan"),), cut_fraction=0.3),
        schedules=5,
        oracles=(OracleSpec(name="mesh-cadence",
                            params=(("slack_sessions", 2),)),),
        transfer=TransferProbeSpec(size_gb=1.0, files=2),
        shrink=False, max_shrink=0)
    base.update(overrides)
    return CampaignSpec(**base)


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self):
        spec = full_spec()
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_defaults_round_trip(self):
        spec = CampaignSpec(name="minimal", seed=1)
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_campaign_is_a_registered_kind(self):
        assert "campaign" in spec_kinds()
        data = full_spec().to_dict()
        assert data["kind"] == "campaign"
        assert isinstance(ExperimentSpec.from_dict(data), CampaignSpec)

    def test_from_file(self, tmp_path):
        spec = full_spec()
        path = tmp_path / "c.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert ExperimentSpec.from_file(path) == spec

    def test_digest_changes_with_any_field(self):
        spec = full_spec()
        assert dataclasses.replace(spec, schedules=6).digest() \
            != spec.digest()
        assert dataclasses.replace(spec, seed=14).digest() != spec.digest()

    def test_committed_chaos_specs_parse(self):
        import pathlib
        root = pathlib.Path(__file__).parent.parent / "specs"
        quick = ExperimentSpec.from_file(root / "chaos_quick.json")
        assert isinstance(quick, CampaignSpec)
        assert quick.schedules == 16
        demo = ExperimentSpec.from_file(
            root / "chaos_demo_broken_oracle.json")
        assert demo.oracles[0].name == "mathis-ceiling"
        replay = ExperimentSpec.from_file(root / "chaos_demo_repro.json")
        assert isinstance(replay, ScenarioSpec)
        assert len(replay.faults) == 1


class TestValidation:
    def test_onsets_must_fit_horizon(self):
        with pytest.raises(ConfigurationError):
            full_spec(until_s=500.0)  # onset_max_s=800 > horizon

    def test_schedules_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            full_spec(schedules=0)

    def test_duplicate_oracles_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate oracle"):
            full_spec(oracles=(OracleSpec(name="mesh-cadence"),
                               OracleSpec(name="mesh-cadence")))

    def test_fault_space_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultSpaceSpec(min_faults=3, max_faults=1)
        with pytest.raises(ConfigurationError):
            FaultSpaceSpec(onset_min_s=500.0, onset_max_s=100.0)
        with pytest.raises(ConfigurationError):
            FaultSpaceSpec(cut_fraction=0.5)  # no cut candidates
        with pytest.raises(ConfigurationError):
            FaultSpaceSpec(kinds=())

    def test_transfer_probe_bounds(self):
        with pytest.raises(ConfigurationError):
            TransferProbeSpec(size_gb=0.0)
        with pytest.raises(ConfigurationError):
            TransferProbeSpec(files=0)


class TestSampling:
    def test_schedules_are_reproducible(self):
        spec = full_spec()
        a = sample_schedules(spec)
        b = sample_schedules(spec)
        assert a == b
        assert [s.digest() for s in a] == [s.digest() for s in b]

    def test_schedule_independent_of_population(self):
        """Adding schedules never perturbs earlier ones (seed tree)."""
        small = full_spec(schedules=3)
        large = full_spec(schedules=9)
        assert sample_schedules(small) == sample_schedules(large)[:3]

    def test_each_schedule_is_runnable_scenario_spec(self):
        for sched in sample_schedules(full_spec()):
            assert isinstance(sched, ScenarioSpec)
            assert sched.until_s == 2000.0
            assert 1 <= len(sched.faults) <= 3
            for fault in sched.faults:
                assert fault.kind in ("linecard", "duplex")
                assert 100.0 <= fault.at_s <= 800.0
            again = ExperimentSpec.from_json(sched.to_json())
            assert again == sched

    def test_seed_changes_every_schedule(self):
        a = sample_schedules(full_spec())
        b = sample_schedules(full_spec(seed=14))
        assert all(x.seed != y.seed for x, y in zip(a, b))

    def test_schedule_seed_derivation(self):
        spec = full_spec()
        assert sample_schedule(spec, 2).seed == schedule_seed(spec, 2)
        assert schedule_seed(spec, 0) != schedule_seed(spec, 1)

    def test_unknown_design_node_fails_at_sampling(self):
        spec = full_spec(space=FaultSpaceSpec(nodes=("no-such-node",)))
        with pytest.raises(ConfigurationError, match="no-such-node"):
            sample_schedules(spec)

    def test_unknown_fault_kind_fails_at_sampling(self):
        spec = full_spec(space=FaultSpaceSpec(kinds=("warp-core",)))
        with pytest.raises(ConfigurationError, match="warp-core"):
            sample_schedules(spec)

    def test_times_never_round_up_to_the_horizon(self):
        """Onsets within 0.05 s of the horizon would round up to it."""
        spec = full_spec(until_s=1000.0, schedules=40, space=FaultSpaceSpec(
            kinds=("linecard",), onset_min_s=999.96, onset_max_s=999.96,
            repair_fraction=1.0, cuts=(("border", "wan"),),
            cut_fraction=1.0))
        for sched in sample_schedules(spec):
            times = ([f.at_s for f in sched.faults] + list(sched.repairs_s)
                     + [c.at_s for c in sched.link_cuts])
            assert times and all(t == 999.9 for t in times)

    def test_storage_kind_lands_on_dtn(self):
        spec = full_spec(space=FaultSpaceSpec(
            kinds=("storage",), onset_min_s=100.0, onset_max_s=800.0))
        for sched in sample_schedules(spec):
            for fault in sched.faults:
                assert fault.node == "dtn1"
