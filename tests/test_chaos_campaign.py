"""Campaign-level acceptance: bit-reproducible reports, caching,
shrinking, artifacts, and the ``repro chaos`` CLI."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.chaos import (
    CampaignSpec,
    CampaignResult,
    FaultSpaceSpec,
    OracleSpec,
    TransferProbeSpec,
    render_report,
)
from repro.experiment import ExperimentSpec, RunContext, run_experiment

SPECS = pathlib.Path(__file__).parent.parent / "specs"


def quick_campaign(**overrides) -> CampaignSpec:
    base = dict(
        name="t-camp", seed=7, design="simple-science-dmz",
        until_s=1500.0,
        space=FaultSpaceSpec(onset_min_s=120.0, onset_max_s=900.0,
                             repair_fraction=0.25,
                             cuts=(("border", "wan"),), cut_fraction=0.25),
        schedules=4,
        transfer=TransferProbeSpec(size_gb=1.0, files=2),
        shrink=True, max_shrink=2)
    base.update(overrides)
    return CampaignSpec(**base)


def demo_campaign(**overrides) -> CampaignSpec:
    """The intentionally broken oracle: mathis-ceiling configured to
    bind in the light-loss regime the fluid model legitimately beats."""
    base = dict(
        name="t-demo", seed=21, design="simple-science-dmz",
        until_s=1500.0,
        space=FaultSpaceSpec(kinds=("linecard", "cpu"), min_faults=2,
                             max_faults=3, onset_min_s=120.0,
                             onset_max_s=600.0),
        schedules=2,
        oracles=(OracleSpec(name="mathis-ceiling",
                            params=(("min_loss", 1e-06),
                                    ("slack", 0.5))),),
        shrink=True, max_shrink=2)
    base.update(overrides)
    return CampaignSpec(**base)


class TestReportDeterminism:
    def test_serial_and_pooled_reports_identical(self):
        spec = quick_campaign()
        serial = run_experiment(spec, RunContext(workers=1), persist=False)
        pooled = run_experiment(spec, RunContext(workers=4), persist=False)
        assert serial.payload == pooled.payload
        assert serial.payload["digest"] == pooled.payload["digest"]
        assert serial.manifest.result_digest \
            == pooled.manifest.result_digest

    def test_cache_warm_run_evaluates_nothing(self, tmp_path):
        spec = quick_campaign()
        cache = tmp_path / "cache"
        cold = run_experiment(spec, RunContext(cache=cache), persist=False)
        warm_ctx = RunContext(cache=cache)
        warm = run_experiment(spec, warm_ctx, persist=False)
        assert warm.payload == cold.payload
        stats = warm_ctx.stats()
        assert stats.get("exec.runner.evaluated", 0) == 0
        assert stats.get("exec.cache.hits", 0) >= spec.schedules

    def test_cache_is_keyed_by_engine(self, tmp_path):
        """Schedules judged on the numpy kernel are never served to a
        fluid-engine campaign sharing the cache."""
        spec = quick_campaign(schedules=2, transfer=None, shrink=False)
        cache = tmp_path / "cache"
        run_experiment(spec, RunContext(cache=cache), persist=False)
        fluid = RunContext(cache=cache, backend="fluid")
        run_experiment(spec, fluid, persist=False)
        assert fluid.stats().get("exec.cache.hits", 0) == 0
        assert fluid.stats().get("exec.runner.evaluated", 0) == 2
        numpy = RunContext(cache=cache, backend="numpy")
        run_experiment(spec, numpy, persist=False)
        assert numpy.stats().get("exec.cache.hits", 0) == 2

    def test_report_digest_excludes_execution_noise(self):
        """The report must not leak code version, timings or workers."""
        result = run_experiment(quick_campaign(), persist=False)
        text = json.dumps(result.payload)
        assert result.manifest.code_version not in text
        assert "elapsed" not in text and "workers" not in text

    def test_campaign_value_object(self):
        result = run_experiment(quick_campaign(), persist=False)
        value = result.value
        assert isinstance(value, CampaignResult)
        assert len(value.records) == 4
        assert value.report is result.payload
        assert all(r.spec.name.startswith("t-camp-s")
                   for r in value.records)


class TestShrinking:
    def test_demo_shrinks_to_minimal_fault_set(self):
        result = run_experiment(demo_campaign(), persist=False)
        assert result.manifest.summary["failed"] == 2
        shrunk = [r for r in result.value.records if r.minimal is not None]
        assert shrunk, "broken-oracle demo must shrink something"
        for record in shrunk:
            total = (len(record.minimal.faults)
                     + len(record.minimal.link_cuts))
            assert total <= 2
            assert total < (len(record.spec.faults)
                            + len(record.spec.link_cuts))
            # Only the lossy kind can trip mathis-ceiling.
            assert all(f.kind == "linecard"
                       for f in record.minimal.faults)

    def test_replay_artifact_is_a_runnable_spec(self, tmp_path):
        result = run_experiment(demo_campaign(),
                                RunContext(artifacts=tmp_path))
        arts = list(pathlib.Path(result.artifact_dir).glob("repro-*.json"))
        assert arts, "shrunk schedules must emit replay artifacts"
        replay = ExperimentSpec.from_file(arts[0])
        assert replay.kind == "scenario"
        # The artifact digests are part of the provenance manifest.
        for art in arts:
            assert art.name in result.manifest.artifacts
        assert "report.json" in result.manifest.artifacts

    def test_shrink_disabled_keeps_full_schedules(self):
        result = run_experiment(demo_campaign(shrink=False),
                                persist=False)
        assert all(r.minimal is None for r in result.value.records)
        assert result.manifest.summary["shrunk"] == 0


class TestCommittedCampaigns:
    def test_chaos_quick_matches_golden(self):
        spec = ExperimentSpec.from_file(SPECS / "chaos_quick.json")
        golden = json.loads((SPECS / "golden.json").read_text())
        result = run_experiment(spec, persist=False)
        assert result.manifest.spec_digest \
            == golden["chaos-quick"]["spec_digest"]
        assert result.manifest.result_digest \
            == golden["chaos-quick"]["result_digest"]
        assert result.manifest.summary["failed"] == 0

    def test_demo_repro_spec_still_violates(self):
        """The committed shrunk artifact reproduces its violation."""
        from repro.chaos.runner import _campaign_point
        from repro.exec.seeding import canonical_json

        replay = ExperimentSpec.from_file(SPECS / "chaos_demo_repro.json")
        out = _campaign_point(
            replay.to_json(),
            canonical_json([["mathis-ceiling",
                             {"min_loss": 1e-06, "slack": 0.5}]]),
            canonical_json(None))
        assert out["violations"].get("mathis-ceiling")


class TestRenderReport:
    def test_render_clean_and_failing(self):
        clean = run_experiment(quick_campaign(), persist=False)
        text = render_report(clean.payload)
        assert "survival by fault count" in text
        assert "every invariant held" in text
        failing = run_experiment(demo_campaign(), persist=False)
        text = render_report(failing.payload)
        assert "oracle violations" in text
        assert "mathis-ceiling" in text
        assert "replay: repro-" in text


class TestChaosCli:
    def run_cli(self, *argv):
        from repro.cli import main
        return main([str(a) for a in argv])

    def test_campaign_clean_exits_zero(self, tmp_path, capsys):
        spec_path = tmp_path / "c.json"
        spec_path.write_text(json.dumps(quick_campaign().to_dict()))
        rc = self.run_cli("chaos", spec_path, "--no-persist")
        out = capsys.readouterr().out
        assert rc == 0
        assert "every invariant held" in out

    def test_campaign_violations_exit_one(self, tmp_path, capsys):
        spec_path = tmp_path / "d.json"
        spec_path.write_text(json.dumps(demo_campaign().to_dict()))
        rc = self.run_cli("chaos", spec_path, "--no-persist")
        assert rc == 1
        assert "mathis-ceiling" in capsys.readouterr().out

    def test_seed_override_changes_digest(self, tmp_path, capsys):
        spec_path = tmp_path / "c.json"
        spec_path.write_text(json.dumps(quick_campaign().to_dict()))
        self.run_cli("chaos", spec_path, "--no-persist")
        base = capsys.readouterr().out
        self.run_cli("chaos", spec_path, "--seed", "99", "--no-persist")
        other = capsys.readouterr().out

        def digest(text):
            for line in text.splitlines():
                if "result digest:" in line:
                    return line.split()[-1]
        assert digest(base) != digest(other)

    def test_replay_mode_with_oracle_flag(self, capsys):
        rc = self.run_cli("chaos", SPECS / "chaos_demo_repro.json",
                          "--oracle", "mathis-ceiling:min_loss=1e-6,slack=0.5")
        err = capsys.readouterr().err
        assert rc == 1
        assert "VIOLATION mathis-ceiling" in err

    def test_replay_mode_default_oracles_clean(self, capsys):
        rc = self.run_cli("chaos", SPECS / "chaos_demo_repro.json")
        out = capsys.readouterr().out
        assert rc == 0
        assert "every oracle held" in out

    def test_report_flag_writes_payload(self, tmp_path):
        spec_path = tmp_path / "c.json"
        spec_path.write_text(json.dumps(quick_campaign().to_dict()))
        report_path = tmp_path / "report.json"
        self.run_cli("chaos", spec_path, "--no-persist",
                     "--report", report_path)
        report = json.loads(report_path.read_text())
        assert report["campaign"] == "t-camp"
        assert report["schedules"] == 4
