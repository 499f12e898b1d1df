"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import DESIGNS, main


class TestDesignsCommand:
    def test_lists_all(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        for name in DESIGNS:
            assert name in out


class TestAuditCommand:
    def test_passing_design_exits_zero(self, capsys):
        assert main(["audit", "simple-science-dmz"]) == 0
        assert "PASSES" in capsys.readouterr().out

    def test_failing_design_exits_nonzero(self, capsys):
        assert main(["audit", "general-purpose-campus"]) == 1
        assert "FAILS" in capsys.readouterr().out

    def test_unknown_design_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["audit", "atlantis-campus"])


class TestTransferCommand:
    def test_default_transfer(self, capsys):
        assert main(["transfer", "simple-science-dmz",
                     "--size", "10GB", "--files", "10"]) == 0
        out = capsys.readouterr().out
        assert "10 GB" in out and "globus" in out

    def test_firewalled_transfer(self, capsys):
        assert main(["transfer", "simple-science-dmz", "--size", "1GB",
                     "--files", "1", "--tool", "ftp",
                     "--dst", "lab-server1", "--via-firewall"]) == 0
        out = capsys.readouterr().out
        assert "ftp" in out

    def test_bad_size_is_graceful(self, capsys):
        assert main(["transfer", "simple-science-dmz",
                     "--size", "lots"]) == 2
        assert "error:" in capsys.readouterr().err


class TestMathisCommand:
    def test_loss_calculation(self, capsys):
        assert main(["mathis", "--mss", "9000B", "--rtt", "50ms",
                     "--loss", "4.5e-5"]) == 0
        assert "Mathis ceiling" in capsys.readouterr().out

    def test_window_calculation(self, capsys):
        assert main(["mathis", "--rtt", "10ms", "--rate", "1Gbps"]) == 0
        out = capsys.readouterr().out
        assert "1.25 MB" in out

    def test_nothing_requested(self, capsys):
        assert main(["mathis"]) == 2


class TestUpgradeCommand:
    def test_upgrade_baseline(self, capsys):
        assert main(["upgrade"]) == 0
        out = capsys.readouterr().out
        assert "BEFORE" in out and "AFTER" in out
        assert "FAILS" in out and "PASSES" in out

    def test_upgrade_passing_design_noop(self, capsys):
        assert main(["upgrade", "simple-science-dmz"]) == 0
        assert "nothing to do" in capsys.readouterr().out


class TestExportDescribe:
    def test_export_to_file_and_describe(self, tmp_path, capsys):
        path = tmp_path / "dmz.json"
        assert main(["export", "simple-science-dmz", "-o", str(path)]) == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["describe", str(path)]) == 0
        out = capsys.readouterr().out
        assert "dtn1" in out and "firewall" in out

    def test_export_to_stdout(self, capsys):
        assert main(["export", "general-purpose-campus"]) == 0
        out = capsys.readouterr().out
        import json
        data = json.loads(out)
        assert data["name"] == "general-purpose-campus"

    def test_exported_design_roundtrips(self, tmp_path):
        import json
        from repro.netsim import topology_from_dict
        path = tmp_path / "t.json"
        main(["export", "supercomputer-center", "-o", str(path)])
        topo = topology_from_dict(json.loads(path.read_text()))
        assert topo.has_node("dtn1")


class TestLintCommand:
    def test_clean_design_exits_zero(self, capsys):
        assert main(["lint", "simple-science-dmz"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_dirty_design_lists_findings(self, capsys):
        assert main(["lint", "general-purpose-campus"]) == 1
        out = capsys.readouterr().out
        assert "firewall-in-path" in out
        assert "critical" in out


class TestSweepCommand:
    def test_mathis_sweep_renders_table(self, capsys):
        assert main(["sweep", "mathis", "--rtt", "10,50",
                     "--loss", "4.5e-5"]) == 0
        out = capsys.readouterr().out
        assert "mathis sweep" in out and "gbps" in out
        assert "workers=1" in out and "cache=off" in out

    def test_parallel_cached_rerun_hits(self, capsys, tmp_path):
        args = ["sweep", "mathis", "--rtt", "5,20", "--loss", "1e-4",
                "--workers", "2", "--cache-dir", str(tmp_path / "c"),
                "--stats"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        # identical table, but the rerun is served from the cache
        def table(text):
            return text.split("execution stats:")[0]

        def counter(text, name):
            line = next(l for l in text.splitlines()
                        if f"{name} (counter)" in l)
            return float(line.split()[-1])

        assert table(first) == table(second)
        assert counter(first, "misses") == 2 and counter(first, "hits") == 0
        assert counter(second, "hits") == 2
        assert counter(second, "evaluated") == 0

    def test_stats_json_artifact(self, tmp_path, capsys):
        import json
        out_path = tmp_path / "stats.json"
        assert main(["sweep", "mathis", "--rtt", "10", "--loss", "1e-4",
                     "--cache-dir", str(tmp_path / "c"),
                     "--stats-json", str(out_path)]) == 0
        capsys.readouterr()
        stats = json.loads(out_path.read_text())
        assert stats["target"] == "mathis"
        assert stats["grid_points"] == 1
        assert stats["cache_misses"] == 1 and stats["cache_hits"] == 0

    def test_zero_loss_rejected(self, capsys):
        assert main(["sweep", "mathis", "--loss", "0"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_bad_rtt_rejected(self, capsys):
        assert main(["sweep", "mathis", "--rtt", "ten"]) == 2
        assert "comma-separated" in capsys.readouterr().err


class TestSpecsCommand:
    SPECS = __import__("pathlib").Path(__file__).parent.parent / "specs"

    def test_lists_every_committed_spec_with_true_digests(self, capsys):
        from repro.experiment import ExperimentSpec

        assert main(["specs", "--dir", str(self.SPECS)]) == 0
        out = capsys.readouterr().out
        for path in sorted(self.SPECS.glob("*.json")):
            if path.name == "golden.json":
                assert path.name not in out  # sidecar, not a spec
                continue
            spec = ExperimentSpec.from_file(path)
            line = next(l for l in out.splitlines()
                        if l.startswith(path.name))
            assert spec.digest()[:12] in line
            assert spec.kind in line

    def test_malformed_campaign_is_listed_unreadable(self, tmp_path,
                                                     capsys):
        """A campaign with a non-integer seed is a bad row, not a
        ValueError traceback."""
        data = json.loads((self.SPECS / "chaos_quick.json").read_text())
        (tmp_path / "camp.json").write_text(json.dumps(dict(data,
                                                            seed="x")))
        assert main(["specs", "--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "UNREADABLE: seed: expected an integer" in out

    def test_hand_written_federation_lists_its_run_digest(self, tmp_path,
                                                          capsys):
        """Listing parses like `repro run`: an int in a float field and
        a missing description give the run's digest, not a hash of the
        raw file."""
        data = json.loads(
            (self.SPECS / "federation_quick.json").read_text())
        del data["description"]
        data["link_gbps"] = 100
        path = tmp_path / "fed.json"
        path.write_text(json.dumps(data))
        assert main(["specs", "--dir", str(tmp_path)]) == 0
        listed = capsys.readouterr().out
        assert main(["run", str(path), "--no-persist"]) == 0
        digest = next(line.split()[-1] for line in
                      capsys.readouterr().out.splitlines()
                      if line.strip().startswith("spec digest:"))
        assert digest[:12] in listed

    def test_unreadable_spec_flags_exit_one(self, tmp_path, capsys):
        (tmp_path / "broken.json").write_text("{not json")
        (tmp_path / "unknown.json").write_text(
            '{"schema": 1, "kind": "warp-drive", "name": "x"}')
        assert main(["specs", "--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.count("UNREADABLE") == 2

    def test_lazy_kind_with_bad_schema_flagged(self, tmp_path, capsys):
        # A wrong schema version lands in the UNREADABLE bucket, exit 1.
        (tmp_path / "fed.json").write_text(
            '{"schema": 99, "kind": "federation", "name": "x"}')
        assert main(["specs", "--dir", str(tmp_path)]) == 1
        assert "UNREADABLE" in capsys.readouterr().out

    def test_missing_dir_rejected(self, capsys):
        assert main(["specs", "--dir", "no-such-dir"]) == 2
        assert "no spec directory" in capsys.readouterr().err
