"""Every ``repro run`` / ``repro sweep`` / ``repro chaos`` failure mode
must exit non-zero with a message that tells the user what to fix:
malformed specs, unknown registry keys, and golden-digest drift.

The codes follow one convention (the table in :mod:`repro.cli`'s
docstring): 0 success, 1 domain failure (valid input, bad outcome),
2 bad input — ``TestExitCodeConvention`` pins it across commands."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import EXIT_BAD_INPUT, EXIT_DOMAIN_FAILURE, EXIT_OK, main

SPECS = pathlib.Path(__file__).parent.parent / "specs"


def write_spec(tmp_path, name, payload, *, schema=1):
    if schema is not None:
        payload.setdefault("schema", schema)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def cli(capsys):
    """Run the CLI, returning (exit_code, stdout, stderr)."""
    def run(*argv):
        rc = main([str(a) for a in argv])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err
    return run


class TestMalformedSpecs:
    def test_missing_spec_file(self, cli, tmp_path):
        rc, _, err = cli("run", tmp_path / "nope.json")
        assert rc == 2
        assert "cannot read spec" in err and "nope.json" in err

    def test_invalid_json(self, cli, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc, _, err = cli("run", path)
        assert rc == 2
        assert "not valid JSON" in err

    def test_missing_schema_field(self, cli, tmp_path):
        path = write_spec(tmp_path, "noschema.json",
                          {"kind": "scenario", "name": "x", "seed": 1},
                          schema=None)
        rc, _, err = cli("run", path)
        assert rc == 2
        assert "schema" in err

    def test_negative_seed(self, cli, tmp_path):
        path = write_spec(tmp_path, "neg.json",
                          {"kind": "scenario", "name": "x", "seed": -1})
        rc, _, err = cli("run", path)
        assert rc == 2
        assert "seed must be >= 0" in err and "Traceback" not in err

    def test_wrong_field_type_names_its_path(self, cli, tmp_path):
        path = write_spec(tmp_path, "ty.json", {
            "kind": "scenario", "name": "x",
            "faults": [{"kind": "linecard", "at_s": "x"}]})
        rc, _, err = cli("run", path)
        assert rc == 2
        assert 'faults[0].at_s: expected a number, got "x"' in err

    @pytest.mark.parametrize("mesh,message", [
        # Tests of one pair would overlap: rejected at parse time (a run
        # of chaos_quick.json with this cadence used to take 14 s).
        ({"bwctl_interval_s": 1.5},
         "mesh: bwctl_interval_s 1.5 is shorter than bwctl_duration_s 10"),
        # More than MAX_MESH_SESSIONS tests per pair over the horizon.
        ({"owamp_interval_s": 1.4},
         "OWAMP + BWCTL sessions per host pair over until_s="),
    ])
    @pytest.mark.parametrize("spec", ["chaos_quick.json",
                                      "linecard_softfail.json"])
    def test_unbounded_mesh_cadence_rejected(self, cli, tmp_path, spec,
                                             mesh, message):
        payload = json.loads((SPECS / spec).read_text())
        payload["mesh"].update(mesh)
        rc, _, err = cli("run", write_spec(tmp_path, spec, payload),
                         "--no-persist")
        assert rc == 2
        assert message in err and "Traceback" not in err

    def test_chaos_rejects_wrong_spec_kind(self, cli):
        rc, _, err = cli("chaos", SPECS / "fig1_tcp_loss_quick.json")
        assert rc == 2
        assert "needs a campaign or scenario spec" in err
        assert "'sweep'" in err


class TestUnknownRegistryKeys:
    """Each message must name the bad key AND list the known ones."""

    def test_unknown_spec_kind(self, cli, tmp_path):
        path = write_spec(tmp_path, "unk.json",
                          {"kind": "warp", "name": "x", "seed": 1})
        rc, _, err = cli("run", path)
        assert rc == 2
        assert "unknown spec kind 'warp'" in err
        assert "campaign" in err and "scenario" in err

    def test_unknown_fault_kind_in_scenario(self, cli, tmp_path):
        path = write_spec(
            tmp_path, "bf.json",
            {"kind": "scenario", "name": "x", "seed": 1,
             "faults": [{"kind": "warp-core", "at_s": 10.0}]})
        rc, _, err = cli("run", path)
        assert rc == 2
        assert "unknown fault kind 'warp-core'" in err
        assert "linecard" in err

    def test_unknown_design_in_campaign(self, cli, tmp_path):
        path = write_spec(tmp_path, "bd.json",
                          {"kind": "campaign", "name": "x", "seed": 1,
                           "design": "atlantis"})
        rc, _, err = cli("chaos", path)
        assert rc == 2
        assert "unknown design 'atlantis'" in err
        assert "simple-science-dmz" in err

    def test_unknown_fault_kind_in_fault_space(self, cli, tmp_path):
        path = write_spec(tmp_path, "bk.json",
                          {"kind": "campaign", "name": "x", "seed": 1,
                           "space": {"kinds": ["warp-core"]}})
        rc, _, err = cli("chaos", path)
        assert rc == 2
        assert "warp-core" in err and "known kinds" in err

    def test_unknown_oracle_flag(self, cli):
        rc, _, err = cli("chaos", SPECS / "chaos_demo_repro.json",
                         "--oracle", "no-such-oracle")
        assert rc == 2
        assert "unknown oracle 'no-such-oracle'" in err
        assert "packets-conserved" in err

    def test_empty_oracle_name(self, cli):
        rc, _, err = cli("chaos", SPECS / "chaos_demo_repro.json",
                         "--oracle", ":min_loss=1")
        assert rc == 2
        assert "empty oracle name" in err

    def test_unknown_bench_scenario(self, cli, tmp_path):
        path = write_spec(tmp_path, "bb.json",
                          {"kind": "bench", "name": "x",
                           "scenarios": ["maxmin.numpy", "nope"]})
        rc, out, err = cli("run", path)
        assert rc == 2
        assert "unknown bench scenario 'nope'" in err
        assert "maxmin.numpy" in err and out == ""

    def test_unknown_sweep_target_rejected_by_parser(self, cli, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "warp"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestChaosReplayFlags:
    """Replaying a scenario spec honours the run-setting flags and
    refuses the campaign-only ones before anything runs."""

    REPLAY = SPECS / "chaos_demo_repro.json"

    @pytest.mark.parametrize("flag", ["--report", "--artifacts"])
    def test_campaign_only_flag_is_two(self, cli, monkeypatch, tmp_path,
                                       flag):
        import repro.chaos.runner

        def must_not_run(*args, **kwargs):
            raise AssertionError("replayed despite a campaign-only flag")

        monkeypatch.setattr(repro.chaos.runner, "_campaign_point",
                            must_not_run)
        target = tmp_path / "out"
        rc, out, err = cli("chaos", self.REPLAY, flag, target)
        assert rc == EXIT_BAD_INPUT
        assert f"{flag} applies to a campaign spec" in err
        assert out == "" and not target.exists()

    def test_stats_and_cache_apply(self, cli, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        cache = tmp_path / "cache"
        runs = [cli("chaos", self.REPLAY, "--cache-dir", cache, "--stats")
                for _ in range(2)]
        assert [rc for rc, _, _ in runs] == [EXIT_OK, EXIT_OK]
        (_, cold, _), (_, warm, _) = runs
        verdict, stats = cold.split("\n\nexecution stats:\n")
        assert verdict.endswith("every oracle held")
        assert warm.startswith(verdict + "\n\nexecution stats:\n")
        assert "  exec.cache.misses: 1" in stats
        assert "  exec.cache.hits: 1" in warm

    def test_engine_joins_the_cache_key(self, cli, monkeypatch, tmp_path):
        """A replay under the fluid engine misses the numpy entry, and a
        numpy replay still finds it."""
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        args = ("chaos", self.REPLAY, "--cache-dir", tmp_path / "cache",
                "--stats")
        assert cli(*args)[0] == EXIT_OK
        monkeypatch.setenv("REPRO_BACKEND", "fluid")
        rc, fluid, _ = cli(*args)
        assert rc == EXIT_OK
        assert "  exec.cache.hits: 0" in fluid
        assert "  exec.cache.misses: 1" in fluid
        monkeypatch.delenv("REPRO_BACKEND")
        rc, numpy_again, _ = cli(*args)
        assert rc == EXIT_OK
        assert "  exec.cache.hits: 1" in numpy_again

    def test_bad_workers_is_two(self, cli, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        rc, out, err = cli("chaos", self.REPLAY)
        assert rc == EXIT_BAD_INPUT
        assert "REPRO_WORKERS must be an integer >= 1" in err
        assert out == ""


class TestSweepValidation:
    def test_zero_loss_rejected(self, cli):
        rc, _, err = cli("sweep", "mathis", "--loss", "0.0")
        assert rc == 2
        assert "positive" in err

    def test_empty_grid_rejected(self, cli):
        rc, _, err = cli("sweep", "mathis", "--rtt", "")
        assert rc == 2
        assert "--rtt" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda grid: grid.append(["-1", [1]]),
         "grid[5]: target 'fig1_tcp' takes no parameter '-1'"),
        (lambda grid: grid[1][1].append("x"),
         'grid[1][1][3]: expected a number, got "x"'),
        (lambda grid: grid[3][1].append(True),
         "grid[3][1][1]: expected an integer, got true"),
        (lambda grid: grid.pop(3), "needs parameter 'rep'"),
        (lambda grid: grid[3][1].append(-1), "rep must be >= 0"),
    ])
    def test_grid_checked_against_target(self, cli, tmp_path, edit,
                                         message):
        data = json.loads((SPECS / "fig1_tcp_loss_quick.json").read_text())
        edit(data["grid"])
        rc, _, err = cli("run", write_spec(tmp_path, "g.json", data),
                         "--no-persist")
        assert rc == 2
        assert message in err and "Traceback" not in err

    def test_open_ended_target_takes_any_grid_name(self):
        from repro.experiment import SweepTarget

        def anything(**params):
            return 0

        SweepTarget(name="any", fn=anything).check_grid(
            (("whatever", (1, "x")),))


class TestGoldenDrift:
    SPEC = SPECS / "linecard_softfail.json"

    def golden_for(self, tmp_path, **overrides):
        committed = json.loads((SPECS / "golden.json").read_text())
        entry = dict(committed["linecard-softfail"])
        entry.update(overrides)
        path = tmp_path / "golden.json"
        path.write_text(json.dumps({"linecard-softfail": entry}))
        return path

    def test_matching_golden_passes(self, cli, tmp_path):
        rc, out, _ = cli("run", self.SPEC, "--no-persist",
                         "--golden", self.golden_for(tmp_path))
        assert rc == 0
        assert "digests match" in out

    def test_result_drift_exits_one(self, cli, tmp_path):
        golden = self.golden_for(tmp_path, result_digest="0" * 64)
        rc, _, err = cli("run", self.SPEC, "--no-persist",
                         "--golden", golden)
        assert rc == 1
        assert "GOLDEN DRIFT" in err
        assert "result_digest" in err and "0" * 64 in err

    def test_missing_entry_exits_two(self, cli, tmp_path):
        path = tmp_path / "golden.json"
        path.write_text("{}")
        rc, _, err = cli("run", self.SPEC, "--no-persist",
                         "--golden", path)
        assert rc == 2
        assert "no entry for" in err

    def test_unreadable_golden_exits_two(self, cli, tmp_path):
        rc, _, err = cli("run", self.SPEC, "--no-persist",
                         "--golden", tmp_path / "absent.json")
        assert rc == 2
        assert "cannot read golden file" in err


class TestExitCodeConvention:
    """0 ok / 1 domain failure / 2 bad input, uniformly.

    The convention's value is that scripts and CI can branch on the
    code without parsing stderr — so each class gets a representative
    from several commands, including the serve family.
    """

    # A port where nothing listens (TEST-NET-3 would hang; a closed
    # local port fails fast with ECONNREFUSED).
    DEAD_URL = "http://127.0.0.1:1"

    def test_constants_are_distinct_and_documented(self):
        import repro.cli as cli_mod

        assert (EXIT_OK, EXIT_DOMAIN_FAILURE, EXIT_BAD_INPUT) == (0, 1, 2)
        # The docstring table must mention every code's meaning.
        doc = cli_mod.__doc__
        assert "domain failure" in doc and "bad input" in doc

    def test_success_is_zero(self, cli):
        rc, _, _ = cli("mathis", "--loss", "4.5e-5")
        assert rc == EXIT_OK

    def test_audit_failure_is_one(self, cli):
        # Valid design, failing audit: a domain outcome, not bad input.
        rc, _, _ = cli("audit", "general-purpose-campus")
        assert rc == EXIT_DOMAIN_FAILURE

    def test_golden_drift_is_one_bad_spec_is_two(self, cli, tmp_path):
        golden = tmp_path / "golden.json"
        committed = json.loads((SPECS / "golden.json").read_text())
        entry = dict(committed["linecard-softfail"],
                     result_digest="0" * 64)
        golden.write_text(json.dumps({"linecard-softfail": entry}))
        rc, _, _ = cli("run", SPECS / "linecard_softfail.json",
                       "--no-persist", "--golden", golden)
        assert rc == EXIT_DOMAIN_FAILURE
        rc, _, _ = cli("run", tmp_path / "missing.json")
        assert rc == EXIT_BAD_INPUT

    def test_chaos_violation_is_one(self, cli):
        rc, _, err = cli("chaos",
                         SPECS / "chaos_demo_broken_oracle.json",
                         "--no-persist")
        assert rc == EXIT_DOMAIN_FAILURE

    def test_unreachable_service_is_one(self, cli):
        rc, _, err = cli("jobs", "--url", self.DEAD_URL)
        assert rc == EXIT_DOMAIN_FAILURE
        assert "cannot reach service" in err

    def test_submit_unreachable_service_is_one(self, cli):
        rc, _, err = cli("submit", SPECS / "fig1_tcp_loss_quick.json",
                         "--url", self.DEAD_URL)
        assert rc == EXIT_DOMAIN_FAILURE
        assert "cannot reach service" in err

    def test_submit_bad_spec_is_two_without_a_server(self, cli,
                                                     tmp_path):
        # Input validation happens before any network traffic.
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc, _, err = cli("submit", path, "--url", self.DEAD_URL)
        assert rc == EXIT_BAD_INPUT
        assert "not valid JSON" in err

    def test_submit_bad_url_scheme_is_two(self, cli):
        rc, _, err = cli("jobs", "--url", "ftp://example.org")
        assert rc == EXIT_BAD_INPUT
        assert "http" in err

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
    @pytest.mark.parametrize("argv", [
        ("run", SPECS / "fig1_tcp_loss_quick.json", "--no-persist"),
        ("sweep", "mathis", "--rtt", "10", "--loss", "4.5e-5"),
        ("chaos", SPECS / "chaos_quick.json", "--no-persist"),
        # Rejected before the service binds a port.
        ("serve", "--port", "0"),
    ], ids=["run", "sweep", "chaos", "serve"])
    def test_bad_repro_workers_is_two(self, cli, monkeypatch, argv, value):
        monkeypatch.setenv("REPRO_WORKERS", value)
        rc, _, err = cli(*argv)
        assert rc == EXIT_BAD_INPUT
        assert "REPRO_WORKERS" in err and "Traceback" not in err

    def test_workers_flag_overrides_bad_repro_workers(self, cli,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        rc, out, _ = cli("sweep", "mathis", "--rtt", "10", "--loss",
                         "4.5e-5", "--workers", "1")
        assert rc == EXIT_OK and "workers=1" in out

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ("run", SPECS / "fig1_tcp_loss_quick.json", "--no-persist"),
        ("sweep", "mathis", "--rtt", "10", "--loss", "4.5e-5"),
        ("chaos", SPECS / "chaos_quick.json", "--no-persist"),
        ("serve", "--port", "0"),
    ], ids=["run", "sweep", "chaos", "serve"])
    def test_bad_workers_flag_is_two(self, cli, monkeypatch, argv, value):
        # The flag gets the REPRO_WORKERS rule, not a silent clamp to 1.
        import repro.serve

        def must_not_serve(*args, **kwargs):
            raise AssertionError("served despite a bad --workers")

        monkeypatch.setattr(repro.serve, "serve_forever", must_not_serve)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        rc, _, err = cli(*argv, "--workers", value)
        assert rc == EXIT_BAD_INPUT
        assert "workers must be an integer >= 1" in err
        assert "Traceback" not in err

    def test_repro_workers_default(self, monkeypatch):
        from repro.experiment import RunContext

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert RunContext.from_env().workers == 1
        assert RunContext.from_env(default_workers=2).workers == 2
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert RunContext.from_env(default_workers=2).workers == 3
        assert RunContext.from_env(workers=4).workers == 4

    @pytest.mark.parametrize("argv", [
        ("run", SPECS / "fig1_tcp_loss_quick.json", "--no-persist",
         "--cache-dir", "{blocker}"),
        ("run", SPECS / "fig1_tcp_loss_quick.json",
         "--artifacts", "{blocker}/runs"),
        ("sweep", "mathis", "--rtt", "10", "--cache-dir", "{blocker}"),
        ("chaos", SPECS / "chaos_quick.json", "--no-persist",
         "--cache-dir", "{blocker}"),
        ("chaos", SPECS / "chaos_quick.json", "--artifacts",
         "{blocker}/runs"),
    ], ids=["run-cache", "run-artifacts", "sweep-cache", "chaos-cache",
            "chaos-artifacts"])
    def test_unusable_directory_is_two_before_running(
            self, cli, monkeypatch, tmp_path, argv):
        import repro.cli

        def must_not_run(*args, **kwargs):
            raise AssertionError("ran a spec despite a bad directory")

        monkeypatch.setattr(repro.cli, "run_experiment", must_not_run)
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        rc, _, err = cli(*(str(a).format(blocker=blocker) for a in argv))
        assert rc == EXIT_BAD_INPUT
        assert "is not a usable directory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("url", ["http://127.0.0.1:notaport",
                                     "http://[::1"])
    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_malformed_service_url_is_two(self, cli, monkeypatch, url,
                                          via):
        if via == "flag":
            rc, _, err = cli("jobs", "--url", url)
        else:
            monkeypatch.setenv("REPRO_SERVE_URL", url)
            rc, _, err = cli("jobs")
        assert rc == EXIT_BAD_INPUT
        assert "bad service URL" in err and "Traceback" not in err


class TestBenchFlags:
    """``repro bench`` checks every flag before it times anything: a bad
    output path, tolerance, baseline or scenario list costs nothing,
    not a whole suite run and then a traceback."""

    @pytest.fixture(autouse=True)
    def no_timing(self, monkeypatch):
        import repro.bench

        def must_not_time(*args, **kwargs):
            raise AssertionError("timed a scenario despite a bad flag")

        monkeypatch.setattr(repro.bench, "run_suite", must_not_time)
        monkeypatch.setattr(repro.bench, "run_scenario", must_not_time)

    @pytest.fixture
    def full_baseline(self, tmp_path):
        import repro.bench

        path = tmp_path / "full.json"
        repro.bench.write_json(
            {"schema": repro.bench.SCHEMA_VERSION, "quick": False,
             "calibration": 1.0, "results": {"maxmin.numpy": 1.0}},
            str(path))
        return path

    @pytest.mark.parametrize("argv", [
        ("--out", "{blocker}/x.json"),
        ("--write-baseline", "{blocker}/x.json"),
        ("--out", "{tmp}"),
        ("--tolerance", "-1", "--compare", "{baseline}"),
        ("--compare", "{tmp}/missing.json"),
        ("--quick", "--compare", "{baseline}"),
        ("--repeats", "0"),
        ("--repeats", "-5"),
        ("--only", " , "),
        ("--only", "multiflow.python"),
    ], ids=["out-under-file", "baseline-under-file", "out-is-dir",
            "negative-tolerance", "unreadable-compare", "quick-vs-full",
            "zero-repeats", "negative-repeats", "empty-only",
            "removed-scenario"])
    def test_bad_flag_is_two_before_timing(self, cli, tmp_path,
                                           full_baseline, argv):
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        rc, out, err = cli("bench", *(
            a.format(blocker=blocker, tmp=tmp_path, baseline=full_baseline)
            for a in argv))
        assert rc == EXIT_BAD_INPUT
        assert err.startswith("error: ") and "Traceback" not in err
        assert "running bench suite" not in out


def test_removed_python_engine_is_two(cli, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(SPECS / "fig1_tcp_loss_quick.json"),
              "--backend", "python"])
    assert exc.value.code == EXIT_BAD_INPUT
    assert "invalid choice: 'python'" in capsys.readouterr().err
