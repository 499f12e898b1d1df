"""The perf-regression harness: scenarios, comparison logic, CLI gate."""

from __future__ import annotations

import json

import pytest

from repro import bench
from repro.cli import main
from repro.errors import ConfigurationError, ReproError


def _payload(results, calibration=0.02, quick=False):
    return {"schema": bench.SCHEMA_VERSION, "quick": quick,
            "repeats": 3, "calibration": calibration, "results": results}


class TestCompare:
    def test_unchanged_is_ok(self):
        base = _payload({"a": 1.0, "b": 0.5})
        rows = bench.compare(_payload({"a": 1.0, "b": 0.5}), base)
        assert [r["regressed"] for r in rows] == [False, False]
        assert all(r["ratio"] == pytest.approx(1.0) for r in rows)

    def test_slowdown_beyond_tolerance_regresses(self):
        base = _payload({"a": 1.0})
        rows = bench.compare(_payload({"a": 1.4}), base, tolerance=0.30)
        assert rows[0]["regressed"] and rows[0]["ratio"] == pytest.approx(1.4)
        rows = bench.compare(_payload({"a": 1.2}), base, tolerance=0.30)
        assert not rows[0]["regressed"]

    def test_calibration_normalizes_machine_speed(self):
        # Current machine is 2x slower overall (calibration 0.04 vs
        # 0.02); a scenario that also doubled is *not* a regression.
        base = _payload({"a": 1.0}, calibration=0.02)
        cur = _payload({"a": 2.0}, calibration=0.04)
        rows = bench.compare(cur, base)
        assert rows[0]["ratio"] == pytest.approx(1.0)
        assert not rows[0]["regressed"]

    def test_speedup_passes(self):
        rows = bench.compare(_payload({"a": 0.2}), _payload({"a": 1.0}))
        assert not rows[0]["regressed"]

    def test_disjoint_scenarios_skipped(self):
        rows = bench.compare(_payload({"new": 1.0}), _payload({"old": 1.0}))
        assert rows == []

    def test_quick_full_mismatch_rejected(self):
        with pytest.raises(ReproError, match="quick"):
            bench.compare(_payload({"a": 1.0}, quick=True),
                          _payload({"a": 1.0}))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigurationError, match="tolerance"):
            bench.compare(_payload({}), _payload({}), tolerance=-0.1)


class TestBaselineIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "baseline.json"
        payload = _payload({"a": 1.0})
        bench.write_json(payload, str(path))
        assert bench.load_baseline(str(path)) == payload

    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            bench.load_baseline(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ReproError, match="not valid JSON"):
            bench.load_baseline(str(path))

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": 99, "results": {}}))
        with pytest.raises(ReproError, match="schema"):
            bench.load_baseline(str(path))


class TestScenarios:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown bench"):
            bench.run_scenario("nope")
        with pytest.raises(ConfigurationError, match="unknown bench"):
            bench.run_suite(["maxmin.numpy", "nope"])

    def test_run_scenario_times_quick_workload(self):
        result = bench.run_scenario("maxmin.numpy", repeats=1, quick=True)
        assert result["seconds"] > 0.0 and result["calibration"] > 0.0
        # A sub-millisecond scenario keeps alternating with calibration
        # runs until MIN_SPAN_S has passed, well beyond one repeat.
        assert result["runs"] > 1

    def test_run_suite_payload_shape(self):
        payload = bench.run_suite(["maxmin.numpy"], repeats=1, quick=True)
        assert payload["schema"] == bench.SCHEMA_VERSION
        assert payload["quick"] is True
        assert set(payload["results"]) == {"maxmin.numpy"}
        assert payload["calibration"] > 0.0


class TestCli:
    def test_bench_write_then_compare_ok(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        assert main(["bench", "--quick", "--repeats", "1",
                     "--only", "maxmin.numpy",
                     "--write-baseline", str(baseline)]) == 0
        assert baseline.exists()
        assert main(["bench", "--quick", "--repeats", "1",
                     "--only", "maxmin.numpy",
                     "--compare", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "maxmin.numpy" in out and "ok" in out

    def test_bench_compare_fails_on_regression(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        # A fabricated baseline claiming the scenario once took ~0s
        # normalized: any real run is a >30% regression against it.
        bench.write_json(_payload({"maxmin.numpy": 1e-9},
                                  calibration=10.0, quick=True),
                         str(baseline))
        assert main(["bench", "--quick", "--repeats", "1",
                     "--only", "maxmin.numpy",
                     "--compare", str(baseline)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_bench_compare_bad_baseline_is_cli_error(self, tmp_path):
        assert main(["bench", "--quick", "--repeats", "1",
                     "--only", "maxmin.numpy",
                     "--compare", str(tmp_path / "missing.json")]) == 2

    def test_bench_out_writes_results(self, tmp_path):
        out = tmp_path / "run.json"
        assert main(["bench", "--quick", "--repeats", "1",
                     "--only", "maxmin.numpy", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert "maxmin.numpy" in payload["results"]
