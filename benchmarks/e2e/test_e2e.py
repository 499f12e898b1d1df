"""Self-test of the end-to-end benchmark: ``pytest benchmarks/e2e -q``.

Runs the benchmark in ``--quick`` mode (small inputs, 1 s windows) as
a subprocess, the way a user or CI would, and checks that:

* every workload and end-to-end metric BENCHMARK.json declares is
  emitted with its unit, and the last stdout line is the result object;
* a traced quick run records at least one call of every layer span on
  the workload that exercises it, the spans cover all but 5% of each
  op, every input is timed with and without spans, and every per-layer
  metric is reported;
* an injected digest mismatch raises the failed share and exit 1;
* the same seed gives the same ``inputs_digest``, another seed another;
* the benchmark refuses to run without the repository's ``src``;
* the speed probe corrects by the probes taken around an op;
* ``compare.py`` turns synthetic result sets into the expected verdicts.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from compare import verdict
from probe import REFERENCE_S, SpeedProbe

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

#: Which workloads must call each wrapped layer in a traced run.
LAYER_WORKLOADS = {
    "experiment.parse": ["specs"],
    "experiment.run": ["specs"],
    "exec.map": ["specs"],
    "exec.cache.load": ["specs"],
    "exec.cache.store": ["specs"],
    "analysis.sweep": ["specs"],
    "core.design": ["specs"],
    "scenario.build": ["specs"],
    "scenario.run": ["specs"],
    "tcp.measure": ["specs"],
    "netsim.path": ["specs", "megaflows", "matrix-exact"],
    "netsim.profile": ["specs", "megaflows", "matrix-exact"],
    "workloads.matrix": ["megaflows", "matrix-exact"],
    "workloads.backbone": ["megaflows", "matrix-exact"],
    "tcp.multiflow.init": ["megaflows", "matrix-exact"],
    "tcp.multiflow.run": ["megaflows", "matrix-exact"],
    "fluid.classes": ["megaflows"],
    "fluid.engine": ["megaflows"],
}
#: Serve layer numbers that are positive on any healthy run.
SERVE_LAYERS = ("serve.submit_rtt_ms.p50", "serve.exec_ms.p50")


def run_bench(*args: str, cwd: pathlib.Path = ROOT):
    proc = subprocess.run([sys.executable, str(RUN), "--quick", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "untraced.json"
    proc, last = run_bench("--seed", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return last, json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "traced.json"
    proc, last = run_bench("--seed", "0", "--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return last, json.loads(out.read_text())


def test_benchmark_json_declares_the_bounds():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in BENCHMARK["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_declared_metrics_and_workloads_are_emitted(untraced):
    last, doc = untraced
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(doc["workloads"]) == set(WORKLOADS)
    for workload in WORKLOADS:
        record = doc["workloads"][workload]
        for metric in BENCHMARK["end_to_end"]:
            entry = record["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0 and entry["n"] >= 1
            line = last["metrics"][f"{workload}/{metric['name']}"]
            assert line == {"value": entry["value"], "unit": metric["unit"]}
        assert record["failed_frac"] == 0
        assert record["inputs_digest"] and record["outputs_digest"]
    assert doc["env"]["nproc"] >= 1 and doc["env"]["numpy"]


def test_traced_run_covers_every_layer(traced):
    last, doc = traced
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for workload in WORKLOADS:
        record = doc["workloads"][workload]
        assert {m: e["unit"] for m, e in record["metrics"].items()} \
            == per_layer
        assert "trace.overhead_frac" in record["metrics"]
        if workload == "serve":
            continue
        # The wrapped layers cover all but 5% of each op's time.
        assert record["layers"]["bench.unattributed.frac"] <= 0.05, workload
        # Every input is timed both with and without the spans, so the
        # overhead compares each input with itself.
        inputs = {str(k) for k in range(record["n_inputs"])}
        for side in ("samples", "traced_samples"):
            assert set(record[side]["latency_s"]) == inputs, (workload, side)
    for layer, workloads in LAYER_WORKLOADS.items():
        for workload in workloads:
            layers = doc["workloads"][workload]["layers"]
            assert layers[f"{layer}.calls"] >= 1, (layer, workload)
    serve = doc["workloads"]["serve"]["layers"]
    for name in SERVE_LAYERS:
        assert serve[name] > 0, name
    specs = doc["workloads"]["specs"]["layers"]
    assert specs["exec.cache.hit_ratio"] == 1.0
    assert doc["workloads"]["megaflows"]["layers"]["fluid.engine.ticks"] > 0


def test_injected_mismatch_fails_the_run():
    proc, last = run_bench("--workload", "matrix-exact", "--inject-mismatch")
    assert proc.returncode == 1
    assert last["correct"] is False and last["failed"] >= 1


def test_inputs_digest_follows_the_seed(untraced, traced, tmp_path):
    out = tmp_path / "seed1.json"
    proc, _ = run_bench("--seed", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    other = json.loads(out.read_text())["workloads"]
    for workload in WORKLOADS:
        same = untraced[1]["workloads"][workload]["inputs_digest"]
        assert traced[1]["workloads"][workload]["inputs_digest"] == same
        assert other[workload]["inputs_digest"] != same, workload


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "specs",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode not in (0, None)
    assert proc.stdout.strip() == ""


def test_speed_factor_uses_the_probes_around_an_op():
    assert SpeedProbe().factor(0.0, 1.0) == 1.0
    probe = SpeedProbe()
    probe.stamps = [float(i) for i in range(30)]
    probe.times = [REFERENCE_S] * 10 + [2 * REFERENCE_S] * 20
    # A long op: the 14 probes inside it, all at half speed.
    assert probe.factor(12.0, 25.0) == 0.5
    # A short op borrows the ten nearest probes, all at full speed.
    assert probe.factor(3.0, 3.5) == 1.0


def test_compare_verdicts():
    parent = [100.0 + i % 3 for i in range(10)]
    assert verdict(parent, parent, bound=0.1,
                   lower_is_better=True)[0] == "unchanged"
    assert verdict(parent, [v * 1.5 for v in parent], bound=0.1,
                   lower_is_better=True)[0] == "worse"
    assert verdict(parent, [v * 0.5 for v in parent], bound=0.1,
                   lower_is_better=True) == ("better", 1.0)
    noisy = [50.0, 150.0] * 5
    assert verdict(noisy, noisy, bound=0.1,
                   lower_is_better=True)[0] == "unresolved"
