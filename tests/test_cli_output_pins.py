"""Byte-level pins on what the run-shaped commands print and write.

``repro run``, ``repro sweep`` and ``repro chaos`` share one execution
path; these pins hold their user-visible output to the values recorded
before that path was unified: the summary lines ``repro run`` prints
for every committed spec, the sweep table and its ``--stats-json``
counters (cold and cache-warm), and the exact bytes of a campaign
report.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import re

import pytest

from repro.cli import main

SPECS = pathlib.Path(__file__).parent.parent / "specs"

#: ``repro run <spec> --no-persist``: the header line, then every
#: two-space-indented line except the manifest digest (which covers the
#: code version and so moves with any source change).
RUN_LINES = {
    "chaos_demo_broken_oracle.json": [
        "campaign 'chaos-demo-broken-oracle': intentionally misconfigured "
        "mathis-ceiling oracle (binds in the light-loss regime the fluid "
        "model legitimately beats) - demonstrates shrinking to a minimal "
        "fault set",
        "  failed: 4", "  oracles: 1", "  schedules: 4", "  shrunk: 2",
        "  violations: 16",
        "  engine:          numpy",
        "  spec digest:     "
        "65f252bc042ad1de37d9a140c60af9db239440777283994124da299e5a26c531",
        "  result digest:   "
        "61777428c570bcd7860e9240afce2ff3574fbf3e94985083e8a0d78877ec8bc5",
    ],
    "chaos_demo_repro.json": [
        "scenario 'chaos-demo-broken-oracle-s000-min': ddmin of "
        "chaos-demo-broken-oracle-s000: minimal fault set still violating "
        "['mathis-ceiling']",
        "  alerts: 22", "  detected: 1",
        "  detection_delays_s: {'0': 7.199999999999989}",
        "  duration_s: 1500.0", "  faults: 1", "  first_alert_s: 330.0",
        "  measurements: 108",
        "  engine:          numpy",
        "  spec digest:     "
        "7c74cff378688f8d585bbf2731f85c105f22eec5f0f0cd1a4b9231cadaaed352",
        "  result digest:   "
        "49b0cdaa681bf1242ce33dba45a70ff76df7c9ab9ad944c20b216328424366f1",
    ],
    "chaos_quick.json": [
        "campaign 'chaos-quick': 16-schedule smoke campaign: all default "
        "oracles over the simple Science DMZ (CI chaos-smoke job)",
        "  failed: 0", "  oracles: 8", "  schedules: 16", "  shrunk: 0",
        "  violations: 0",
        "  engine:          numpy",
        "  spec digest:     "
        "f0271ed53a5fdc74343fe843a03b0d9e554899d9d2450a1ed6a1d917821d60d1",
        "  result digest:   "
        "2a3ee1a335dd4f80a3b2990e2ebd6e15a335fc0e2db57ba9350fbd8747ff6856",
    ],
    "federation_quick.json": [
        "federation 'federation-quick': six-domain federation: origin lab, "
        "two regional caches, three campus site caches",
        "  byte_savings_max: 488816273720", "  hit_rate_max: 0.6875",
        "  hit_rate_min: 0.595", "  scales: 4",
        "  engine:          numpy",
        "  spec digest:     "
        "6c00e7d8c1d9bea2e09cdbb984d29b681b671eeea500ca2f0b6de8fe400d7293",
        "  result digest:   "
        "a6cc1128b18227841a7b867f1fef2ee85867bdaf43e0062686f2db7797ebb14c",
    ],
    "fig1_tcp_loss.json": [
        "sweep 'fig1-tcp-loss': Figure 1 measured grid: Reno and H-TCP at "
        "the paper's 1/22000 loss, 10 Gbps hosts, 9 KB MTU",
        "  failed: 0", "  ok: 54", "  points: 54", "  target: fig1_tcp",
        "  engine:          numpy",
        "  spec digest:     "
        "fbdfc4e43b23965680712ffbe3853ece2821b75073d56d78bcd3bc198143bc9b",
        "  result digest:   "
        "dcf07461e70264348b87f5c12e8491c2c600cc93bce7cb535f588cfecafad5c5",
    ],
    "fig1_tcp_loss_quick.json": [
        "sweep 'fig1-tcp-loss-quick': CI-sized slice of the Figure 1 "
        "measured grid (golden-replayed every push)",
        "  failed: 0", "  ok: 6", "  points: 6", "  target: fig1_tcp",
        "  engine:          numpy",
        "  spec digest:     "
        "f54573da41a247de80e4d9586c9e3764bde0c82fe59e6ac0e6158e4e4c1bf749",
        "  result digest:   "
        "1c325e098a71f4d0d3b9197b00c6be927f5ab22947282db8a4b61613fea34271",
    ],
    "linecard_softfail.json": [
        "scenario 'linecard-softfail': §2 failing line card on the border "
        "router: 1/22000 loss, OWAMP mesh every minute, 90-minute watch",
        "  alerts: 83", "  detected: 1", "  detection_delays_s: {'0': 0.0}",
        "  duration_s: 5400.0", "  faults: 1", "  first_alert_s: 1800.0",
        "  measurements: 381",
        "  engine:          numpy",
        "  spec digest:     "
        "d63a75ad8ed37e87c6f55b27e2c624a7f52ceaeb908791f59ab1e42cf63c047d",
        "  result digest:   "
        "f1b9b6d59e3b6c4b7aeac9b09071405df4206dc49fa88af872fab6c8c0db5463",
    ],
}

#: sha256 of the sweep table ``repro run`` prints for the sweep specs.
SWEEP_TABLES = {
    "fig1_tcp_loss.json":
        "a0c57be002662cbca149bb4691403ea6d28eeca3b9628d3c5239055be1c01a56",
    "fig1_tcp_loss_quick.json":
        "76fda3ad79e401d5b4a438dda073f7138686c01a87cbe2c056947ca7ae15ee3d",
}

#: ``repro sweep mathis --cache-dir D --stats-json F``, cold then warm.
SWEEP_STATS_COLD = {
    "cache_corrupt": 0, "cache_entries": 9, "cache_hits": 0,
    "cache_misses": 9, "cache_stores": 9, "cache_uncacheable": 0,
    "evaluated": 9, "failures": 0, "grid_points": 9, "points": 9,
    "target": "mathis", "workers": 1,
}
SWEEP_STATS_WARM = dict(SWEEP_STATS_COLD, cache_hits=9, cache_misses=0,
                        cache_stores=0, evaluated=0)
SWEEP_TABLE = (
    "8c92fe2d8b440488d17164f487c04ed1040f48bd3867903191e44faa1683508c")

#: sha256 of ``repro chaos specs/chaos_quick.json --seed 7 --report F``.
CHAOS_QUICK_SEED7_REPORT = (
    "38c3e73e315f939d327cbe875cb25ffb4c4a82c005d3f25baed4692dc3e1d2fd")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in ("REPRO_WORKERS", "REPRO_CACHE", "REPRO_BACKEND"):
        monkeypatch.delenv(name, raising=False)


@pytest.mark.parametrize("spec", sorted(RUN_LINES))
def test_run_prints_pinned_summary_lines(spec, capsys):
    assert main(["run", str(SPECS / spec), "--no-persist"]) == 0
    out = capsys.readouterr().out.splitlines()
    pinned = [out[0]] + [
        line for line in out[1:]
        if re.match(r"^  [^ ]", line)
        and not line.startswith("  manifest digest:")]
    assert pinned == RUN_LINES[spec]
    if spec in SWEEP_TABLES:
        start = out.index(next(l for l in out if l.startswith("== ")))
        end = next(i for i, l in enumerate(out) if l.startswith("  "))
        assert _sha256("\n".join(out[start:end])) == SWEEP_TABLES[spec]


def test_every_committed_spec_is_pinned():
    committed = {p.name for p in SPECS.glob("*.json")} - {"golden.json"}
    assert committed == set(RUN_LINES)


def test_sweep_stats_json_cold_and_warm(tmp_path, capsys):
    cache = tmp_path / "cache"
    for name, want in (("cold", SWEEP_STATS_COLD),
                       ("warm", SWEEP_STATS_WARM)):
        stats_path = tmp_path / f"{name}.json"
        assert main(["sweep", "mathis", "--cache-dir", str(cache),
                     "--stats-json", str(stats_path)]) == 0
        out = capsys.readouterr().out
        assert json.loads(stats_path.read_text()) == want
        assert _sha256(out.split("\nwrote ")[0]) == SWEEP_TABLE


def test_chaos_report_bytes(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["chaos", str(SPECS / "chaos_quick.json"), "--seed", "7",
                 "--report", str(report), "--no-persist"]) == 0
    capsys.readouterr()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == \
        CHAOS_QUICK_SEED7_REPORT
