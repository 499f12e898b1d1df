"""Byte-level pins on ``repro trace``, ``repro chaos`` replay and
``repro bench``.

These commands run through :func:`repro.experiment.run_experiment` (or,
for a replay, the campaign's own point function); the pins hold what
they print and write to the values recorded before they did: the
traced §2 timeline's Chrome JSON and JSONL bytes, a replayed schedule's
summary and violation lines, and the line shape of a bench run.
"""

from __future__ import annotations

import hashlib
import pathlib
import re

import pytest

from repro.cli import EXIT_BAD_INPUT, EXIT_DOMAIN_FAILURE, EXIT_OK, main

SPECS = pathlib.Path(__file__).parent.parent / "specs"

#: ``repro trace simple-science-dmz --until 1h``: sha256 of stdout (with
#: the two output paths written as ``A`` and ``B``), the Chrome JSON
#: and the JSONL log.
TRACE_1H = {
    "stdout": "0a54b453ae096e09ea158457ac03bc4726eba96094a91f4b2856e8fa04f17266",
    "chrome": "890c881b2eb3680d2c48c26bce3ccf4a12e0efad074e3bd7cf0573e63059b7d5",
    "jsonl": "575efc441919dd3377b62ef78819959ee9603214c53260609566dc180c7b0ae8",
}

#: ``... --fault optics --node dmz-switch --repair-at 1h``, same digests.
TRACE_OPTICS_REPAIR = {
    "stdout": "27a93030f658eed706dfc66f23ce97f36574b82dcfc3eff182031c5cb5df2e08",
    "chrome": "e933281a54471d98d7734f9d88014a2ea4abf07adb1c325b2761262e12bcd08d",
    "jsonl": "d34ce4fd48e85c48696f0efe8a56596e0d51fcb5949d8775e7aa31935b1b0f3d",
}

REPLAY_SUMMARY = [
    "  alerts: 22",
    "  detected: 1",
    "  detection_delays_s: {'0': 7.199999999999989}",
    "  duration_s: 1500.0",
    "  faults: 1",
    "  first_alert_s: 330.0",
    "  measurements: 108",
]


def _replay_header(oracles: int) -> str:
    return ("replayed schedule 'chaos-demo-broken-oracle-s000-min' "
            f"(seed 7627682222671511056) against {oracles} oracle(s)")


#: ``repro chaos specs/chaos_demo_repro.json --oracle`` with this
#: over-tight Mathis ceiling: its stderr.
TIGHT_MATHIS = "mathis-ceiling:min_loss=1e-6,slack=0.5"
TIGHT_MATHIS_VIOLATIONS = [
    f"VIOLATION mathis-ceiling: {pair} t={t}: measured {bps} bps exceeds "
    "0.5x Mathis bound 2.635e+08 bps at loss 4.54545e-05"
    for pair, t, bps in (
        ("dmz-perfsonar->remote-dtn", "600.0", "9.525e+08"),
        ("dmz-perfsonar->remote-dtn", "1200.0", "1.909e+09"),
        ("remote-dtn->dmz-perfsonar", "900.0", "1.230e+09"),
        ("remote-dtn->dmz-perfsonar", "1500.0", "2.063e+09"),
    )
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in ("REPRO_WORKERS", "REPRO_CACHE", "REPRO_BACKEND"):
        monkeypatch.delenv(name, raising=False)


@pytest.mark.parametrize("argv,want", [
    (("--until", "1h"), TRACE_1H),
    (("--fault", "optics", "--node", "dmz-switch", "--repair-at", "1h"),
     TRACE_OPTICS_REPAIR),
], ids=["linecard-1h", "optics-repair"])
def test_trace_output_bytes(tmp_path, capsys, argv, want):
    chrome, jsonl = tmp_path / "trace.json", tmp_path / "trace.jsonl"
    assert main(["trace", "simple-science-dmz", *argv, "--out", str(chrome),
                 "--jsonl", str(jsonl)]) == EXIT_OK
    out = capsys.readouterr().out
    out = out.replace(str(jsonl), "B").replace(str(chrome), "A")
    assert {"stdout": _sha256(out.encode("utf-8")),
            "chrome": _sha256(chrome.read_bytes()),
            "jsonl": _sha256(jsonl.read_bytes())} == want


@pytest.mark.parametrize("argv", [
    ("--repair-at", "3h", "--until", "2h"),
    ("--at", "2h", "--until", "2h"),
    ("--node", "no-such-node"),
], ids=["repair-after-horizon", "fault-at-horizon", "unknown-node"])
def test_trace_bad_timeline_is_two(tmp_path, capsys, argv):
    chrome = tmp_path / "trace.json"
    rc = main(["trace", "simple-science-dmz", *argv, "--out", str(chrome)])
    err = capsys.readouterr().err
    assert rc == EXIT_BAD_INPUT
    assert err.startswith("error: ") and "Traceback" not in err
    assert not chrome.exists()


def test_chaos_replay_stdout(capsys):
    assert main(["chaos", str(SPECS / "chaos_demo_repro.json")]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        _replay_header(8), *REPLAY_SUMMARY, "every oracle held"]
    assert captured.err == ""


def test_chaos_replay_violations(capsys):
    assert main(["chaos", str(SPECS / "chaos_demo_repro.json"),
                 "--oracle", TIGHT_MATHIS]) == EXIT_DOMAIN_FAILURE
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [_replay_header(1), *REPLAY_SUMMARY]
    assert captured.err.splitlines() == TIGHT_MATHIS_VIOLATIONS


def test_bench_line_shape(capsys):
    assert main(["bench", "--quick", "--repeats", "1",
                 "--only", "maxmin.numpy"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "running bench suite (quick mode):"
    # A 24-wide name column, then the time in a 10-wide column.
    assert [line[:27] for line in lines[1:]] == [
        f"  {'maxmin.numpy':<24s} ", f"  {'calibration':<24s} "]
    for line in lines[1:]:
        assert len(line) == 40 and re.fullmatch(r" *\d+\.\d ms", line[27:])
