"""Byte-level pins on :class:`~repro.tcp.TcpConnection` results.

Every field of a :class:`~repro.tcp.TransferResult` (bytes, duration,
rounds, loss and timeout counts, the extrapolation flag and the three
decimated sample columns) is hashed together with the caller's
``Generator`` state after the call.  The lossy cases run in sequence on
one shared ``Generator``, as the perfSONAR mesh runs its BWCTL tests, so
a kernel that draws one uniform too many or too few moves every later
pin.  One traced transfer pins the tracer's events, counters and the
``cwnd_segments`` / ``throughput_bps`` tracks.

The digests were recorded on the scalar per-round loop that is now
``tests/reference/kernels.run_connection``; a mismatch means the
connection model's arithmetic, draw order or sampling changed.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from repro.netsim import Link, Topology
from repro.tcp import Cubic, HTcp, Reno, TcpConnection
from repro.telemetry.tracer import Tracer
from repro.units import GB, Gbps, KB, MB, Mbps, bytes_, ms, seconds

ALGORITHMS = {"reno": Reno, "htcp": HTcp, "cubic": Cubic}


def _profile(*, loss=0.0, one_way=ms(10), rate=Gbps(10), window=MB(64),
             rate_limit=None):
    topo = Topology("pins")
    topo.add_host("a", nic_rate=rate)
    topo.add_host("b", nic_rate=rate)
    topo.connect("a", "b", Link(rate=rate, delay=one_way, mtu=bytes_(9000),
                                loss_probability=loss))
    p = topo.profile_between("a", "b")
    flow = p.flow.with_(max_receive_window=window)
    if rate_limit is not None:
        flow = flow.with_(sender_rate_limit=rate_limit)
    return replace(p, flow=flow)


def _digest(result, rng) -> str:
    h = hashlib.sha256()
    h.update(struct.pack("<ddqqq?", result.bytes_delivered.bits,
                         result.duration.s, result.rounds,
                         result.loss_events, result.timeouts,
                         result.extrapolated))
    h.update(result.algorithm.encode())
    samples = result.samples
    h.update(struct.pack("<q", len(samples)))
    for column in ("time", "cwnd_segments", "throughput_bps"):
        h.update(np.array([getattr(s, column) for s in samples],
                          dtype=np.float64).tobytes())
    if rng is not None:
        h.update(json.dumps(rng.bit_generator.state,
                            sort_keys=True).encode())
    return h.hexdigest()[:16]


def _grid():
    """(name, profile kwargs, algorithm, connection kwargs, call, arg,
    max_rounds) for every pinned case, in the shared-Generator order."""
    cases = []
    for algo in ALGORITHMS:
        for loss in (0.0, 1e-4, 0.02):
            cases.append((f"{algo}-measure-{loss:g}", {"loss": loss}, algo,
                          {}, "measure", seconds(20), 2_000_000))
            cases.append((f"{algo}-transfer-{loss:g}", {"loss": loss}, algo,
                          {}, "transfer", MB(200), 2_000_000))
    cases += [
        ("rate-limited-lossy", {"loss": 1e-4, "rate_limit": Gbps(2)},
         "reno", {}, "measure", seconds(20), 2_000_000),
        ("rate-limited-clean", {"rate_limit": Mbps(700)},
         "htcp", {}, "transfer", GB(5), 2_000_000),
        ("shallow-buffer-lossy", {"loss": 1e-4}, "cubic",
         {"bottleneck_buffer": KB(256)}, "measure", seconds(20), 2_000_000),
        ("shallow-buffer-clean", {}, "reno",
         {"bottleneck_buffer": KB(64)}, "transfer", GB(2), 2_000_000),
        ("extrapolated", {"loss": 1e-4}, "htcp", {}, "transfer", GB(50),
         3_000),
        ("fast-forward", {"one_way": ms(40), "window": MB(512)}, "reno", {},
         "transfer", GB(1000), 2_000_000),
        ("max-rounds-measure", {"loss": 0.02}, "reno", {}, "measure",
         seconds(600), 700),
        ("decimated", {"loss": 5e-5, "one_way": ms(1)}, "reno", {},
         "measure", seconds(60), 2_000_000),
    ]
    return cases


PINS = {
    "reno-measure-0": "d48a6c7885ccc932",
    "reno-transfer-0": "16e8a39754f6c5d9",
    "reno-measure-0.0001": "337a3977c8ef0eea",
    "reno-transfer-0.0001": "b40b6059da4e25c8",
    "reno-measure-0.02": "5d19924537b68b49",
    "reno-transfer-0.02": "c06212b4d5eab0e4",
    "htcp-measure-0": "8123680c4bc787e1",
    "htcp-transfer-0": "1adf486229c22b44",
    "htcp-measure-0.0001": "9ed4c9477069b715",
    "htcp-transfer-0.0001": "fbce17cc0e28ab21",
    "htcp-measure-0.02": "8710f5ba917ff21b",
    "htcp-transfer-0.02": "59bded79be45ea2c",
    "cubic-measure-0": "f37cd10ac3ace280",
    "cubic-transfer-0": "88284ce0b057dcab",
    "cubic-measure-0.0001": "fb1bc68f4bd4d77c",
    "cubic-transfer-0.0001": "e9d61b592e64d9b3",
    "cubic-measure-0.02": "cb0e0ef987925c54",
    "cubic-transfer-0.02": "e7152a31c376897c",
    "rate-limited-lossy": "a0ceaf6856c75765",
    "rate-limited-clean": "a924bf11ef78f645",
    "shallow-buffer-lossy": "63af085c9cc6de93",
    "shallow-buffer-clean": "7bafe3854a4d0c8b",
    "extrapolated": "81bc08e4a9612897",
    "fast-forward": "5757366aaa726849",
    "max-rounds-measure": "6100b3438b60c882",
    "decimated": "66647162a5e560d5",
}

FINAL_STATE_PIN = "99bd17c0c09ddd11"


def _run_grid():
    """Every case on one shared Generator: ``(digests, final state
    digest, {name: (profile, result)})``."""
    rng = np.random.default_rng(20130917)
    digests, results = {}, {}
    for name, pkw, algo, ckw, call, arg, max_rounds in _grid():
        profile = _profile(**pkw)
        conn_rng = rng if profile.random_loss > 0 else None
        conn = TcpConnection(profile, algorithm=ALGORITHMS[algo](),
                             rng=conn_rng, **ckw)
        result = getattr(conn, call)(arg, max_rounds=max_rounds)
        digests[name] = _digest(result, rng)
        results[name] = (profile, result)
    state = json.dumps(rng.bit_generator.state, sort_keys=True)
    return digests, hashlib.sha256(state.encode()).hexdigest()[:16], results


def test_grid_covers_the_pinned_regimes():
    names = [case[0] for case in _grid()]
    assert len(names) == len(set(names))
    assert not any(case[1].get("loss") == 1.0 for case in _grid())


def test_transfer_results_match_pins():
    digests, final_state, results = _run_grid()
    assert digests == PINS
    assert final_state == FINAL_STATE_PIN

    # The pins are only as strong as the paths they reach.
    reached = {
        "timeouts": any(r.timeouts > 0 for _, r in results.values()),
        "extrapolated": any(r.extrapolated for _, r in results.values()),
        "decimated": any(r.rounds > 8192 for _, r in results.values()),
        "fast_forward": (results["fast-forward"][1].rounds
                         > 100 * len(results["fast-forward"][1].samples)),
        "congestion": any(p.random_loss == 0 and r.loss_events > 0
                          for p, r in results.values()),
    }
    assert all(reached.values()), reached


TRACE_PIN = "ae15d58c86076457"


def _traced_digest() -> str:
    tracer = Tracer()
    profile = _profile(loss=1e-3, one_way=ms(5))
    conn = TcpConnection(profile, algorithm=HTcp(),
                         rng=np.random.default_rng(11),
                         bottleneck_buffer=KB(512), tracer=tracer,
                         trace_offset=3.5)
    result = conn.transfer(MB(400), max_rounds=1_500)
    h = hashlib.sha256()
    for ev in tracer.events():
        h.update(repr((ev.seq, ev.t, ev.phase, ev.category, ev.name,
                       sorted(ev.attrs.items()))).encode())
    for track in ("cwnd_segments", "throughput_bps"):
        points = [(ev.t, ev.attrs["value"]) for ev in tracer.events()
                  if ev.phase == "C" and ev.name == track]
        assert len(points) == len(result.samples) or result.rounds > 8192
        h.update(np.array(points, dtype=np.float64).tobytes())
    counters = {name: tracer.counter(name, component="tcp").value
                for name in ("rounds", "loss_events", "timeouts")}
    h.update(repr(sorted(counters.items())).encode())
    return h.hexdigest()[:16]


def test_traced_transfer_matches_pin():
    assert _traced_digest() == TRACE_PIN


@pytest.mark.parametrize("call", ["measure", "transfer"])
def test_sample_arrays_match_samples(call):
    conn = TcpConnection(_profile(loss=1e-4), algorithm=Reno(),
                         rng=np.random.default_rng(3))
    arg = seconds(20) if call == "measure" else MB(300)
    result = getattr(conn, call)(arg)
    t, w, r = result.sample_arrays()
    assert t.dtype == w.dtype == r.dtype == np.float64
    assert t.tolist() == [s.time for s in result.samples]
    assert w.tolist() == [s.cwnd_segments for s in result.samples]
    assert r.tolist() == [s.throughput_bps for s in result.samples]
