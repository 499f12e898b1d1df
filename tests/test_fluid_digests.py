"""Byte-level pins on the fluid engine's outputs.

The fluid tier is approximate against the per-flow kernels, but it is
deterministic: a rewrite of its set-up, class build, birth/death
bookkeeping or allocator must not move a single bit of what it reports.
These tests run fixed inputs and compare sha256 digests of every
output the engine produces — per-flow delivered bits, finish times and
``started``, plus the result's ``class_delivered_bits``,
``queues_bits``, ``ticks``, ``now_s`` and ``samples``.  One exact-kernel
matrix pins the shared set-up path (per-path parameter arrays, the
allocator) on the numpy backend as well, and the last three tests pin
the outputs of the three exact hot-path kernels.

The digests were recorded with the dict-based class builder and the
per-flow birth loop, before those were vectorized; a mismatch means the
engine's arithmetic or ordering changed, not that the constants are
stale.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from repro.netsim import Link
from repro.netsim.flow import FlowSpec
from repro.tcp.congestion import HTcp, Reno
from repro.tcp.simulate import MultiFlowSimulation
from repro.units import Gbps, MB, Mbps, ms, seconds
from repro.workloads import traffic_matrix, wan_backbone

SITES = [f"site{i}" for i in range(8)]


def _digest(sim: MultiFlowSimulation, progress) -> str:
    h = hashlib.sha256()
    progs = list(progress.values())
    h.update(np.array([p.delivered.bits for p in progs]).tobytes())
    h.update(np.array([np.nan if p.finish_time is None else p.finish_time.s
                       for p in progs]).tobytes())
    h.update(np.array([p.started for p in progs]).tobytes())
    h.update(np.array([p.loss_events for p in progs],
                      dtype=np.int64).tobytes())
    for p in progs:
        h.update(np.array(p.time_series, dtype=np.float64).tobytes())
    h.update(struct.pack("<d", sim.finished_at.s))
    result = getattr(sim, "fluid_result", None)
    if result is not None:
        h.update(result.class_delivered_bits.tobytes())
        h.update(result.queues_bits.tobytes())
        h.update(struct.pack("<qd", result.ticks, result.now_s))
        h.update(np.array(result.samples, dtype=np.float64).tobytes())
    return h.hexdigest()


def _mixed_topology():
    topo = wan_backbone(len(SITES))
    # A lossy tributary so random-loss pressure has a class to act on.
    topo.add_host("lossy", nic_rate=Gbps(10))
    topo.connect("lossy", "core2", Link(rate=Gbps(10), delay=ms(3),
                                        loss_probability=1e-6))
    return topo


def _mixed_specs():
    rng = np.random.default_rng(7)
    specs = []
    for i in range(1_500):
        src, dst = rng.choice(3, size=2, replace=False)
        src_name = "lossy" if i % 11 == 0 else SITES[src]
        policy = {}
        if i % 5 == 0:
            policy = {"via": ("core3",)}
        elif i % 7 == 0:
            policy = {"via": ["core5"]}  # unhashable: the repr key path
        specs.append(FlowSpec(
            src=src_name, dst=SITES[dst],
            size=None if i % 13 == 0 else MB(float(rng.uniform(0.5, 8.0))),
            start=seconds(float(rng.uniform(0.0, 1.0))),
            policy=policy,
            parallel_streams=4 if i % 3 == 0 else 1,
            rate_limit=Mbps(200) if i % 4 == 0 else None,
            label=f"m{i}"))
    return specs


def _mixed_algorithms(specs):
    slow = HTcp()
    slow.delta_l = 2.0
    choices = [Reno(), HTcp(), "htcp", slow, None]
    algos = {}
    for i, spec in enumerate(specs):
        pick = choices[i % len(choices)]
        if pick is not None:
            algos[spec.label] = pick
    return algos


def test_traffic_matrix_fluid_digest():
    matrix = traffic_matrix(SITES, n_flows=5_000,
                            rng=np.random.default_rng(11),
                            mean_size=MB(2), arrival_window=seconds(2))
    sim = MultiFlowSimulation(wan_backbone(len(SITES)), matrix.specs(),
                              backend="fluid")
    progress = sim.run()
    assert (sim.fluid_result.ticks, sim.fluid_result.n_classes) == (249, 448)
    assert _digest(sim, progress) == (
        "8cbb352b65e5fd63bb7fa1c34fe2d24eba3ede05d7d10f85c21c0b3176f15f99")


def test_mixed_fluid_digest():
    specs = _mixed_specs()
    sim = MultiFlowSimulation(_mixed_topology(), specs,
                              algorithm=_mixed_algorithms(specs),
                              rng=np.random.default_rng(3),
                              backend="fluid")
    progress = sim.run(until=seconds(3.0), sample_interval=seconds(0.25))
    assert _digest(sim, progress) == (
        "f292fd04195c5949ec985f76b33e6ca3b77441a81dff0ea1f98804c3afcba3fc")


def test_mixed_fluid_digest_deterministic_loss():
    specs = _mixed_specs()[:600]
    sim = MultiFlowSimulation(_mixed_topology(), specs,
                              algorithm=_mixed_algorithms(specs),
                              backend="fluid")
    progress = sim.run(until=seconds(2.0))
    assert _digest(sim, progress) == (
        "49c404a61b71da5936ab8c41c3a5e380e98ba7a627554bf6b458a656beb14775")


def test_traffic_matrix_exact_digest():
    matrix = traffic_matrix(SITES, n_flows=200, rng=np.random.default_rng(5),
                            mean_size=MB(100), arrival_window=seconds(0.5))
    sim = MultiFlowSimulation(wan_backbone(len(SITES)), matrix.specs(),
                              rng=np.random.default_rng(1), backend="numpy")
    progress = sim.run(sample_interval=seconds(0.1))
    assert _digest(sim, progress) == (
        "49c4a42f581f58b3f2bd7c068ba5fe35bec8cc1a9a01f43b11a8acf8e5aa9920")


# -- exact-kernel pins --------------------------------------------------------
#
# One case per exact hot path, each on the inputs ``repro bench`` times in
# quick mode or in a regime that exercises the kernel's slow branch.  The
# pins hold the kernels to fixed bytes; the equivalence suites hold the
# scalar references in ``tests/reference`` to the kernels, so a reference
# that drifted together with its kernel would still fail here.

def _exact_chain_digest(sim: MultiFlowSimulation, progress) -> str:
    h = hashlib.sha256()
    progs = list(progress.values())
    h.update(np.array([p.delivered.bits for p in progs]).tobytes())
    h.update(np.array([p.loss_events for p in progs],
                      dtype=np.int64).tobytes())
    for p in progs:
        h.update(np.array(p.time_series, dtype=np.float64).tobytes())
    h.update(np.asarray(sim._queues, dtype=np.float64).tobytes())
    return h.hexdigest()


def test_bench_chain_exact_digest():
    """The quick 8-flow x 4-stream lossy chain that ``repro bench`` times."""
    from repro.bench import _chain_simulation

    sim, horizon = _chain_simulation("numpy", quick=True)
    progress = sim.run(until=horizon)
    assert sum(p.loss_events for p in progress.values()) > 0
    assert _exact_chain_digest(sim, progress) == (
        "4b345b03c0e73d5ed264c2a5209af594f70d42599012c927b05ac97bf106882a")


def test_fan_in_drop_regime_digest():
    """An 8-source fan-in sweep whose drops take the scalar replay branch."""
    from repro.netsim.packetsim import BurstySource, simulate_fan_in
    from repro.units import KB

    sources = [BurstySource(name=f"s{i}", line_rate=Gbps(1),
                            mean_rate=Mbps(600), burst_size=KB(128))
               for i in range(8)]
    result = simulate_fan_in(sources, egress_rate=Gbps(4.5),
                             buffer_size=KB(512), duration=seconds(0.5),
                             rng=np.random.default_rng(7))
    assert result.total_dropped > 0
    h = hashlib.sha256()
    for stats in result.per_source.values():
        h.update(struct.pack("<qqq", stats.offered_packets,
                             stats.delivered_packets, stats.dropped_packets))
    h.update(struct.pack("<d", result.max_queue_occupancy.bits))
    assert h.hexdigest() == (
        "60c9c90dfa3da59a809febfbc5d6e17a48b7f33534c3136005fed4d2976a348a")


def test_max_min_allocation_digest():
    """A 200-flow x 60-link max-min problem (the full ``maxmin`` bench)."""
    from repro.tcp.simulate import max_min_fair_allocation

    rng = np.random.default_rng(11)
    usage = rng.random((200, 60)) < 0.15
    usage[:, 0] = True
    demands = rng.random(200) * 10.0
    capacities = rng.random(60) * 40.0 + 1.0
    rates = max_min_fair_allocation(demands, usage, capacities)
    assert hashlib.sha256(rates.tobytes()).hexdigest() == (
        "79813c264af9b0e5f5f633316134e62b0c300ef66239bb5a1515b9f73abb83dd")
