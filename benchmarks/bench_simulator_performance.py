"""Performance regression benchmarks for the simulator itself.

These are the only benches that use pytest-benchmark's repeated-rounds
mode: they time the hot paths (fluid TCP rounds, packet sweeps, path
profiling, mesh measurement) so a slowdown in the substrate shows up as
a benchmark regression rather than as mysteriously slow experiments.

This file also feeds the committed performance baseline: running it
outside quick mode writes ``BENCH_simulator.json`` (the suite timings,
uploaded as a CI artifact and gated by ``repro bench --compare``), and
with ``REPRO_WRITE_BASELINE=1`` it refreshes ``benchmarks/baseline.json``.
"""

from __future__ import annotations

import os
import pathlib

import numpy as np
import pytest

from _common import emit, quick, quick_mode, results_dir
from repro import bench as perf
from repro.core import simple_science_dmz
from repro.netsim import Link, Topology
from repro.netsim.packetsim import BurstySource, simulate_fan_in
from repro.tcp import Reno, TcpConnection
from repro.units import GB, Gbps, KB, MB, Mbps, bytes_, ms, seconds
from tests.reference.kernels import scalar_kernels

BASELINE_PATH = pathlib.Path(__file__).parent / "baseline.json"


@pytest.fixture(scope="module")
def lossy_profile():
    topo = Topology("perf")
    topo.add_host("a", nic_rate=Gbps(10))
    topo.add_host("b", nic_rate=Gbps(10))
    topo.connect("a", "b", Link(rate=Gbps(10), delay=ms(10),
                                mtu=bytes_(9000),
                                loss_probability=1e-4))
    profile = topo.profile_between("a", "b")
    from dataclasses import replace
    return replace(profile,
                   flow=profile.flow.with_(max_receive_window=MB(64)))


def test_perf_fluid_tcp_10k_rounds(benchmark, lossy_profile):
    """~10k fluid TCP rounds with stochastic loss (the workhorse loop)."""
    def run():
        conn = TcpConnection(lossy_profile, algorithm=Reno(),
                             rng=np.random.default_rng(1))
        return conn.measure(seconds(200), max_rounds=20_000).rounds

    rounds = benchmark(run)
    assert rounds >= 9_000


def test_perf_packet_sweep_100k(benchmark):
    """~100k packets through the fan-in sweep (vectorized generation +
    python drain loop)."""
    sources = [BurstySource(name=f"s{i}", line_rate=Gbps(1),
                            mean_rate=Mbps(500), burst_size=KB(128))
               for i in range(4)]

    def run():
        return simulate_fan_in(sources, egress_rate=Gbps(1.5),
                               buffer_size=KB(512),
                               duration=seconds(1.0),
                               rng=np.random.default_rng(2)).total_offered

    offered = benchmark(run)
    assert offered > 80_000


def test_perf_path_profile(benchmark):
    """Profile folding on a realistic design (done per probe/transfer)."""
    bundle = simple_science_dmz()

    def run():
        return bundle.topology.profile_between(
            "remote-dtn", "dtn1", **bundle.science_policy).capacity.bps

    assert benchmark(run) > 0


def test_perf_loss_free_fast_forward(benchmark):
    """A 1 TB loss-free transfer must be effectively O(1) thanks to the
    steady-state fast-forward."""
    topo = Topology("ff")
    topo.add_host("a", nic_rate=Gbps(10))
    topo.add_host("b", nic_rate=Gbps(10))
    topo.connect("a", "b", Link(rate=Gbps(10), delay=ms(40),
                                mtu=bytes_(9000)))
    profile = topo.profile_between("a", "b")
    from dataclasses import replace
    profile = replace(profile,
                      flow=profile.flow.with_(max_receive_window=MB(512)))

    def run():
        return TcpConnection(profile).transfer(GB(1000)).duration.s

    duration = benchmark(run)
    assert duration > 700  # ~13.6 min of simulated time...
    # ...computed in well under a millisecond of wall time (benchmark
    # stats assert nothing here; regressions show in the timing report).


def test_perf_multiflow_64x4(benchmark):
    """64 flows x 4 streams over a shared 30-link lossy chain (the
    headline many-flow workload for the vectorized fluid loop)."""
    is_quick = quick_mode()

    def run():
        sim, horizon = perf._chain_simulation("numpy", is_quick)
        return sim.run(until=horizon)

    progress = benchmark(run)
    delivered = sum(p.delivered.bits for p in progress.values())
    assert delivered > 0


def test_perf_vectorized_backends_agree():
    """The vectorized kernels and the scalar references in
    tests/reference/kernels.py must return byte-identical results on the
    many-flow chain scenario (quick-sized here; the full randomized
    battery lives in tests/test_vectorized_equivalence.py)."""
    sim, horizon = perf._chain_simulation("numpy", True)
    a = sim.run(until=horizon)
    with scalar_kernels():
        sim, horizon = perf._chain_simulation("numpy", True)
        b = sim.run(until=horizon)
    assert set(a) == set(b)
    for label in a:
        assert a[label].delivered.bits == b[label].delivered.bits
        assert a[label].loss_events == b[label].loss_events
        assert a[label].time_series == b[label].time_series


def test_perf_vectorized_speedups():
    """The vectorized kernels must beat the scalar references in
    tests/reference/kernels.py: >=5x on the 64-flow chain, >=3x on the
    fan-in sweep (asserted only in full mode; quick-mode workloads are
    too small to be meaningful)."""
    is_quick = quick_mode()
    repeats = quick(3, 1)

    def best(name):
        return perf.run_scenario(name, repeats=repeats,
                                 quick=is_quick)["seconds"]

    kernel = {name: best(name) for name in ("multiflow.numpy", "fanin.numpy")}
    with scalar_kernels():
        reference = {name: best(name) for name in kernel}
    multiflow = reference["multiflow.numpy"] / kernel["multiflow.numpy"]
    fanin = reference["fanin.numpy"] / kernel["fanin.numpy"]
    emit("BENCH_speedups",
         "vectorized kernel speedups vs scalar reference\n"
         f"  multiflow 64x4: {multiflow:.2f}x "
         f"({reference['multiflow.numpy'] * 1e3:.0f}ms -> "
         f"{kernel['multiflow.numpy'] * 1e3:.0f}ms)\n"
         f"  fan-in sweep:   {fanin:.2f}x "
         f"({reference['fanin.numpy'] * 1e3:.0f}ms -> "
         f"{kernel['fanin.numpy'] * 1e3:.0f}ms)")
    if not is_quick:
        assert multiflow >= 5.0, f"multiflow speedup {multiflow:.2f}x < 5x"
        assert fanin >= 3.0, f"fan-in speedup {fanin:.2f}x < 3x"


def test_perf_suite_artifact():
    """Run the regression suite and write BENCH_simulator.json (the CI
    artifact that ``repro bench --compare`` gates against the committed
    ``benchmarks/baseline.json``).

    With ``REPRO_WRITE_BASELINE=1`` (full mode only) the run also
    refreshes the committed baseline.
    """
    is_quick = quick_mode()
    payload = perf.run_suite(repeats=quick(3, 1), quick=is_quick)
    out_dir = results_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    path = perf.write_json(payload, str(out_dir / "BENCH_simulator.json"))
    print(f"wrote suite timings to {path}")
    if not is_quick and os.environ.get("REPRO_WRITE_BASELINE", "") == "1":
        perf.write_json(payload, str(BASELINE_PATH))
        print(f"refreshed baseline at {BASELINE_PATH}")
