"""Bit-identity of the exact kernels against the scalar references.

The four hot paths (multi-flow fluid loop, fan-in Lindley sweep,
max-min fair allocation, per-RTT connection loop) each ship one kernel;
the scalar loops they replaced are the oracle in
``tests/reference/kernels.py``.  The
contract is *bit*-identity, not approximate equality: goldens were
recorded against the scalar code, so any last-bit divergence in the
vectorized path would silently shift reproduced numbers.  These
property tests run each kernel plain and under ``scalar_kernels()``
over randomized topologies, flow mixes, seeds, and loss regimes and
compare raw float bit patterns (``tobytes()`` / exact ``==``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.netsim import Link, Topology
from repro.netsim.flow import FlowSpec
from repro.netsim import packetsim
from repro.netsim.packetsim import BurstySource, simulate_fan_in
from repro.tcp.congestion import Cubic, HTcp, LossFreeIdeal, Reno
from repro.tcp.connection import TcpConnection
from repro.tcp.simulate import (
    MultiFlowSimulation,
    _ProgressiveFiller,
    max_min_fair_allocation,
)
from repro.telemetry.tracer import Tracer
from repro.units import Gbps, KB, MB, Mbps, bytes_, ms, seconds
from tests.reference import kernels
from tests.reference.kernels import scalar_kernels

# Property tests run the kernel and its reference per example; keep
# example counts modest so tier-1 stays fast.  deadline=None: the
# simulation examples legitimately take tens of milliseconds each.
SETTINGS = settings(max_examples=25, deadline=None)
SIM_SETTINGS = settings(max_examples=12, deadline=None)


def test_scalar_kernels_swaps_and_restores():
    """The helper every comparison here relies on really swaps all five
    kernels for the references, and puts the kernels back."""
    swapped = (
        (MultiFlowSimulation, "_run_numpy", kernels.run_multiflow),
        (MultiFlowSimulation, "_advance_queues", kernels.advance_queues),
        (_ProgressiveFiller, "allocate", kernels.allocate),
        (packetsim, "_sweep_numpy", kernels.sweep),
        (TcpConnection, "_run", kernels.run_connection),
    )
    originals = [getattr(owner, name) for owner, name, _ in swapped]
    with scalar_kernels():
        for owner, name, reference in swapped:
            assert getattr(owner, name) is reference
    assert [getattr(owner, name) for owner, name, _ in swapped] == originals


# -- max-min fair allocation --------------------------------------------------

@st.composite
def allocation_problems(draw):
    n_flows = draw(st.integers(1, 12))
    n_links = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    usage = rng.random((n_flows, n_links)) < draw(
        st.floats(0.1, 0.9, allow_nan=False))
    demands = rng.random(n_flows) * draw(st.floats(0.5, 200.0))
    if draw(st.booleans()):
        demands[rng.integers(0, n_flows)] = np.inf
    capacities = rng.random(n_links) * draw(st.floats(0.5, 100.0)) + 1e-3
    if draw(st.booleans()):
        capacities[rng.integers(0, n_links)] = np.inf
    return demands, usage, capacities


@SETTINGS
@given(allocation_problems())
def test_max_min_backends_bit_identical(problem):
    demands, usage, capacities = problem
    a = max_min_fair_allocation(demands, usage, capacities)
    with scalar_kernels():
        b = max_min_fair_allocation(demands, usage, capacities)
    assert a.tobytes() == b.tobytes()


@st.composite
def repeated_row_allocation_problems(draw):
    """Rows drawn from a small pool of link sets, so most rows repeat —
    the shape of fluid classes, which share a few paths among many
    shards and populations.  ``row_of`` names each row's pool entry, as
    the simulations pass their path index."""
    n_links = draw(st.integers(1, 8))
    n_sets = draw(st.integers(1, 4))
    n_flows = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    pool = rng.random((n_sets, n_links)) < draw(
        st.floats(0.1, 0.9, allow_nan=False))
    row_of = rng.integers(0, n_sets, size=n_flows)
    usage = pool[row_of]
    demands = rng.random(n_flows) * draw(st.floats(0.5, 200.0))
    if draw(st.booleans()):
        demands[rng.integers(0, n_flows, size=3)] = 0.0
    if draw(st.booleans()):
        demands[rng.integers(0, n_flows)] = np.inf
    capacities = rng.random(n_links) * draw(st.floats(0.5, 100.0)) + 1e-3
    if draw(st.booleans()):
        capacities[rng.integers(0, n_links)] = np.inf
    return demands, usage, capacities, row_of


@SETTINGS
@given(repeated_row_allocation_problems())
def test_max_min_backends_bit_identical_on_repeated_rows(problem):
    demands, usage, capacities, row_of = problem
    a = _ProgressiveFiller(usage, capacities, row_of=row_of).allocate(
        demands)
    with scalar_kernels():
        b = max_min_fair_allocation(demands, usage, capacities)
    assert a.tobytes() == b.tobytes()


# -- fan-in Lindley sweep -----------------------------------------------------

@st.composite
def fanin_problems(draw):
    n_sources = draw(st.integers(1, 5))
    mean_mbps = draw(st.integers(100, 900))
    egress_gbps = draw(st.floats(0.2, 4.0, allow_nan=False))
    buffer_kb = draw(st.integers(16, 1024))
    duration_ms = draw(st.integers(20, 250))
    seed = draw(st.integers(0, 2**31 - 1))
    return n_sources, mean_mbps, egress_gbps, buffer_kb, duration_ms, seed


def _run_fanin(n_sources, mean_mbps, egress_gbps, buffer_kb, duration_ms,
               seed):
    sources = [BurstySource(name=f"s{i}", line_rate=Gbps(1),
                            mean_rate=Mbps(mean_mbps), burst_size=KB(128))
               for i in range(n_sources)]
    return simulate_fan_in(sources, egress_rate=Gbps(egress_gbps),
                           buffer_size=KB(buffer_kb),
                           duration=seconds(duration_ms / 1e3),
                           rng=np.random.default_rng(seed))


@SETTINGS
@given(fanin_problems())
def test_fanin_backends_bit_identical(problem):
    a = _run_fanin(*problem)
    with scalar_kernels():
        b = _run_fanin(*problem)
    assert a.total_offered == b.total_offered
    assert a.total_delivered == b.total_delivered
    assert a.total_dropped == b.total_dropped
    assert a.max_queue_occupancy.bits == b.max_queue_occupancy.bits
    assert set(a.per_source) == set(b.per_source)
    for name in a.per_source:
        sa, sb = a.per_source[name], b.per_source[name]
        assert (sa.offered_packets, sa.delivered_packets,
                sa.dropped_packets) == \
               (sb.offered_packets, sb.delivered_packets,
                sb.dropped_packets)


# -- multi-flow fluid simulation ----------------------------------------------

ALGORITHMS = [None, Reno(), Cubic(), HTcp()]


@st.composite
def simulation_problems(draw):
    n_hosts = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    loss_scale = draw(st.sampled_from([0.0, 1e-5, 1e-4]))
    algo_idx = draw(st.integers(0, len(ALGORITHMS) - 1))
    flows = []
    n_flows = draw(st.integers(1, 3))
    for i in range(n_flows):
        src = draw(st.integers(0, n_hosts - 1))
        dst = draw(st.integers(0, n_hosts - 1).filter(lambda d: d != src))
        flows.append({
            "src": src,
            "dst": dst,
            "mb": draw(st.integers(5, 120)),
            "streams": draw(st.integers(1, 4)),
            "start_ms": draw(st.sampled_from([0, 250, 1000])),
            "unbounded": draw(st.booleans()),
        })
    return n_hosts, seed, loss_scale, algo_idx, flows


def _build_sim(backend, n_hosts, seed, loss_scale, algo_idx, flows):
    topo = Topology("equiv-star")
    from repro.netsim.node import Router
    topo.add_node(Router(name="hub"))
    for i in range(n_hosts):
        topo.add_host(f"h{i}", nic_rate=Gbps(10))
        topo.connect(f"h{i}", "hub",
                     Link(rate=Gbps(2 + i), delay=ms(1 + 3 * i),
                          mtu=bytes_(9000),
                          loss_probability=loss_scale * (i + 1)))
    specs = []
    for i, f in enumerate(flows):
        specs.append(FlowSpec(
            src=f"h{f['src']}", dst=f"h{f['dst']}",
            size=None if f["unbounded"] else MB(f["mb"]),
            start=seconds(f["start_ms"] / 1e3),
            parallel_streams=f["streams"], label=f"f{i}"))
    return MultiFlowSimulation(topo, specs,
                               rng=np.random.default_rng(seed),
                               algorithm=ALGORITHMS[algo_idx],
                               backend=backend)


def _state_fingerprint(sim, progresses):
    state = {"queues": sim._queues.tobytes(),
             "finished_at": None if sim.finished_at is None
             else sim.finished_at.s}
    for label, prog in sorted(progresses.items()):
        state[label] = (
            prog.delivered.bits,
            None if prog.finish_time is None else prog.finish_time.s,
            prog.loss_events,
            prog.started,
            tuple(prog.time_series),
        )
    flat = [st_ for flow_streams in sim._streams for st_ in flow_streams]
    for i, st_ in enumerate(flat):
        state[f"stream{i}"] = (st_.cwnd, st_.ssthresh, st_.time_since_loss,
                               st_.rtt_clock, st_.loss_flag,
                               st_.delivered_bits, st_.remaining_bits)
    return state


@SIM_SETTINGS
@given(simulation_problems())
def test_multiflow_backends_bit_identical(problem):
    sim = _build_sim("numpy", *problem)
    kernel = _state_fingerprint(sim, sim.run(until=seconds(4)))
    with scalar_kernels():
        sim = _build_sim("numpy", *problem)
        reference = _state_fingerprint(sim, sim.run(until=seconds(4)))
    assert kernel == reference


def test_multiflow_rejects_unknown_backend():
    for name in ("cython", "python"):
        with pytest.raises(ConfigurationError, match="backend"):
            _build_sim(name, 2, 0, 0.0, 0,
                       [{"src": 0, "dst": 1, "mb": 5, "streams": 1,
                         "start_ms": 0, "unbounded": False}])


def test_final_tick_rate_recorded_on_finish():
    """A flow finishing mid-interval records its final-tick rate at the
    finish time on the kernel and its reference (the time_series
    regression fix)."""
    for swap in (contextlib.nullcontext, scalar_kernels):
        with swap():
            sim = _build_sim("numpy", 2, 5, 0.0, 1,
                             [{"src": 0, "dst": 1, "mb": 20, "streams": 2,
                               "start_ms": 0, "unbounded": False}])
            prog = sim.run(until=seconds(10))["f0"]
        assert prog.done and prog.finish_time is not None
        last_t, last_rate = prog.time_series[-1]
        assert last_t == pytest.approx(prog.finish_time.s)
        assert last_rate > 0.0


# -- per-RTT connection loop --------------------------------------------------

CONNECTION_ALGORITHMS = [Reno, HTcp, Cubic, LossFreeIdeal]


@st.composite
def connection_problems(draw):
    rate = draw(st.sampled_from([Mbps(100), Gbps(1), Gbps(10)]))
    topo = Topology("equiv-conn")
    topo.add_host("a", nic_rate=rate)
    topo.add_host("b", nic_rate=rate)
    loss = draw(st.one_of(
        st.just(0.0),
        st.floats(1e-7, 1e-3),
        st.floats(0.0, 1.0, exclude_max=True)))
    topo.connect("a", "b", Link(
        rate=rate, delay=ms(draw(st.floats(0.05, 80.0))),
        mtu=bytes_(draw(st.sampled_from([1500, 9000]))),
        loss_probability=loss))
    profile = topo.profile_between("a", "b")
    flow = profile.flow.with_(
        max_receive_window=draw(st.sampled_from([KB(64), MB(4), MB(256)])))
    rate_limit = draw(st.one_of(st.none(),
                                st.sampled_from([Mbps(50), Gbps(2)])))
    if rate_limit is not None:
        flow = flow.with_(sender_rate_limit=rate_limit)
    profile = replace(profile, flow=flow)
    kwargs = {
        "algorithm": draw(st.sampled_from(CONNECTION_ALGORITHMS)),
        "bottleneck_buffer": draw(st.one_of(
            st.none(), st.sampled_from([KB(16), KB(512), MB(32)]))),
        "initial_cwnd": draw(st.sampled_from([1.0, 10.0, 40.0])),
    }
    calls = [
        draw(st.one_of(
            st.tuples(st.just("measure"),
                      st.floats(0.01, 60.0).map(seconds)),
            st.tuples(st.just("transfer"),
                      st.floats(0.01, 5_000.0).map(MB))))
        for _ in range(draw(st.integers(1, 3)))
    ]
    max_rounds = draw(st.integers(1, 4_000))
    return (profile, kwargs, calls, max_rounds,
            draw(st.booleans()), draw(st.integers(0, 2**32 - 1)))


def _run_connections(profile, kwargs, calls, max_rounds, traced, seed):
    """Every call on one shared Generator; returns a fingerprint of the
    results, the tracer and the Generator state after each call."""
    rng = np.random.default_rng(seed)
    out = []
    for call, arg in calls:
        tracer = Tracer() if traced else None
        conn = TcpConnection(profile, algorithm=kwargs["algorithm"](),
                             rng=rng,
                             bottleneck_buffer=kwargs["bottleneck_buffer"],
                             initial_cwnd=kwargs["initial_cwnd"],
                             tracer=tracer, trace_offset=1.25)
        try:
            r = getattr(conn, call)(arg, max_rounds=max_rounds)
        except SimulationError as exc:
            outcome = ("error", str(exc))
        else:
            h = hashlib.sha256()
            for column in r.sample_columns:
                h.update(np.array(column, dtype=np.float64).tobytes())
            outcome = (np.float64(r.bytes_delivered.bits).tobytes(),
                       np.float64(r.duration.s).tobytes(), r.rounds,
                       r.loss_events, r.timeouts, r.extrapolated,
                       r.algorithm, h.hexdigest())
        events = None
        if tracer is not None:
            events = [(ev.seq, ev.t, ev.phase, ev.category, ev.name,
                       repr(sorted(ev.attrs.items())))
                      for ev in tracer.events()]
        out.append((outcome, events,
                    json.dumps(rng.bit_generator.state, sort_keys=True)))
    return out


@SIM_SETTINGS
@given(connection_problems())
def test_connection_kernel_bit_identical(problem):
    kernel = _run_connections(*problem)
    with scalar_kernels():
        reference = _run_connections(*problem)
    assert kernel == reference


class _BrokenDecrease(Reno):
    """An algorithm whose first loss raises ConfigurationError."""

    name = "broken"

    def decrease_factor(self, cwnd, rtt_min, rtt_max):
        return 1.0


def test_connection_rewinds_generator_when_the_loop_raises():
    """A loop that raises mid-block still leaves the Generator where
    one scalar draw per lossy round would."""
    topo = Topology("equiv-raise")
    topo.add_host("a", nic_rate=Gbps(1))
    topo.add_host("b", nic_rate=Gbps(1))
    topo.connect("a", "b", Link(rate=Gbps(1), delay=ms(5),
                                loss_probability=1e-3))
    profile = topo.profile_between("a", "b")
    states = []
    for swap in (contextlib.nullcontext, scalar_kernels):
        rng = np.random.default_rng(9)
        with swap():
            conn = TcpConnection(profile, algorithm=_BrokenDecrease(),
                                 rng=rng)
            with pytest.raises(ConfigurationError, match="decrease"):
                conn.measure(seconds(30))
        states.append(rng.bit_generator.state)
    assert states[0] == states[1]
