"""Edge-case and algorithm-specific tests for the fluid TCP model."""

import contextlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.netsim import Link, Topology
from repro.tcp import Cubic, HTcp, LossFreeIdeal, Reno, TcpConnection
from repro.tcp.connection import MIN_RTO_SECONDS
from repro.units import GB, Gbps, KB, MB, Mbps, bytes_, ms, seconds


def profile(*, rate=Gbps(10), one_way=ms(25), loss=0.0, window=MB(256),
            mtu=bytes_(9000)):
    topo = Topology("edge")
    topo.add_host("a", nic_rate=rate)
    topo.add_host("b", nic_rate=rate)
    topo.connect("a", "b", Link(rate=rate, delay=one_way, mtu=mtu,
                                loss_probability=loss))
    p = topo.profile_between("a", "b")
    from dataclasses import replace
    return replace(p, flow=p.flow.with_(max_receive_window=window))


class TestCubicConnection:
    def test_cubic_completes_and_fills_clean_path(self):
        result = TcpConnection(profile(), algorithm=Cubic()).transfer(GB(50))
        assert result.algorithm == "cubic"
        assert result.mean_throughput.gbps > 5

    def test_cubic_beats_reno_under_loss_at_high_bdp(self):
        p = profile(loss=1 / 22000, one_way=ms(50))
        reno = TcpConnection(p, algorithm=Reno(),
                             rng=np.random.default_rng(1)).measure(
            seconds(60), max_rounds=100_000)
        cubic = TcpConnection(p, algorithm=Cubic(),
                              rng=np.random.default_rng(1)).measure(
            seconds(60), max_rounds=100_000)
        assert cubic.mean_throughput.bps > reno.mean_throughput.bps

    def test_htcp_vs_cubic_both_reasonable(self):
        p = profile(loss=1e-4)
        rates = {}
        for algo in (HTcp(), Cubic()):
            result = TcpConnection(p, algorithm=algo,
                                   rng=np.random.default_rng(2)).measure(
                seconds(40), max_rounds=100_000)
            rates[algo.name] = result.mean_throughput.bps
        # Both modern algorithms hold within 5x of each other.
        hi, lo = max(rates.values()), min(rates.values())
        assert hi < 5 * lo


class TestIdealAlgorithm:
    def test_ideal_converges_at_least_as_fast(self):
        slow = TcpConnection(profile(), algorithm=Reno()).transfer(GB(5))
        fast = TcpConnection(profile(), algorithm=LossFreeIdeal()).transfer(
            GB(5))
        # Both converge within slow start on a clean path; the ideal must
        # never be meaningfully slower.
        assert fast.duration.s <= slow.duration.s * 1.05
        assert fast.rounds <= slow.rounds


class TestTimeouts:
    def test_rto_floor_respected(self):
        assert MIN_RTO_SECONDS >= 1.0

    def test_timeouts_dominate_on_awful_paths(self):
        p = profile(rate=Mbps(100), one_way=ms(5), loss=0.10, window=MB(1))
        result = TcpConnection(p, rng=np.random.default_rng(3)).transfer(
            MB(2), max_rounds=50_000)
        assert result.timeouts > 0
        # Each timeout costs at least the RTO.
        assert result.duration.s >= result.timeouts * MIN_RTO_SECONDS * 0.9


class TestParameterValidation:
    def test_initial_cwnd_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            TcpConnection(profile(), initial_cwnd=0.5)

    def test_max_rounds_must_be_positive(self):
        conn = TcpConnection(profile())
        with pytest.raises(ConfigurationError):
            conn.transfer(GB(1), max_rounds=0)

    def test_tiny_window_still_progresses(self):
        # Window smaller than one MSS clamps to one segment per RTT.
        p = profile(window=KB(4))
        result = TcpConnection(p).transfer(MB(1))
        assert result.bytes_delivered.bits == pytest.approx(MB(1).bits)
        expected = KB(4).bits / p.base_rtt.s  # at most window/RTT
        assert result.mean_throughput.bps <= expected * 2.5

    def test_catastrophic_loss_is_flagged_not_hidden(self):
        # A near-total-loss path degenerates to timeout-dominated crawl;
        # the result must carry the extrapolation flag and a duration in
        # the right (absurd) ballpark rather than a silent happy number.
        p = profile(loss=0.999999, window=MB(1))
        conn = TcpConnection(p, rng=np.random.default_rng(4))
        result = conn.transfer(GB(1), max_rounds=50)
        assert result.extrapolated
        assert result.timeouts > 10
        assert result.duration.hours > 1


class TestTotalLoss:
    """A link that drops every packet must not read as a clean one."""

    @pytest.mark.parametrize("call,arg", [("measure", seconds(10)),
                                          ("transfer", GB(1))])
    def test_every_round_with_traffic_is_a_loss_event(self, call, arg):
        p = profile(loss=1.0, window=MB(1))
        conn = TcpConnection(p, rng=np.random.default_rng(4))
        result = getattr(conn, call)(arg, max_rounds=50)
        assert result.rounds > 0
        assert result.loss_events == result.rounds
        assert result.timeouts >= result.rounds - 2
        assert result.mean_throughput.bps < Mbps(1).bps

    def test_total_loss_matches_the_reference_loop(self):
        from tests.reference.kernels import scalar_kernels

        results = []
        for swap in (contextlib.nullcontext, scalar_kernels):
            rng = np.random.default_rng(4)
            with swap():
                r = TcpConnection(profile(loss=1.0), rng=rng).measure(
                    seconds(10))
            results.append((r.rounds, r.loss_events, r.timeouts,
                            r.duration.s, r.sample_columns,
                            rng.bit_generator.state))
        assert results[0] == results[1]
        assert results[0][0] == results[0][1]


class TestSampling:
    def test_stride_doubling_caps_memory(self):
        p = profile(loss=5e-4, one_way=ms(1))
        result = TcpConnection(p, rng=np.random.default_rng(5)).measure(
            seconds(120), max_rounds=200_000)
        assert len(result.samples) <= 8192
        assert result.rounds > 8192  # decimation actually engaged

    def test_sample_times_monotone(self):
        p = profile(loss=1e-4)
        result = TcpConnection(p, rng=np.random.default_rng(6)).transfer(
            GB(2), max_rounds=40_000)
        t, _, _ = result.sample_arrays()
        assert np.all(np.diff(t) > 0)
