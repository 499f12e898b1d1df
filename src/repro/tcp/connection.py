"""Fluid per-RTT TCP connection model.

The model advances one round-trip at a time.  Each round the sender offers
``min(cwnd, receive-window, pacing)`` segments; the path delivers up to its
bandwidth-delay product plus the bottleneck buffer; overshoot triggers a
congestion loss event, and independent per-packet random loss (failing line
cards, dirty optics — the soft failures of §3.3) triggers stochastic loss
events.  Congestion control reacts per :mod:`repro.tcp.congestion`.

This reproduces the dynamics the paper cares about:

* loss-free, well-buffered paths converge to the bottleneck (or receive
  window) limit — Figure 1's topmost line;
* tiny random loss collapses throughput with a 1/sqrt(p) RTT-dependent
  ceiling — the Mathis regime of Figure 1's lower curves;
* a 64 KB clamped window caps throughput at window/RTT — the Penn State
  firewall pathology (Eq. 2, Figure 8);
* recovery after loss takes many RTTs at high BDP, so the same loss rate
  hurts far more at 100 ms than at 1 ms — the "local users through the
  firewall are fine" observation of §3.4.

For very long transfers the model detects loss-free steady state and
fast-forwards analytically; with random loss it simulates up to
``max_rounds`` rounds and extrapolates from the trailing mean throughput
(flagged in the result).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..netsim.topology import PathProfile
from ..telemetry.tracer import NULL_TRACER, Tracer
from ..units import DataRate, DataSize, TimeDelta, bits, seconds
from .congestion import CongestionControl, Reno

__all__ = ["RoundSample", "TransferResult", "TcpConnection"]

#: Modern initial window (RFC 6928).
INITIAL_WINDOW_SEGMENTS = 10.0
#: Minimum retransmission timeout (RFC 6298 lower bound, Linux uses 200 ms;
#: we follow the RFC's conservative 1 s to make timeout pain visible).
MIN_RTO_SECONDS = 1.0


@dataclass(frozen=True)
class RoundSample:
    """One decimated sample of connection state."""

    time: float  # seconds since transfer start
    cwnd_segments: float
    throughput_bps: float


@dataclass
class TransferResult:
    """Outcome of a single-connection transfer or measurement.

    Samples are decimated (stride doubles once 8192 accumulate) and kept
    as three float columns, ``sample_columns`` = (time_s, cwnd_segments,
    throughput_bps); :attr:`samples` builds :class:`RoundSample` objects
    from them when read.
    """

    bytes_delivered: DataSize
    duration: TimeDelta
    rounds: int
    loss_events: int
    timeouts: int
    algorithm: str
    extrapolated: bool = False
    sample_columns: Tuple[List[float], List[float], List[float]] = field(
        default_factory=lambda: ([], [], []), repr=False)

    @property
    def samples(self) -> List[RoundSample]:
        """The decimated samples as :class:`RoundSample` objects."""
        return [RoundSample(*row) for row in zip(*self.sample_columns)]

    @property
    def mean_throughput(self) -> DataRate:
        if self.duration.s <= 0:
            return DataRate(0.0)
        return DataRate(self.bytes_delivered.bits / self.duration.s)

    def sample_arrays(self) -> tuple:
        """(time_s, cwnd_segments, throughput_bps) as numpy arrays."""
        return tuple(np.array(column, dtype=np.float64)
                     for column in self.sample_columns)

    def summary(self) -> str:
        tail = " (extrapolated)" if self.extrapolated else ""
        return (
            f"{self.bytes_delivered.human()} in {self.duration.human()} "
            f"= {self.mean_throughput.human()} "
            f"[{self.algorithm}, {self.rounds} rounds, "
            f"{self.loss_events} losses, {self.timeouts} timeouts]{tail}"
        )


class TcpConnection:
    """A single TCP connection over a fixed path profile.

    Parameters
    ----------
    profile:
        End-to-end path characteristics from
        :meth:`repro.netsim.topology.Topology.profile`.
    algorithm:
        Congestion-control strategy (default Reno).
    rng:
        numpy Generator for stochastic loss draws.  Required whenever the
        path has non-zero random loss; deterministic runs may omit it.
    bottleneck_buffer:
        Queue depth at the bottleneck.  Defaults to one bandwidth-delay
        product — the provisioning the paper recommends for Science DMZ
        gear.  Shallow values reproduce cheap-switch behaviour.
    initial_cwnd:
        Initial window in segments (RFC 6928 default of 10).
    tracer:
        Optional :class:`~repro.telemetry.tracer.Tracer`.  When enabled
        the connection emits a span per transfer, an event per loss
        episode (congestion / random / timeout, with the window before
        and after) and decimated cwnd/throughput counter samples.
        Event stamps are seconds since transfer start plus
        ``trace_offset`` (pass the simulation time at which the
        transfer began to anchor events in a shared timeline).
    """

    def __init__(
        self,
        profile: PathProfile,
        *,
        algorithm: Optional[CongestionControl] = None,
        rng: Optional[np.random.Generator] = None,
        bottleneck_buffer: Optional[DataSize] = None,
        initial_cwnd: float = INITIAL_WINDOW_SEGMENTS,
        tracer: Optional[Tracer] = None,
        trace_offset: float = 0.0,
    ) -> None:
        self.profile = profile
        self.algorithm = algorithm if algorithm is not None else Reno()
        self._rng = rng
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._trace_t0 = float(trace_offset)
        if profile.random_loss > 0 and rng is None:
            raise ConfigurationError(
                "path has random loss; TcpConnection requires an rng "
                "(use Simulator.rng('tcp') or numpy.random.default_rng(seed))")

        self.mss_bits = profile.flow.mss.bits
        if self.mss_bits <= 0:
            raise ConfigurationError("profile MSS must be positive")
        self.base_rtt = max(profile.base_rtt.s, 1e-6)
        self.capacity_bps = profile.capacity.bps
        self.loss_p = float(profile.random_loss)

        rwnd_bits = profile.flow.effective_receive_window().bits
        self.rwnd_segments = max(1.0, rwnd_bits / self.mss_bits)

        self.bdp_segments = max(
            1.0, self.capacity_bps * self.base_rtt / self.mss_bits)
        if bottleneck_buffer is None:
            bottleneck_buffer = profile.bottleneck_buffer
        if bottleneck_buffer is None:
            # Well-provisioned bottleneck: one BDP of queue (the paper's
            # recommendation for Science DMZ gear).
            self.buffer_segments = self.bdp_segments
        else:
            self.buffer_segments = max(0.0, bottleneck_buffer.bits / self.mss_bits)

        rate_limit = profile.flow.sender_rate_limit
        self.rate_limit_bps = rate_limit.bps if rate_limit is not None else None

        if initial_cwnd < 1:
            raise ConfigurationError("initial_cwnd must be >= 1 segment")
        self.initial_cwnd = float(initial_cwnd)

    # -- public API ---------------------------------------------------------------
    def transfer(
        self,
        size: DataSize,
        *,
        max_rounds: int = 2_000_000,
    ) -> TransferResult:
        """Move ``size`` bytes; returns the transfer outcome."""
        if size.bits <= 0:
            raise ConfigurationError("transfer size must be positive")
        return self._run(target_bits=size.bits, duration_s=None,
                         max_rounds=max_rounds)

    def measure(
        self,
        duration: TimeDelta,
        *,
        max_rounds: int = 2_000_000,
    ) -> TransferResult:
        """Run an unbounded flow for ``duration`` (a BWCTL-style test)."""
        if duration.s <= 0:
            raise ConfigurationError("measurement duration must be positive")
        return self._run(target_bits=None, duration_s=duration.s,
                         max_rounds=max_rounds)

    def steady_state_throughput(self) -> DataRate:
        """Analytic steady-state estimate (no simulation).

        Loss-free: min(capacity, window/RTT).  With loss: the Mathis bound,
        additionally clamped by the window and capacity limits.
        """
        window_cap = self.rwnd_segments * self.mss_bits / self.base_rtt
        caps = [self.capacity_bps, window_cap]
        if self.rate_limit_bps is not None:
            caps.append(self.rate_limit_bps)
        ceiling = min(caps)
        if self.loss_p <= 0:
            return DataRate(ceiling)
        mathis = self.mss_bits / self.base_rtt / math.sqrt(self.loss_p)
        return DataRate(min(ceiling, mathis))

    # -- engine ---------------------------------------------------------------------
    def _run(
        self,
        *,
        target_bits: Optional[float],
        duration_s: Optional[float],
        max_rounds: int,
    ) -> TransferResult:
        if max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")

        # Constants are read once; in the loop ``b if b < a else a`` is
        # ``min(a, b)`` with the builtin's tie order, minus the call.
        mss, bdp, buf = self.mss_bits, self.bdp_segments, self.buffer_segments
        base_rtt, capacity = self.base_rtt, self.capacity_bps
        rwnd, algorithm = self.rwnd_segments, self.algorithm
        increase, ss_factor = algorithm.increase, algorithm.slow_start_factor
        ss_cap = 2.0 * (bdp + buf)
        cwnd_cap = ss_cap + rwnd
        pace = math.inf
        if self.rate_limit_bps is not None:
            pace = max(1.0, self.rate_limit_bps * base_rtt / mss)
        p, exp = self.loss_p, math.exp
        log1mp = math.log1p(-p) if p < 1 else -math.inf  # -inf: p_round = 1
        fast_forward = p == 0 and target_bits is not None

        cwnd = rwnd if rwnd < self.initial_cwnd else self.initial_cwnd
        ssthresh = math.inf
        time_since_loss = elapsed = delivered_bits = 0.0
        loss_events = timeouts = rounds = 0
        extrapolated = False

        # Decimated samples as three columns; ``del column[1::2]`` keeps
        # what ``column[::2]`` would, in place.
        times, cwnds, rates = [], [], []
        stride, since_sample = 1, 0

        # Steady-state fast-forward bookkeeping (loss-free paths only).
        steady_rounds, prev_rate = 0, -1.0

        # Loss uniforms come in blocks of 64 doubling to 4096.  The exit
        # rewinds to ``state`` (taken before the current block) and redraws
        # the ``used`` values: one ``rng.random()`` per lossy round, exactly.
        rng, state, block = self._rng, None, []
        block_size, n_block, used = 32, 0, 0

        tracer = self._tracer
        trace_on = tracer.enabled  # hoisted: one branch per use in the loop
        t0 = self._trace_t0
        if trace_on:
            tracer.event(
                "tcp", "transfer", t=t0, phase="B",
                target_bits=target_bits, duration_s=duration_s,
                capacity_bps=capacity, base_rtt_s=base_rtt,
                loss_p=p, rwnd_segments=rwnd, **algorithm.trace_attrs(),
            )

        try:
            while True:
                if target_bits is not None and delivered_bits >= target_bits:
                    break
                if duration_s is not None and elapsed >= duration_s:
                    break
                if rounds >= max_rounds:
                    extrapolated = target_bits is not None
                    break

                # --- sender's offered window this round -------------------------
                w_target = rwnd if rwnd < cwnd else cwnd
                w_target = pace if pace < w_target else w_target

                # --- bottleneck: queue growth and overflow -----------------------
                congestion_loss = False
                if w_target > bdp:
                    queue = w_target - bdp
                    if queue > buf:
                        congestion_loss = True
                        queue = buf
                else:
                    queue = 0.0
                # Round duration: base RTT inflated by standing-queue delay.
                rtt_eff = base_rtt + queue * mss / capacity
                ceiling = bdp + queue
                delivered = ceiling if ceiling < w_target else w_target

                # --- random loss: P[at least one loss among delivered packets] --
                random_loss = False
                if p > 0 and delivered > 0:
                    p_round = 1.0 - exp(log1mp * delivered)
                    if used == n_block:
                        block_size = block_size * 2 if block_size < 4096 else 4096
                        state = rng.bit_generator.state
                        block = rng.random(block_size).tolist()
                        n_block, used = block_size, 0
                    random_loss = block[used] < p_round
                    used += 1

                got = delivered * mss
                if target_bits is not None:
                    remaining = target_bits - delivered_bits
                    got = remaining if remaining < got else got
                delivered_bits += got
                elapsed += rtt_eff
                rounds += 1
                time_since_loss += rtt_eff

                # --- decimated sampling ------------------------------------------
                since_sample += 1
                if since_sample >= stride:
                    since_sample = 0
                    rate = delivered * mss / rtt_eff
                    times.append(elapsed)
                    cwnds.append(cwnd)
                    rates.append(rate)
                    if trace_on:
                        # Counter tracks, decimated in lockstep with samples.
                        tracer.sample("cwnd_segments", cwnd, t=t0 + elapsed,
                                      category="tcp")
                        tracer.sample("throughput_bps", rate, t=t0 + elapsed,
                                      category="tcp")
                    if len(times) >= 8192:
                        del times[1::2], cwnds[1::2], rates[1::2]
                        stride *= 2

                # --- window evolution --------------------------------------------
                if congestion_loss or random_loss:
                    loss_events += 1
                    # The window that was actually in flight is what the
                    # loss reduces (RFC 2861: cwnd must not be inflated
                    # beyond what the connection has been sending).
                    inflight = w_target if w_target < cwnd else cwnd
                    if inflight < 4.0 and random_loss:
                        # Too few duplicate ACKs to fast-retransmit: timeout.
                        timeouts += 1
                        rto = 2.0 * rtt_eff
                        rto = rto if rto > MIN_RTO_SECONDS else MIN_RTO_SECONDS
                        elapsed += rto
                        half = inflight / 2.0
                        ssthresh = half if half > 2.0 else 2.0
                        cwnd = 1.0
                        if trace_on:
                            tracer.event("tcp", "loss", t=t0 + elapsed,
                                         kind="timeout", rto_s=rto,
                                         cwnd_before=inflight, cwnd_after=cwnd)
                            tracer.counter("timeouts", component="tcp").inc()
                    else:
                        cwnd = algorithm.on_loss(inflight, base_rtt, rtt_eff)
                        ssthresh = cwnd
                        if trace_on:
                            tracer.event("tcp", "loss", t=t0 + elapsed,
                                         kind="congestion" if congestion_loss
                                         else "random", cwnd_before=inflight,
                                         cwnd_after=cwnd)
                    if trace_on:
                        tracer.counter("loss_events", component="tcp").inc()
                    time_since_loss = 0.0
                    steady_rounds = 0
                elif cwnd <= w_target + 1e-9:
                    # Congestion-window validation: when the flow is
                    # receive-window or pacing limited (w_target < cwnd),
                    # cwnd is not grown further — there are no ACKs beyond
                    # w_target to clock it (RFC 2861).
                    if cwnd < ssthresh:
                        grown = cwnd * ss_factor
                        limit = ssthresh if ssthresh != math.inf else cwnd * 2.0
                        cwnd = limit if limit < grown else grown
                        if ssthresh == math.inf:
                            cwnd = ss_cap if ss_cap < cwnd else cwnd
                    else:
                        cwnd += increase(cwnd, time_since_loss, rtt_eff)
                    cwnd = cwnd_cap if cwnd_cap < cwnd else cwnd

                # --- loss-free steady-state fast-forward -------------------------
                # Once the delivered *rate* is stable (window-capped, pacing-
                # capped, or capacity-filling sawtooth) the rest of the
                # transfer is linear in time; skip ahead analytically.
                if fast_forward:
                    rate = delivered * mss / rtt_eff
                    steady = abs(rate - prev_rate) <= 1e-9 * prev_rate
                    steady_rounds = steady_rounds + 1 if prev_rate > 0 and steady else 0
                    prev_rate = rate
                    if steady_rounds >= 3 and rate > 0:
                        remaining = target_bits - delivered_bits
                        if remaining > 0:
                            elapsed += remaining / rate
                            rounds += int(math.ceil(remaining / (delivered * mss)))
                            delivered_bits = target_bits
                        break
        finally:
            if used < n_block:
                rng.bit_generator.state = state
                rng.random(used)

        # --- extrapolate an unfinished lossy transfer -------------------------------------
        if extrapolated and target_bits is not None:
            if delivered_bits <= 0 or elapsed <= 0:
                raise SimulationError(
                    "transfer made no progress within max_rounds; "
                    "path is effectively unusable")
            rate = delivered_bits / elapsed
            remaining = target_bits - delivered_bits
            elapsed += remaining / rate
            delivered_bits = target_bits

        if trace_on:
            tracer.counter("rounds", component="tcp").inc(rounds)
            tracer.event("tcp", "transfer", t=t0 + elapsed, phase="E")
            tracer.event("tcp", "transfer-done", t=t0 + elapsed,
                         delivered_bits=delivered_bits, duration_s=elapsed,
                         rounds=rounds, loss_events=loss_events,
                         timeouts=timeouts, extrapolated=extrapolated)

        return TransferResult(
            bytes_delivered=bits(delivered_bits), duration=seconds(elapsed),
            rounds=rounds, loss_events=loss_events, timeouts=timeouts,
            algorithm=algorithm.name, extrapolated=extrapolated,
            sample_columns=(times, cwnds, rates))
