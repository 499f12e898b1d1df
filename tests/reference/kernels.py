"""Scalar references for the exact hot paths.

``src/repro`` ships one kernel per hot path: the multi-flow tick loop
(``MultiFlowSimulation._run_numpy``) and its per-link queue advance
(``MultiFlowSimulation._advance_queues``), max-min fair allocation
(``_ProgressiveFiller.allocate``), the fan-in Lindley sweep
(``packetsim._sweep_numpy``) and the per-RTT connection loop
(``TcpConnection._run``).  All but the last are vectorized with numpy;
the connection loop stays scalar (each round depends on the last) but
draws its uniforms in blocks and keeps its samples as columns.  The
plain loops below are what those kernels were written against, and
the kernels must return exactly what they return, bit for bit: the
goldens were recorded on these loops.  Each reference has the call
signature of the kernel it stands in for, so :func:`scalar_kernels`
can swap it in for a whole run and ``tests/test_vectorized_equivalence``
and ``tests/test_experiment_backend_differential`` compare the two.

Rules the kernels follow to stay bit-identical to these loops:

* per-group reductions use sequential-accumulation primitives
  (``np.cumsum`` / ``np.bincount``), which numpy evaluates in array
  order exactly like the scalar loop;
* random variates are drawn in the scalar loop's order — one
  ``Generator.random(n)`` call consumes the PCG64 stream identically to
  *n* scalar ``random()`` calls, and a kernel that draws ahead rewinds
  the ``Generator`` to the exact count it used;
* transcendental arithmetic (``**``) is routed through numpy's array
  loops on *both* sides, because numpy's SIMD ``pow`` may differ from
  libm's scalar ``pow`` in the final bit (see :func:`pow_elementwise`).
"""

from __future__ import annotations

import contextlib
import math
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.netsim import packetsim
from repro.tcp import connection, simulate
from repro.units import TimeDelta, bits, seconds


def pow_elementwise(base: float, exponent: float) -> float:
    """``base ** exponent`` evaluated through numpy's array power loop.

    numpy's vectorized ``**`` may differ from libm's scalar ``pow`` in
    the final bit; the scalar reference routes its powers through the
    same array loop as the vectorized kernel so the two stay
    bit-identical.
    """
    return float(np.power(np.array([base]), np.array([exponent]))[0])


def run_multiflow(
    self,
    until: Optional[TimeDelta],
    max_ticks: int,
    sample_interval: TimeDelta,
    *,
    rtts: np.ndarray,
    dt: float,
    horizon: float,
    mss_bits: np.ndarray,
    rwnd_pkts: np.ndarray,
    loss_p: np.ndarray,
    rate_caps: np.ndarray,
) -> float:
    """Scalar reference for ``MultiFlowSimulation._run_numpy``: one
    :class:`~repro.tcp.simulate._StreamState` object per stream, a plain
    per-stream loop."""
    now = 0.0
    next_sample = 0.0
    rng = self._rng
    n_flows = len(self._specs)

    for tick in range(max_ticks):
        if now >= horizon:
            break
        active_any = False
        demands = np.zeros(n_flows)
        for f, (spec, streams) in enumerate(zip(self._specs, self._streams)):
            prog = self.progress[self._labels[f]]
            if prog.done or now < spec.start.s:
                continue
            prog.started = True
            active_any = True
            demand = sum(
                min(st.cwnd, rwnd_pkts[f]) * mss_bits[f] / rtts[f]
                for st in streams
                if st.remaining_bits is None or st.remaining_bits > 0
            )
            demands[f] = min(demand, rate_caps[f])
        if not active_any:
            # Flows scheduled in the future? Jump the clock to the next
            # start rather than ending the simulation early.
            pending = [
                spec.start.s
                for label, spec in zip(self._labels, self._specs)
                if not self.progress[label].done and spec.start.s > now
            ]
            if pending:
                now = min(min(pending), horizon)
                continue
            if until is None:
                break
            now = min(horizon, now + dt)
            continue

        alloc = allocate(self._filler, demands)

        overflowing = self._advance_queues(demands, dt)

        # Loss events: congestion overflow + random path loss.
        for f in range(n_flows):
            label = self._labels[f]
            prog = self.progress[label]
            if prog.done or demands[f] <= 0:
                continue
            streams = self._streams[f]
            live = [st for st in streams
                    if st.remaining_bits is None or st.remaining_bits > 0]
            if not live:
                continue
            rate_per_stream = alloc[f] / len(live)
            congested = bool((self._usage[f] & overflowing).any())
            for st in live:
                got = rate_per_stream * dt
                if st.remaining_bits is not None:
                    got = min(got, st.remaining_bits)
                    st.remaining_bits -= got
                st.delivered_bits += got
                if congested and rng is not None:
                    # Probability scaled by the flow's share of overload.
                    if rng.random() < min(1.0, dt / rtts[f]):
                        st.loss_flag = True
                elif congested:
                    st.loss_flag = True
                if loss_p[f] > 0:
                    pkts = got / mss_bits[f]
                    p_evt = 1.0 - pow_elementwise(1.0 - loss_p[f], pkts)
                    if rng.random() < p_evt:
                        st.loss_flag = True

                # Per-RTT congestion-control update.
                st.rtt_clock += dt
                st.time_since_loss += dt
                if st.rtt_clock >= rtts[f]:
                    st.rtt_clock = 0.0
                    algo = self._algorithms[self._algorithm_of[f]]
                    if st.loss_flag:
                        st.loss_flag = False
                        prog.loss_events += 1
                        # Reduce from what was actually in flight
                        # (RFC 2861), not an inflated cwnd.
                        inflight = min(st.cwnd, rwnd_pkts[f])
                        st.cwnd = float(algo.on_loss_batch(
                            np.array([inflight]),
                            np.array([rtts[f]]),
                            np.array([rtts[f]]))[0])
                        st.ssthresh = st.cwnd
                        st.time_since_loss = 0.0
                    elif st.cwnd < st.ssthresh:
                        st.cwnd = min(st.cwnd * algo.slow_start_factor,
                                      rwnd_pkts[f] * 1.25)
                    elif st.cwnd <= rwnd_pkts[f]:
                        grow = float(algo.increase_batch(
                            np.array([st.cwnd]),
                            np.array([st.time_since_loss]),
                            np.array([rtts[f]]))[0])
                        st.cwnd = min(st.cwnd + grow,
                                      rwnd_pkts[f] * 1.25)

            if all(st.remaining_bits is not None and st.remaining_bits <= 0
                   for st in streams):
                prog.finish_time = seconds(now + dt)
                # Final-tick sample: close the series at the finish
                # time so the last partial interval is not silently
                # extrapolated from the previous sample boundary.
                if prog.started:
                    prog.time_series.append((now + dt, float(alloc[f])))

        now += dt
        if now >= next_sample:
            next_sample = now + sample_interval.s
            for f, label in enumerate(self._labels):
                prog = self.progress[label]
                if prog.started and not prog.done:
                    prog.time_series.append((now, float(alloc[f])))
    else:
        raise SimulationError(
            f"multi-flow simulation did not settle within {max_ticks} ticks"
        )
    return now


def advance_queues(self, demands: np.ndarray, dt: float) -> np.ndarray:
    """Reference for ``MultiFlowSimulation._advance_queues``: offered
    load per link as a dense sum over the (flows, links) usage matrix."""
    offered_per_link = (demands[:, None] * self._usage).sum(axis=0)
    overload = offered_per_link - self._capacities
    queues = np.maximum(0.0, self._queues + overload * dt)
    overflowing = queues > self._buffers
    self._queues = np.minimum(queues, self._buffers)
    return overflowing


def allocate(self, demands: np.ndarray) -> np.ndarray:
    """Scalar reference for ``_ProgressiveFiller.allocate``: per-flow
    loops for limits and capacity deltas, over every flow (the kernel
    fills the flows with positive demand only)."""
    usage = self.usage
    n_flows, n_links = self.n_flows, self.n_links
    alloc = np.zeros(n_flows)
    frozen = demands <= 0
    alloc[frozen] = 0.0
    remaining_cap = self.capacities.copy()
    for _ in range(n_flows + n_links + 1):
        active = ~frozen
        if not active.any():
            break
        active_per_link = usage[active].sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            share = np.where(
                active_per_link > 0,
                remaining_cap / np.maximum(active_per_link, 1),
                np.inf,
            )
        limit = np.full(n_flows, np.inf)
        for f in range(n_flows):
            links = usage[f]
            if links.any():
                limit[f] = share[links].min()
        headroom = demands - alloc
        satisfied = active & (headroom <= limit + 1e-9)
        if satisfied.any():
            grant = headroom[satisfied]
            alloc[satisfied] += grant
            released = np.zeros(n_links)
            for f, g in zip(np.nonzero(satisfied)[0], grant):
                for link in np.nonzero(usage[f])[0]:
                    released[link] += g
            remaining_cap = remaining_cap - released
            frozen |= satisfied
            continue
        finite_links = share[active_per_link > 0]
        if finite_links.size == 0 or not np.isfinite(finite_links).any():
            alloc[active] = demands[active]
            break
        min_share = finite_links[np.isfinite(finite_links)].min()
        bottleneck_links = ((active_per_link > 0)
                            & (share <= min_share + 1e-9))
        to_freeze = active & usage[:, bottleneck_links].any(axis=1)
        taken = np.zeros(n_links)
        for f in np.nonzero(to_freeze)[0]:
            alloc[f] += limit[f]
            for link in np.nonzero(usage[f])[0]:
                taken[link] += limit[f]
        remaining_cap = remaining_cap - taken
        remaining_cap = np.maximum(remaining_cap, 0.0)
        frozen |= to_freeze
    return np.minimum(alloc, demands)


def sweep(
    times: np.ndarray,
    owners: np.ndarray,
    n_sources: int,
    cap_bits: float,
    pkt_bits: float,
    drain_bps: float,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Scalar reference for ``packetsim._sweep_numpy``: one Python
    iteration per packet."""
    backlog = 0.0
    last_t = 0.0
    max_backlog = 0.0
    delivered = np.zeros(n_sources, dtype=np.int64)
    dropped = np.zeros(n_sources, dtype=np.int64)
    for t, who in zip(times, owners):
        backlog = max(0.0, backlog - (t - last_t) * drain_bps)
        last_t = t
        if backlog + pkt_bits <= cap_bits:
            backlog += pkt_bits
            delivered[who] += 1
            if backlog > max_backlog:
                max_backlog = backlog
        else:
            dropped[who] += 1
    return delivered, dropped, max_backlog


def run_connection(
    self,
    *,
    target_bits: Optional[float],
    duration_s: Optional[float],
    max_rounds: int,
) -> connection.TransferResult:
    """Scalar reference for ``TcpConnection._run``: one
    :class:`~repro.tcp.connection.RoundSample` per sampled round and one
    scalar ``Generator.random()`` draw per lossy round."""
    if max_rounds < 1:
        raise ConfigurationError("max_rounds must be >= 1")

    cwnd = min(self.initial_cwnd, self.rwnd_segments)
    ssthresh = float("inf")
    time_since_loss = 0.0
    elapsed = 0.0
    delivered_bits = 0.0
    loss_events = 0
    timeouts = 0
    rounds = 0
    extrapolated = False

    samples: List[connection.RoundSample] = []
    stride = 1
    since_sample = 0

    # Steady-state fast-forward bookkeeping (loss-free paths only).
    steady_rounds = 0
    prev_rate = -1.0

    mss = self.mss_bits
    bdp = self.bdp_segments
    buf = self.buffer_segments
    p = self.loss_p
    rng = self._rng
    # log(1-p) is -inf at p = 1, which makes every round with traffic a
    # loss event (p_round = 1).
    log1mp = math.log1p(-p) if p < 1 else -math.inf

    tracer = self._tracer
    trace_on = tracer.enabled  # hoisted: one branch per use in the loop
    t0 = self._trace_t0
    if trace_on:
        tracer.event(
            "tcp", "transfer", t=t0, phase="B",
            target_bits=target_bits, duration_s=duration_s,
            capacity_bps=self.capacity_bps, base_rtt_s=self.base_rtt,
            loss_p=p, rwnd_segments=self.rwnd_segments,
            **self.algorithm.trace_attrs(),
        )

    while True:
        if target_bits is not None and delivered_bits >= target_bits:
            break
        if duration_s is not None and elapsed >= duration_s:
            break
        if rounds >= max_rounds:
            extrapolated = target_bits is not None
            break

        # --- sender's offered window this round -------------------------------
        w_target = min(cwnd, self.rwnd_segments)
        if self.rate_limit_bps is not None:
            pace = self.rate_limit_bps * self.base_rtt / mss
            w_target = min(w_target, max(1.0, pace))

        # --- bottleneck: queue growth and overflow -----------------------------
        congestion_loss = False
        if w_target > bdp:
            queue = w_target - bdp
            if queue > buf:
                congestion_loss = True
                queue = buf
        else:
            queue = 0.0
        # Round duration: base RTT inflated by standing-queue delay.
        rtt_eff = self.base_rtt + queue * mss / self.capacity_bps
        delivered_this_round = min(w_target, bdp + queue)

        # --- random loss -----------------------------------------------------------
        random_loss = False
        if p > 0 and delivered_this_round > 0:
            # P[at least one loss among delivered packets]
            p_round = 1.0 - math.exp(log1mp * delivered_this_round)
            if rng.random() < p_round:
                random_loss = True

        if target_bits is not None:
            remaining = target_bits - delivered_bits
            delivered_bits += min(delivered_this_round * mss, remaining)
        else:
            delivered_bits += delivered_this_round * mss
        elapsed += rtt_eff
        rounds += 1
        time_since_loss += rtt_eff

        # --- decimated sampling ------------------------------------------------------
        since_sample += 1
        if since_sample >= stride:
            since_sample = 0
            samples.append(connection.RoundSample(
                time=elapsed,
                cwnd_segments=cwnd,
                throughput_bps=delivered_this_round * mss / rtt_eff,
            ))
            if trace_on:
                # Counter tracks, decimated in lockstep with samples.
                tracer.sample("cwnd_segments", cwnd, t=t0 + elapsed,
                              category="tcp")
                tracer.sample("throughput_bps",
                              delivered_this_round * mss / rtt_eff,
                              t=t0 + elapsed, category="tcp")
            if len(samples) >= 8192:
                samples = samples[::2]
                stride *= 2

        # --- window evolution ---------------------------------------------------------
        if congestion_loss or random_loss:
            loss_events += 1
            # The window that was actually in flight is what the loss
            # reduces (RFC 2861: cwnd must not be inflated beyond what
            # the connection has been sending).
            inflight = min(cwnd, w_target)
            if inflight < 4.0 and random_loss:
                # Too few duplicate ACKs to fast-retransmit: timeout.
                timeouts += 1
                rto = max(connection.MIN_RTO_SECONDS, 2.0 * rtt_eff)
                elapsed += rto
                ssthresh = max(2.0, inflight / 2.0)
                cwnd = 1.0
                if trace_on:
                    tracer.event("tcp", "loss", t=t0 + elapsed,
                                 kind="timeout", rto_s=rto,
                                 cwnd_before=inflight, cwnd_after=cwnd)
                    tracer.counter("timeouts", component="tcp").inc()
            else:
                cwnd = self.algorithm.on_loss(
                    inflight, self.base_rtt, rtt_eff
                )
                ssthresh = cwnd
                if trace_on:
                    tracer.event(
                        "tcp", "loss", t=t0 + elapsed,
                        kind="congestion" if congestion_loss else "random",
                        cwnd_before=inflight, cwnd_after=cwnd)
            if trace_on:
                tracer.counter("loss_events", component="tcp").inc()
            time_since_loss = 0.0
            steady_rounds = 0
        else:
            # Congestion-window validation: when the flow is receive-
            # window or pacing limited (w_target < cwnd), cwnd is not
            # grown further — there are no ACKs beyond w_target to
            # clock it (RFC 2861).
            if cwnd <= w_target + 1e-9:
                if cwnd < ssthresh:
                    cwnd = min(
                        cwnd * self.algorithm.slow_start_factor, ssthresh
                        if ssthresh != float("inf") else cwnd * 2.0,
                    )
                    if ssthresh == float("inf"):
                        cwnd = min(cwnd, 2.0 * (bdp + buf))
                else:
                    cwnd += self.algorithm.increase(
                        cwnd, time_since_loss, rtt_eff
                    )
                cwnd = min(cwnd, 2.0 * (bdp + buf) + self.rwnd_segments)

        # --- loss-free steady-state fast-forward --------------------------------
        # Once the delivered *rate* is stable (window-capped, pacing-
        # capped, or capacity-filling sawtooth) the rest of the transfer
        # is linear in time; skip ahead analytically.
        if p == 0 and target_bits is not None:
            rate = delivered_this_round * mss / rtt_eff
            if prev_rate > 0 and abs(rate - prev_rate) <= 1e-9 * prev_rate:
                steady_rounds += 1
            else:
                steady_rounds = 0
            prev_rate = rate
            if steady_rounds >= 3 and rate > 0:
                remaining = target_bits - delivered_bits
                if remaining > 0:
                    extra_rounds = remaining / (delivered_this_round * mss)
                    elapsed += remaining / rate
                    rounds += int(math.ceil(extra_rounds))
                    delivered_bits = target_bits
                break

    # --- extrapolate an unfinished lossy transfer -------------------------------------
    if extrapolated and target_bits is not None:
        if delivered_bits <= 0 or elapsed <= 0:
            raise SimulationError(
                "transfer made no progress within max_rounds; "
                "path is effectively unusable"
            )
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
    return connection.TransferResult(
        bytes_delivered=bits(delivered_bits),
        duration=seconds(elapsed),
        rounds=rounds,
        loss_events=loss_events,
        timeouts=timeouts,
        algorithm=self.algorithm.name,
        extrapolated=extrapolated,
        sample_columns=([s.time for s in samples],
                        [s.cwnd_segments for s in samples],
                        [s.throughput_bps for s in samples]),
    )


#: (owner, attribute, reference) for every kernel :func:`scalar_kernels`
#: replaces.
_SWAPS = (
    (simulate.MultiFlowSimulation, "_run_numpy", run_multiflow),
    (simulate.MultiFlowSimulation, "_advance_queues", advance_queues),
    (simulate._ProgressiveFiller, "allocate", allocate),
    (packetsim, "_sweep_numpy", sweep),
    (connection.TcpConnection, "_run", run_connection),
)


@contextlib.contextmanager
def scalar_kernels() -> Iterator[None]:
    """Run every exact hot path on its scalar reference in this process::

        with scalar_kernels():
            run_experiment(spec)   # every kernel takes the scalar loop

    The numpy kernels are restored on exit.  Pool workers are separate
    processes and keep the numpy kernels, so callers use one worker.
    """
    saved = [(owner, name, getattr(owner, name))
             for owner, name, _ in _SWAPS]
    for owner, name, reference in _SWAPS:
        setattr(owner, name, reference)
    try:
        yield
    finally:
        for owner, name, kernel in saved:
            setattr(owner, name, kernel)
