"""Scalar references for the three exact hot paths.

``src/repro`` ships one kernel per hot path: the multi-flow tick loop
(``MultiFlowSimulation._run_numpy``), max-min fair allocation
(``_ProgressiveFiller.allocate``) and the fan-in Lindley sweep
(``packetsim._sweep_numpy``).  Each is vectorized with numpy.  The
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
  *n* scalar ``random()`` calls;
* transcendental arithmetic (``**``) is routed through numpy's array
  loops on *both* sides, because numpy's SIMD ``pow`` may differ from
  libm's scalar ``pow`` in the final bit (see :func:`pow_elementwise`).
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.netsim import packetsim
from repro.tcp import simulate
from repro.units import TimeDelta, seconds


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


def allocate(self, demands: np.ndarray) -> np.ndarray:
    """Scalar reference for ``_ProgressiveFiller.allocate``: per-flow
    loops for limits and capacity deltas."""
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


#: (owner, attribute, reference) for every kernel :func:`scalar_kernels`
#: replaces.
_SWAPS = (
    (simulate.MultiFlowSimulation, "_run_numpy", run_multiflow),
    (simulate._ProgressiveFiller, "allocate", allocate),
    (packetsim, "_sweep_numpy", sweep),
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
