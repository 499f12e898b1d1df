"""Heap-based fluid tick loop: the oracle for
:meth:`repro.fluid.FluidEngine.run`.

This is the engine as it was before its per-tick bookkeeping was
batched, constructor included.  Every tick it scatters each birth
slice into the per-flow arrays, keeps ``(threshold, flow)`` tuples in
its death heaps, writes each dying class's state back one numpy scalar
at a time, and updates windows through a double fancy index per term
and one boolean mask per algorithm group.  The production engine
gathers each array once per tick, fills the per-flow birth state once
after the loop, packs heap entries into one int and writes the dying
classes' state in one assignment per array;
``tests/test_fluid_engine_differential.py`` requires both to return
the same :class:`~repro.fluid.FluidResult`, bit for bit.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.fluid.classes import FlowClass
from repro.fluid.engine import FluidResult
from repro.tcp.congestion import algorithm_key
from repro.tcp.simulate import _ProgressiveFiller


class FluidEngine:
    """Reference :class:`repro.fluid.FluidEngine`: same constructor, same
    :meth:`run`, the pre-batching loop.

    Parameters mirror the per-flow simulator where they overlap:
    ``capacities_bps`` / ``buffers_bits`` are the link inventory the
    classes' ``link_indices`` point into, ``initial_cwnd`` seeds each
    class's mean window, and ``dt_s`` is the tick (the caller passes the
    per-flow model's ``min(rtt)/2`` rule so horizons line up).
    """

    def __init__(
        self,
        classes: Sequence[FlowClass],
        capacities_bps: np.ndarray,
        buffers_bits: np.ndarray,
        *,
        initial_cwnd: float = 10.0,
        dt_s: float,
        deterministic_loss: bool = False,
    ) -> None:
        if not classes:
            raise SimulationError("FluidEngine needs at least one flow class")
        self.classes = list(classes)
        self._caps = np.asarray(capacities_bps, dtype=np.float64)
        self._buffers = np.asarray(buffers_bits, dtype=np.float64)
        self._initial_cwnd = float(initial_cwnd)
        self._dt = float(dt_s)
        self._deterministic = bool(deterministic_loss)

        n_cls, n_links = len(self.classes), self._caps.size
        usage = np.zeros((n_cls, n_links), dtype=bool)
        link_sets = {}
        row_of = np.empty(n_cls, dtype=np.int64)
        for c, cls in enumerate(self.classes):
            usage[c, list(cls.link_indices)] = True
            row_of[c] = link_sets.setdefault(cls.link_indices,
                                             len(link_sets))
        self._usage = usage
        self._filler = _ProgressiveFiller(usage, self._caps, row_of=row_of)

        self._rtt = np.array([c.rtt_s for c in self.classes])
        self._mss = np.array([c.mss_bits for c in self.classes])
        self._rwnd = np.array([c.rwnd_pkts for c in self.classes])
        self._rwnd_cap = self._rwnd * 1.25
        self._lossp = np.array([c.random_loss for c in self.classes])
        self._streams = np.array([c.streams_per_flow for c in self.classes],
                                 dtype=np.float64)
        self._flow_cap = np.array([c.rate_cap_bps for c in self.classes])

        # Classes grouped by congestion-control behaviour for batch
        # updates, under the same interchangeability key as the exact
        # kernels.
        groups: List[Tuple[object, np.ndarray]] = []
        seen = {}
        for c, cls in enumerate(self.classes):
            key = algorithm_key(cls.algorithm)
            if key not in seen:
                seen[key] = len(groups)
                groups.append((cls.algorithm, np.zeros(n_cls, dtype=bool)))
            groups[seen[key]][1][c] = True
        self._algo_groups = groups

    def run(
        self,
        *,
        horizon_s: float,
        until_given: bool,
        max_ticks: int = 2_000_000,
        sample_interval_s: float = 1.0,
    ) -> FluidResult:
        """Step the populations until every bounded flow finishes (or the
        horizon elapses).  One-shot: each call restarts from t=0."""
        classes = self.classes
        n_cls = len(classes)
        n_flows = sum(c.population for c in classes)
        dt = self._dt
        rtt, mss, rwnd = self._rtt, self._mss, self._rwnd
        rwnd_cap, lossp = self._rwnd_cap, self._lossp
        streams_c, flow_cap = self._streams, self._flow_cap
        usage_f = self._usage.astype(np.float64)
        # Congestion pressure per congested tick.  With an RNG the
        # per-flow model flags each stream Bernoulli(dt/rtt); without
        # one it flags *every* stream on the congested link, so the
        # deterministic mode saturates the pressure (the whole class
        # halves at its next window update, exactly like the exact
        # kernels' rng-less branch).
        cong_p = (np.ones(rtt.size) if self._deterministic
                  else np.minimum(1.0, dt / rtt))
        has_lossp = lossp > 0.0
        any_lossp = bool(has_lossp.any())
        # Per-flow demand cap lifted to the class: n_live * cap, only
        # evaluated for capped classes (0 * inf is NaN).
        capped = np.nonzero(np.isfinite(flow_cap))[0]

        # Global birth schedule: (start, flow) ascending across classes.
        b_starts = np.concatenate([c.starts_s for c in classes])
        b_flows = np.concatenate([c.flow_ids for c in classes])
        b_class = np.concatenate([
            np.full(c.population, c.index, dtype=np.int64) for c in classes])
        b_size = np.concatenate([c.per_stream_bits for c in classes])
        order = np.lexsort((b_flows, b_starts))
        b_starts, b_flows = b_starts[order], b_flows[order]
        b_class, b_size = b_class[order], b_size[order]
        n_births = b_starts.size
        bp = 0  # birth pointer

        # Class population state.  Slow start is tracked as the
        # *fraction* of streams still in it (exit on first loss is
        # one-way in the per-flow model, so the fraction decays by the
        # surviving share at every window update) — an infinite-ssthresh
        # mean would never leave slow start under blending.
        W = np.full(n_cls, self._initial_cwnd)
        ss_frac = np.ones(n_cls)
        tsl = np.zeros(n_cls)
        # Shards start mid-window (phase in [0, 1)) so sibling shards'
        # updates stagger across the RTT like per-flow stream clocks.
        rtt_clock = np.array([c.phase for c in classes]) * rtt
        P = np.zeros(n_cls)            # accumulated loss pressure
        D = np.zeros(n_cls)            # cumulative per-stream delivered bits
        n_flows_live = np.zeros(n_cls)
        n_streams_live = np.zeros(n_cls)
        agg = np.zeros(n_cls)          # class delivered bits (conserved)
        queues = np.zeros(self._caps.size)

        # Flow-level outcome state (touched only at birth/death).
        started = np.zeros(n_flows, dtype=bool)
        d_birth = np.zeros(n_flows)
        streams_of = np.zeros(n_flows)
        class_of = np.zeros(n_flows, dtype=np.int64)
        finish_s = np.full(n_flows, np.nan)
        heaps: List[list] = [[] for _ in range(n_cls)]
        next_death = np.full(n_cls, np.inf)
        n_unfinished = n_flows

        now = 0.0
        next_sample = 0.0
        samples: List[Tuple[float, float]] = []
        allocate = self._filler.allocate

        for tick in range(max_ticks):
            if now >= horizon_s:
                break
            # Births: the start-sorted schedule's next slice.  Live
            # counts are small exact integers, so adding them per class
            # in one bincount equals adding them one birth at a time.
            hi = (int(np.searchsorted(b_starts, now, side="right"))
                  if bp < n_births else bp)
            if hi > bp:
                f_new, c_new = b_flows[bp:hi], b_class[bp:hi]
                started[f_new] = True
                class_of[f_new] = c_new
                streams_of[f_new] = streams_c[c_new]
                d_birth[f_new] = D[c_new]
                n_flows_live += np.bincount(c_new, minlength=n_cls)
                n_streams_live += np.bincount(
                    c_new, weights=streams_c[c_new], minlength=n_cls)
                sized = np.isfinite(b_size[bp:hi])
                if sized.any():
                    c_sized = c_new[sized].tolist()
                    thresholds = D[c_new[sized]] + b_size[bp:hi][sized]
                    for c, thr, f in zip(c_sized, thresholds.tolist(),
                                         f_new[sized].tolist()):
                        heapq.heappush(heaps[c], (thr, f))
                    for c in set(c_sized):
                        next_death[c] = heaps[c][0][0]
                bp = hi

            live = n_streams_live > 0.0
            if not live.any():
                if bp < n_births:
                    now = min(float(b_starts[bp]), horizon_s)
                    continue
                if not until_given:
                    break
                now = horizon_s
                continue

            demands = np.where(
                live, n_streams_live * np.minimum(W, rwnd) * mss / rtt, 0.0)
            if capped.size:
                demands[capped] = np.minimum(
                    demands[capped], n_flows_live[capped] * flow_cap[capped])

            alloc = allocate(demands)

            # Virtual queues: same advance rule as the per-flow model,
            # driven by class-aggregate offered load.
            offered = demands @ usage_f
            queues = np.maximum(0.0, queues + (offered - self._caps) * dt)
            overflowing = queues > self._buffers
            np.minimum(queues, self._buffers, out=queues)

            rate_ps = np.where(live, alloc / np.maximum(n_streams_live, 1.0),
                               0.0)

            # Loss pressure: expected fraction of a class's streams that
            # flagged a loss since the last window update.  Congestion
            # contributes dt/rtt per congested tick (the per-flow model's
            # per-stream Bernoulli rate); random path loss contributes
            # its per-packet expectation over the bits moved this tick.
            e = np.where(live & (self._usage[:, overflowing].any(axis=1)
                                 if overflowing.any()
                                 else np.zeros(n_cls, dtype=bool)),
                         cong_p, 0.0)
            if any_lossp:
                pkts = rate_ps * dt / mss
                e_rand = np.where(has_lossp,
                                  1.0 - (1.0 - lossp) ** pkts, 0.0)
                e = 1.0 - (1.0 - e) * (1.0 - e_rand)
            P = 1.0 - (1.0 - P) * (1.0 - e)

            # Deliver and harvest deaths (heap pops touch only classes
            # whose cumulative delivered crossed a member's threshold).
            inc = rate_ps * dt
            D += inc
            agg += inc * n_streams_live
            dying = np.nonzero(D >= next_death)[0]
            if dying.size:
                # Each class's state is read into Python floats once;
                # every member shares the class's stream count, and
                # ``agg`` is reduced one finisher at a time, in pop order.
                dead, dead_at = [], []
                end = now + dt
                for c, d, rate, a, s in zip(
                        dying.tolist(), D[dying].tolist(),
                        rate_ps[dying].tolist(), agg[dying].tolist(),
                        streams_c[dying].tolist()):
                    heap = heaps[c]
                    popped = 0
                    while heap and heap[0][0] <= d:
                        thr, f = heapq.heappop(heap)
                        over = d - thr
                        dead.append(f)
                        dead_at.append(end - over / rate if rate > 0.0
                                       else end)
                        a -= over * s
                        popped += 1
                    agg[c] = a
                    n_flows_live[c] -= popped
                    n_streams_live[c] -= popped * s
                    n_unfinished -= popped
                    next_death[c] = heap[0][0] if heap else np.inf
                finish_s[dead] = dead_at

            # Per-RTT mean-field window update: the expectation of the
            # per-flow rule under loss fraction P.
            rtt_clock += live * dt
            tsl += live * dt
            upd = live & (rtt_clock >= rtt)
            if upd.any():
                rtt_clock[upd] = 0.0
                p = P[upd]
                s = ss_frac[upd]
                w_up = W[upd]
                for algo, cmask in self._algo_groups:
                    sel = upd & cmask
                    if not sel.any():
                        continue
                    sub = cmask[upd]
                    # Loss-free growth is the population mix of the two
                    # regimes: the slow-start fraction doubles, the rest
                    # takes the congestion-avoidance increase (windows
                    # already past rwnd hold, like the per-flow rule).
                    grow_ss = np.minimum(w_up[sub] * algo.slow_start_factor,
                                         rwnd_cap[upd][sub])
                    grow_ca = np.where(
                        w_up[sub] <= rwnd[upd][sub],
                        np.minimum(
                            w_up[sub] + algo.increase_batch(
                                w_up[sub], tsl[upd][sub], rtt[upd][sub]),
                            rwnd_cap[upd][sub]),
                        w_up[sub])
                    grow_sel = s[sub] * grow_ss + (1.0 - s[sub]) * grow_ca
                    inflight = np.minimum(w_up[sub], rwnd[upd][sub])
                    w_loss = algo.on_loss_batch(
                        inflight, rtt[upd][sub], rtt[upd][sub])
                    W[sel] = p[sub] * w_loss + (1.0 - p[sub]) * grow_sel
                ss_frac[upd] = s * (1.0 - p)
                tsl[upd] *= 1.0 - p
                P[upd] = 0.0

            now += dt
            if now >= next_sample:
                next_sample = now + sample_interval_s
                samples.append((now, float(alloc.sum())))
            if n_unfinished == 0 and bp >= b_starts.size and not until_given:
                break
        else:
            raise SimulationError(
                f"multi-flow simulation did not settle within {max_ticks} ticks"
            )

        # Per-flow delivered totals from the class's cumulative counter:
        # streams * (D_at_finish - D_at_birth), clipped to the transfer
        # size.  Sums match `agg` to float roundoff by construction (the
        # death loop subtracts each finisher's overshoot).
        per_stream_done = np.concatenate([c.per_stream_bits for c in classes])
        flow_ids = np.concatenate([c.flow_ids for c in classes])
        size_of = np.empty(n_flows)
        size_of[flow_ids] = per_stream_done
        delivered = np.where(
            started,
            streams_of * np.minimum(D[class_of] - d_birth, size_of),
            0.0)

        retired = sum(
            1 for c in classes
            if np.isfinite(finish_s[c.flow_ids]).all())
        self.queues = queues
        return FluidResult(
            now_s=now,
            ticks=tick + 1,
            delivered_bits=delivered,
            finish_s=finish_s,
            started=started,
            queues_bits=queues,
            class_delivered_bits=agg,
            class_population=np.array([c.population for c in classes]),
            classes_retired=retired,
            samples=samples,
        )
