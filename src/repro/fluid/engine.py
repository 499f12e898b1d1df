"""The mean-field stepper: ODE population dynamics over flow classes.

Each tick advances *classes*, not flows:

1. every class with live members offers
   ``n_streams_live * min(W, rwnd) * mss / rtt`` (W is the class's mean
   per-stream congestion window), capped by its members' rate limits;
2. link bandwidth is divided max-min fairly among *classes* (the same
   progressive-filling allocator as the per-flow kernels, at class
   granularity — flows within a class are symmetric, so the class-level
   split equals the flow-level one);
3. links whose offered load exceeds capacity grow the same virtual
   queues as the per-flow model; overflow plus random path loss feed a
   per-class *loss pressure* ``P`` — the expected fraction of streams
   that saw a loss event since the last window update;
4. once per RTT the mean window takes the expectation of the per-flow
   update: ``W <- P * on_loss(W) + (1-P) * grow(W)``, with slow-start,
   ssthresh, and the receive-window cap mirroring the exact kernels'
   arithmetic (the same :class:`~repro.tcp.congestion.CongestionControl`
   batch methods);
5. births are one ``searchsorted`` slice of the start-sorted schedule
   per tick, applied to the class counters with array ops; deaths pop
   a per-class heap of finish thresholds expressed in cumulative
   per-stream delivered bits, visiting only classes where a member
   finished.  The only per-flow interpreter work is one heap push at
   birth and one pop at death.

Per-tick cost is O(classes + links) plus the flows born or finishing
in that tick; total birth/death cost is O(flows log flows) over the
whole run.  On a 1,056-class matrix numpy's per-call overhead, not
the class count, sets the tick's cost, so each step takes a small,
fixed number of array calls: one gather per array of the classes it
touches, in-place updates, and one write back per array.  The engine
is deterministic —
loss is an expectation, not a sample — so it needs no RNG.

This is the approximate tier: see :mod:`repro.fluid` for the accuracy
contract, and ``benchmarks/bench_megaflows.py`` for the gate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..tcp.congestion import CongestionControl, algorithm_key
from ..tcp.simulate import _ProgressiveFiller
from .classes import FlowClass

__all__ = ["DEFAULT_SWITCHOVER", "FluidEngine", "FluidResult"]

#: Hybrid dispatcher threshold: simulations with at least this many
#: streams (flows x parallel streams) take the fluid engine; smaller
#: populations stay on the bit-identical per-flow kernels.
DEFAULT_SWITCHOVER = 1024


@dataclass
class FluidResult:
    """Outcome of one :meth:`FluidEngine.run`, indexed by global flow id."""

    now_s: float
    ticks: int
    delivered_bits: np.ndarray
    finish_s: np.ndarray          # NaN while unfinished
    started: np.ndarray           # bool
    queues_bits: np.ndarray       # final per-link virtual queue state
    class_delivered_bits: np.ndarray
    class_population: np.ndarray
    classes_retired: int          # classes whose every member finished
    #: Aggregate throughput samples ``(time_s, total_rate_bps)`` at the
    #: caller's sample interval.  Per-flow series are deliberately not
    #: produced — materializing them is a per-flow cost.
    samples: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return int(self.class_population.size)


class FluidEngine:
    """Advance a set of :class:`FlowClass` populations over shared links.

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
        # kernels: one algorithm instance per group, one group id per
        # class.
        self._algorithms: List[CongestionControl] = []
        self._group_of = np.empty(n_cls, dtype=np.int64)
        seen = {}
        for c, cls in enumerate(self.classes):
            g = seen.setdefault(algorithm_key(cls.algorithm),
                                len(self._algorithms))
            if g == len(self._algorithms):
                self._algorithms.append(cls.algorithm)
            self._group_of[c] = g

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
        caps, buffers = self._caps, self._buffers
        usage_f = self._usage.astype(np.float64)
        flat_rows, flat_cols = self._filler.flat_rows, self._filler.flat_cols
        algorithms, group_of = self._algorithms, self._group_of
        # Congestion pressure per congested tick.  With an RNG the
        # per-flow model flags each stream Bernoulli(dt/rtt); without
        # one it flags *every* stream on the congested link, so the
        # deterministic mode saturates the pressure (the whole class
        # halves at its next window update, exactly like the exact
        # kernels' rng-less branch).
        cong_p = (np.ones(rtt.size) if self._deterministic
                  else np.minimum(1.0, dt / rtt))
        cong_keep = 1.0 - cong_p
        has_lossp = lossp > 0.0
        any_lossp = bool(has_lossp.any())
        # Per-flow demand cap lifted to the class: n_live * cap, only
        # evaluated for capped classes (0 * inf is NaN).
        capped = np.nonzero(np.isfinite(flow_cap))[0]

        # Global birth schedule: (start, flow) ascending across classes.
        # Births [bp, hi) of the schedule hold the sized births
        # [n_sized[bp], n_sized[hi]), the ones a death heap tracks.
        b_starts = np.concatenate([c.starts_s for c in classes])
        b_flows = np.concatenate([c.flow_ids for c in classes])
        b_class = np.concatenate([
            np.full(c.population, c.index, dtype=np.int64) for c in classes])
        b_size = np.concatenate([c.per_stream_bits for c in classes])
        order = np.lexsort((b_flows, b_starts))
        b_starts, b_flows = b_starts[order], b_flows[order]
        b_class, b_size = b_class[order], b_size[order]
        n_births = b_starts.size
        sized = np.isfinite(b_size)
        n_sized = np.concatenate(([0], np.cumsum(sized)))
        s_class, s_flow = b_class[sized], b_flows[sized]
        s_size = b_size[sized]
        d_birth = np.zeros(n_births)   # class D at each birth, in schedule order
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
        queues = np.zeros(caps.size)
        # Per-tick arrays, overwritten in place.
        live = np.zeros(n_cls, dtype=bool)
        congested = np.zeros(n_cls, dtype=bool)
        upd = np.zeros(n_cls, dtype=bool)
        dying_mask = np.zeros(n_cls, dtype=bool)
        overflowing = np.zeros(caps.size, dtype=bool)
        demands = np.zeros(n_cls)
        rate_ps = np.zeros(n_cls)
        inc = np.zeros(n_cls)
        scratch = np.zeros(n_cls)

        finish_s = np.full(n_flows, np.nan)
        # Death heaps: one per class, of each live sized member's
        # finish threshold in cumulative per-stream bits.  A key packs
        # (threshold, flow) into one int: a non-negative float's bits
        # order like its value, so keys pop in (threshold, flow) order.
        # One int per member, rather than a tuple of a float and an
        # int, leaves a heap's sift a third of the objects to touch.
        # ``thr_of`` holds each member's threshold by flow id, plus an
        # infinite one for the id ``n_flows`` that stands for an empty
        # heap; ``next_death`` is each class's least threshold.
        id_bits = max(1, (n_flows - 1).bit_length())
        id_mask = (1 << id_bits) - 1
        heaps: List[List[int]] = [[] for _ in range(n_cls)]
        thr_of = np.full(n_flows + 1, np.inf)
        next_death = np.full(n_cls, np.inf)
        heappush, heappop = heapq.heappush, heapq.heappop
        n_unfinished = n_flows
        # Live counts are small exact integers, so the stream count is
        # always exactly flows x streams per flow; it and what follows
        # from it are re-derived only on ticks that changed a count.
        counts_changed = True

        now = 0.0
        next_sample = 0.0
        samples: List[Tuple[float, float]] = []
        allocate = self._filler.allocate

        for tick in range(max_ticks):
            if now >= horizon_s:
                break
            # Births: the start-sorted schedule's next slice.  Adding
            # the slice's live counts in one bincount equals adding them
            # one birth at a time.  Per-flow birth state other than the
            # class's D at birth follows from the schedule and is filled
            # once after the loop.
            hi = (int(np.searchsorted(b_starts, now, side="right"))
                  if bp < n_births else bp)
            if hi > bp:
                c_new = b_class[bp:hi]
                d_birth[bp:hi] = D[c_new]
                n_flows_live += np.bincount(c_new, minlength=n_cls)
                s_lo, s_hi = int(n_sized[bp]), int(n_sized[hi])
                if s_hi > s_lo:
                    c_sized = s_class[s_lo:s_hi]
                    thresholds = D[c_sized] + s_size[s_lo:s_hi]
                    f_sized = s_flow[s_lo:s_hi]
                    thr_of[f_sized] = thresholds
                    for c, b, f in zip(c_sized.tolist(),
                                       thresholds.view(np.int64).tolist(),
                                       f_sized.tolist()):
                        heappush(heaps[c], (b << id_bits) | f)
                    # A heap's head is its least threshold.
                    np.minimum.at(next_death, c_sized, thresholds)
                bp = hi
                counts_changed = True

            if counts_changed:
                np.multiply(n_flows_live, streams_c, out=n_streams_live)
                np.greater(n_streams_live, 0.0, out=live)
                n_live = np.count_nonzero(live)
                idle = np.logical_not(live).nonzero()[0]
                live_dt = live * dt
                per_stream = np.maximum(n_streams_live, 1.0)
                counts_changed = False
            if not n_live:
                if bp < n_births:
                    now = min(float(b_starts[bp]), horizon_s)
                    continue
                if not until_given:
                    break
                now = horizon_s
                continue

            # Offered load: n_streams_live * min(W, rwnd) * mss / rtt,
            # 0.0 for idle classes.
            np.minimum(W, rwnd, out=demands)
            np.multiply(n_streams_live, demands, out=demands)
            demands *= mss
            demands /= rtt
            demands[idle] = 0.0
            if capped.size:
                demands[capped] = np.minimum(
                    demands[capped], n_flows_live[capped] * flow_cap[capped])

            alloc = allocate(demands)

            # Virtual queues: same advance rule as the per-flow model,
            # driven by class-aggregate offered load.
            offered = demands @ usage_f
            offered -= caps
            offered *= dt
            queues += offered
            np.maximum(0.0, queues, out=queues)
            np.greater(queues, buffers, out=overflowing)
            np.minimum(queues, buffers, out=queues)

            # Idle classes offer 0.0, so the allocator gives them 0.0,
            # and so is their per-stream rate.
            np.divide(alloc, per_stream, out=rate_ps)

            # Loss pressure: expected fraction of a class's streams that
            # flagged a loss since the last window update.  Congestion
            # contributes dt/rtt per congested tick (the per-flow model's
            # per-stream Bernoulli rate); random path loss contributes
            # its per-packet expectation over the bits moved this tick.
            # A live class is congested when it crosses an overflowing
            # link; the flat incidence names those classes directly.
            # P <- 1 - (1 - P) * (1 - e), where 1 - e is exactly 1.0 on
            # a class with neither kind of loss.
            any_congested = np.count_nonzero(overflowing) > 0
            if any_congested:
                congested.fill(False)
                congested[flat_rows[overflowing[flat_cols]]] = True
                congested &= live
            np.subtract(1.0, P, out=P)
            if any_lossp:
                e = (np.where(congested, cong_p, 0.0) if any_congested
                     else np.zeros(n_cls))
                pkts = rate_ps * dt / mss
                e_rand = np.where(has_lossp,
                                  1.0 - (1.0 - lossp) ** pkts, 0.0)
                e = 1.0 - (1.0 - e) * (1.0 - e_rand)
                P *= 1.0 - e
            elif any_congested:
                P *= np.where(congested, cong_keep, 1.0)
            np.subtract(1.0, P, out=P)

            # Deliver and harvest deaths (heap pops touch only classes
            # whose cumulative delivered crossed a member's threshold).
            np.multiply(rate_ps, dt, out=inc)
            D += inc
            np.multiply(inc, n_streams_live, out=scratch)
            agg += scratch
            np.greater_equal(D, next_death, out=dying_mask)
            dying = dying_mask.nonzero()[0]
            if dying.size:
                # Pop every due member.  Each dying class's head is due;
                # the pops after it ("later") are rare and keep their
                # class's pop order.  ``agg`` is reduced one finisher at
                # a time in that order: the heads in one array step,
                # then the later ones.
                first, later, head_of = [], [], []
                for c, b in zip(dying.tolist(),
                                D[dying].view(np.int64).tolist()):
                    heap = heaps[c]
                    first.append(heappop(heap) & id_mask)
                    due = (b << id_bits) | id_mask   # keys of thresholds <= D
                    while heap and heap[0] <= due:
                        later.append((c, heappop(heap) & id_mask))
                    head_of.append(heap[0] & id_mask if heap else n_flows)
                # A finisher crossed its threshold ``over`` bits into the
                # tick, at the class's per-stream rate; at no rate it
                # finishes at the tick's end.
                end = now + dt
                first = np.array(first)
                over = D[dying] - thr_of[first]
                rate = rate_ps[dying]
                if np.count_nonzero(rate) == rate.size:
                    finish_s[first] = end - over / rate
                else:
                    finish_s[first] = end - np.divide(
                        over, rate, out=np.zeros(rate.size), where=rate > 0.0)
                over *= streams_c[dying]
                agg[dying] -= over
                n_flows_live[dying] -= 1.0
                next_death[dying] = thr_of[head_of]
                for c, f in later:
                    rate_c = float(rate_ps[c])
                    over_c = float(D[c]) - float(thr_of[f])
                    finish_s[f] = (end - over_c / rate_c if rate_c > 0.0
                                   else end)
                    agg[c] = float(agg[c]) - over_c * float(streams_c[c])
                    n_flows_live[c] -= 1.0
                n_unfinished -= first.size + len(later)
                counts_changed = True

            # Per-RTT mean-field window update: the expectation of the
            # per-flow rule under loss fraction P.  One gather per array,
            # then each algorithm group reads its slice of the gathers.
            rtt_clock += live_dt
            tsl += live_dt
            np.greater_equal(rtt_clock, rtt, out=upd)
            upd &= live
            ui = upd.nonzero()[0]
            if ui.size:
                p, s, w_up = P[ui], ss_frac[ui], W[ui]
                t_up, r_up = tsl[ui], rtt[ui]
                rw_up, cap_up = rwnd[ui], rwnd_cap[ui]
                q = 1.0 - p
                if len(algorithms) == 1:
                    W[ui] = _mean_window(algorithms[0], p, q, s, w_up,
                                         t_up, r_up, rw_up, cap_up)
                else:
                    g_up = group_of[ui]
                    for g, algo in enumerate(algorithms):
                        sub = g_up == g
                        if np.count_nonzero(sub):
                            W[ui[sub]] = _mean_window(
                                algo, p[sub], q[sub], s[sub], w_up[sub],
                                t_up[sub], r_up[sub], rw_up[sub], cap_up[sub])
                ss_frac[ui] = s * q
                tsl[ui] = t_up * q
                rtt_clock[ui] = 0.0
                P[ui] = 0.0

            now += dt
            if now >= next_sample:
                next_sample = now + sample_interval_s
                samples.append((now, float(alloc.sum())))
            if n_unfinished == 0 and bp >= n_births and not until_given:
                break
        else:
            raise SimulationError(
                f"multi-flow simulation did not settle within {max_ticks} ticks"
            )

        # Per-flow outcome of the births the loop reached: delivered is
        # streams * (D_at_finish - D_at_birth), clipped to the transfer
        # size.  Sums match `agg` to float roundoff by construction (the
        # death loop subtracts each finisher's overshoot).
        born, c_born = b_flows[:bp], b_class[:bp]
        started = np.zeros(n_flows, dtype=bool)
        started[born] = True
        delivered = np.zeros(n_flows)
        delivered[born] = streams_c[c_born] * np.minimum(
            D[c_born] - d_birth[:bp], b_size[:bp])

        unfinished_in = np.bincount(b_class[np.isnan(finish_s[b_flows])],
                                    minlength=n_cls)
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
            classes_retired=int(np.count_nonzero(unfinished_in == 0)),
            samples=samples,
        )


def _mean_window(algo: CongestionControl, p: np.ndarray, q: np.ndarray,
                 s: np.ndarray, w: np.ndarray, tsl: np.ndarray,
                 rtt: np.ndarray, rwnd: np.ndarray,
                 rwnd_cap: np.ndarray) -> np.ndarray:
    """One algorithm group's updated mean window: ``p * on_loss(w) +
    q * grow(w)``, for loss fraction ``p``, ``q = 1 - p`` and slow-start
    fraction ``s``."""
    # Loss-free growth is the population mix of the two regimes: the
    # slow-start fraction doubles, the rest takes the congestion-
    # avoidance increase (windows already past rwnd hold, like the
    # per-flow rule).
    grow_ss = np.minimum(w * algo.slow_start_factor, rwnd_cap)
    grow_ca = np.where(
        w <= rwnd,
        np.minimum(w + algo.increase_batch(w, tsl, rtt), rwnd_cap),
        w)
    grow = s * grow_ss + (1.0 - s) * grow_ca
    w_loss = algo.on_loss_batch(np.minimum(w, rwnd), rtt, rtt)
    return p * w_loss + q * grow
