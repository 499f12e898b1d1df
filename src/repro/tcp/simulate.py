"""Synchronized multi-flow TCP simulation over a shared topology.

Single connections are handled by :class:`repro.tcp.connection.TcpConnection`;
this module simulates *competing* flows — the supercomputer-center and
big-data-site experiments need many DTN streams sharing links, and the
fan-out/fan-in campus stories need science flows competing with enterprise
background traffic.

Model: a fluid tick loop.  Each tick

1. every active flow offers ``window/RTT``;
2. link bandwidth is divided max-min fairly among the flows crossing it;
3. links whose offered load exceeds capacity grow a virtual queue; when a
   queue overflows its buffer, flows crossing that link suffer a loss event
   with probability proportional to their share of the overload;
4. per-packet random loss on each flow's path contributes stochastic loss
   events;
5. each flow advances its own RTT clock and applies congestion control once
   per RTT.

The approximation is standard fluid-model fare: it will not reproduce
packet-level synchronization artifacts, but it preserves the relationships
the paper's experiments rely on (who wins, how throughput scales with flow
count and buffering, how badly loss hurts at high RTT).

Engines
-------
``backend="numpy"`` (default) is the exact tick loop.  It keeps all
stream state as flat struct-of-arrays (cwnd/ssthresh/rtt-clock/
remaining-bits indexed by a flow map) and advances every stream per
tick with array ops.  It is **bit-identical** to the scalar per-stream
loop it replaced, which lives on as the test oracle in
``tests/reference/kernels.py`` together with the rules that keep the
two equal; ``tests/test_vectorized_equivalence`` asserts the property
over random topologies, seeds and stream counts.  ``"fluid"`` and
``"hybrid"`` select the approximate :mod:`repro.fluid` engine (see
:class:`MultiFlowSimulation`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..netsim.flow import FlowSpec
from ..netsim.link import Link
from ..netsim.topology import PathProfile, Topology
from ..units import (DataRate, DataSize, TimeDelta, _new, _put_bits, _put_s,
                     bits, seconds)
from ..vectorize import resolve_engine
from .congestion import (CongestionControl, Reno, algorithm_by_name,
                         algorithm_key)

__all__ = ["FlowProgress", "MultiFlowSimulation", "max_min_fair_allocation"]


class _ProgressiveFiller:
    """Progressive-filling max-min allocator for a fixed (usage, capacities).

    The flow/link incidence never changes across a simulation, so
    ``np.nonzero`` of the usage matrix is taken once here.  A flow with
    no positive demand is frozen at zero before the first round and
    only ever adds zeros to the per-link sums, so :meth:`allocate`
    fills the *live* flows alone: their flat incidence, the segment
    boundaries for ``np.minimum.reduceat`` and their initial per-link
    counts are cut from the full incidence when the live set changes
    and memoized under it.  Live sets change at flow arrivals and
    finishes, not every tick: the exact kernel on a 255-flow matrix
    rebuilds the memo on one call in 14 to 20 (about 38 flows are
    live per call), the fluid engine on a 100k-flow matrix on about
    every other call.  Each round then touches O(live + L + live nnz)
    arrays.

    The scalar reference in ``tests/reference/kernels.py`` walks the
    same round structure over every flow, with per-flow loops for each
    round's limits and capacity deltas.  Bit-identity notes: per-flow
    limits are plain minima (order-independent and exact), so this
    kernel evaluates them once per live incidence row and gathers them
    by row; per-link deltas are accumulated in flow order via
    ``np.bincount`` over the entries of the flows being frozen, taken
    from the row-major flat incidence, which matches the scalar loop's
    association.  The zero terms the reference adds for every other
    flow are exact no-ops, because no partial sum is ever ``-0.0``.

    ``row_of`` marks flows whose incidence rows are identical: flows
    with equal ``row_of`` must cross the same links.  Simulations know
    this from their paths — on a 12-site backbone, a traffic matrix's
    thousand-odd fluid classes share about 130 link sets — while a
    one-shot allocation leaves it out and every flow is its own row.
    """

    def __init__(self, usage: np.ndarray, capacities: np.ndarray,
                 row_of: Optional[np.ndarray] = None) -> None:
        usage = np.asarray(usage, dtype=bool)
        capacities = np.asarray(capacities, dtype=np.float64)
        self.n_flows, self.n_links = usage.shape
        if capacities.shape != (self.n_links,):
            raise ConfigurationError("max_min_fair_allocation: shape mismatch")
        if not (capacities >= 0.0).all():
            raise ConfigurationError(
                "max_min_fair_allocation: capacities must be non-negative "
                "numbers")
        self.usage = usage
        self.capacities = capacities
        #: Row-major flat incidence: ``(flow, link)`` pairs in flow order.
        self.flat_rows, self.flat_cols = np.nonzero(usage)
        # Shared incidence rows: each flow's row id, and the flat
        # incidence of every distinct row in row order.
        if row_of is None:
            self._row_of = None
        else:
            _, first, inverse = np.unique(row_of, return_index=True,
                                          return_inverse=True)
            self._row_of = inverse.reshape(-1)
            self._row_rows, self._row_cols = np.nonzero(usage[first])
            self._n_row_ids = first.size
        self._finite_caps = bool(np.isfinite(capacities).all())
        self._memo_key: Optional[bytes] = None
        self._memo: tuple = ()

    def _restrict(self, live: np.ndarray) -> tuple:
        """The incidence structure of the flows in ``live`` alone."""
        live_idx = np.flatnonzero(live)
        keep = live[self.flat_rows]
        pos = np.cumsum(live) - 1
        rows = pos[self.flat_rows[keep]]
        cols = self.flat_cols[keep]
        apl0 = np.bincount(cols, minlength=self.n_links).astype(np.float64)
        if self._row_of is None:
            row_map = None
            n_rows, row_rows, row_cols = live_idx.size, rows, cols
        else:
            # Limits are evaluated once per distinct live row and
            # gathered per flow; compacting the row ids keeps the
            # rows' incidence in row order.
            used = np.zeros(self._n_row_ids, dtype=bool)
            used[self._row_of[live_idx]] = True
            compact = np.cumsum(used) - 1
            n_rows = int(compact[-1]) + 1
            row_map = compact[self._row_of[live_idx]]
            keep_row = used[self._row_rows]
            row_rows = compact[self._row_rows[keep_row]]
            row_cols = self._row_cols[keep_row]
        counts = np.bincount(row_rows, minlength=n_rows)
        has_links = counts > 0
        seg_starts = (np.cumsum(counts) - counts)[has_links]
        rows_with_links = (None if has_links.all()
                           else np.flatnonzero(has_links))
        return (live_idx, rows, cols, apl0, np.ones(live_idx.size, dtype=bool),
                row_map, n_rows, row_cols, seg_starts, rows_with_links)

    def allocate(self, demands: np.ndarray) -> np.ndarray:
        """Max-min fair rates for a float64 ``demands`` of shape (F,)."""
        n_links = self.n_links
        frozen = demands <= 0.0
        key = frozen.tobytes()
        if key != self._memo_key:
            self._memo = self._restrict(~frozen)
            self._memo_key = key
        (live_idx, flat_rows, flat_cols, apl0, all_live, row_map, n_rows,
         row_cols, seg_starts, rows_with_links) = self._memo
        alloc = np.zeros(self.n_flows)
        n_live = live_idx.size
        if not n_live:
            return np.minimum(alloc, demands)
        # Live-flow arrays from here on.  An active flow holds no
        # allocation yet, so its headroom is its whole demand.
        dem = demands[live_idx]
        got = np.zeros(n_live)
        active = all_live.copy()
        n_frozen = 0
        remaining_cap = self.capacities.copy()
        # Active-flow count per link, maintained incrementally (the counts
        # are small exact integers, so float bookkeeping is lossless).
        apl = apl0.copy()
        row_limit = np.empty(n_rows)
        for _ in range(self.n_flows + n_links + 1):
            # Fair share on each link among its active flows.  Links no
            # active flow crosses get a meaningless share: only active
            # flows' limits and busy links' shares are read below.
            share = remaining_cap / np.maximum(apl, 1.0)
            # Each flow is limited by the tightest link it crosses:
            # a segmented min over each distinct row's incidence.
            if rows_with_links is None:
                np.minimum.reduceat(share[row_cols], seg_starts,
                                    out=row_limit)
            else:
                row_limit.fill(np.inf)
                if seg_starts.size:
                    row_limit[rows_with_links] = np.minimum.reduceat(
                        share[row_cols], seg_starts)
            limit = row_limit if row_map is None else row_limit[row_map]
            # Flows whose demand is below their limit are satisfied; freeze
            # them and recompute shares with the released capacity.
            satisfied = active & (dem <= limit + 1e-9)
            n_sat = int(np.count_nonzero(satisfied))
            if n_sat:
                np.copyto(got, dem, where=satisfied)
                n_frozen += n_sat
                if n_frozen == n_live:
                    break
                sel = satisfied[flat_rows]
                sel_cols = flat_cols[sel]
                remaining_cap = remaining_cap - np.bincount(
                    sel_cols, weights=dem[flat_rows[sel]], minlength=n_links)
                apl -= np.bincount(sel_cols, minlength=n_links)
                active &= ~satisfied
                continue
            # No flow is demand-satisfied: saturate the tightest link only.
            apl_pos = apl > 0.0
            finite_links = share[apl_pos]
            if self._finite_caps:
                # remaining_cap stays finite, so every busy link's share
                # is finite — the defensive isfinite scans are no-ops.
                if finite_links.size == 0:
                    np.copyto(got, dem, where=active)
                    break
                min_share = finite_links.min()
            elif (finite_links.size == 0
                    or not np.isfinite(finite_links).any()):
                np.copyto(got, dem, where=active)
                break
            else:
                min_share = finite_links[np.isfinite(finite_links)].min()
            bottleneck = apl_pos & (share <= min_share + 1e-9)
            to_freeze = np.zeros(n_live, dtype=bool)
            to_freeze[flat_rows[bottleneck[flat_cols]]] = True
            to_freeze &= active
            # ``0.0 + limit``, as the reference adds it (-0.0 becomes 0.0).
            np.add(got, limit, out=got, where=to_freeze)
            n_frozen += int(np.count_nonzero(to_freeze))
            if n_frozen == n_live:
                break
            sel = to_freeze[flat_rows]
            sel_cols = flat_cols[sel]
            remaining_cap = np.maximum(
                remaining_cap - np.bincount(
                    sel_cols, weights=limit[flat_rows[sel]],
                    minlength=n_links),
                0.0)
            apl -= np.bincount(sel_cols, minlength=n_links)
            active &= ~to_freeze
        alloc[live_idx] = got
        return np.minimum(alloc, demands)


def max_min_fair_allocation(
    demands: np.ndarray,
    usage: np.ndarray,
    capacities: np.ndarray,
) -> np.ndarray:
    """Max-min fair rates for flows over shared links.

    Parameters
    ----------
    demands:
        Shape (F,) — each flow's offered rate (bps), non-negative and
        possibly infinite.
    usage:
        Shape (F, L) boolean — flow f crosses link l.
    capacities:
        Shape (L,) — link capacities (bps), non-negative and possibly
        infinite.

    Returns
    -------
    Shape (F,) allocated rates; each flow gets at most its demand and links
    are never oversubscribed.  Classic progressive-filling algorithm.

    Raises
    ------
    ConfigurationError
        On mismatched shapes, or a NaN or negative demand or capacity.

    Callers allocating repeatedly over a fixed topology (the multi-flow
    tick loop) hold a :class:`_ProgressiveFiller` instead, which hoists
    the structural precomputation out of the per-tick call.
    """
    filler = _ProgressiveFiller(usage, capacities)
    demands = np.asarray(demands, dtype=np.float64)
    if demands.shape != (filler.n_flows,):
        raise ConfigurationError("max_min_fair_allocation: shape mismatch")
    if not (demands >= 0.0).all():
        raise ConfigurationError(
            "max_min_fair_allocation: demands must be non-negative numbers")
    return filler.allocate(demands)


class FlowProgress:
    """Per-flow outcome of a multi-flow simulation.

    The record stores plain floats, ``delivered_bits`` and ``finish_s``
    (``None`` until the flow finishes), so it is the one GC-tracked
    object a flow adds to a run.  :attr:`delivered` and
    :attr:`finish_time` read and assign them as unit types, building
    the wrapper on each read.  :attr:`time_series` holds ``(time_s,
    rate_bps)`` decimated samples; its list is created on first read,
    so a fluid-engine flow, which records none, never allocates one.
    A flow that finishes mid-interval appends one final sample at its
    finish time carrying the final tick's allocation, so consumers
    integrating the series never extrapolate a stale boundary rate
    over the last partial interval.
    """

    __slots__ = ("spec", "delivered_bits", "finish_s", "loss_events",
                 "started", "_series")

    def __init__(self, spec: FlowSpec, delivered: DataSize = bits(0),
                 finish_time: Optional[TimeDelta] = None,
                 loss_events: int = 0, started: bool = False,
                 time_series: Optional[List[Tuple[float, float]]] = None
                 ) -> None:
        self.spec = spec
        self.delivered_bits = delivered.bits
        self.finish_s = None if finish_time is None else finish_time.s
        self.loss_events = loss_events
        self.started = started
        self._series = time_series

    @property
    def delivered(self) -> DataSize:
        """Data delivered so far."""
        delivered = _new(DataSize)
        _put_bits(delivered, self.delivered_bits)
        return delivered

    @delivered.setter
    def delivered(self, value: DataSize) -> None:
        self.delivered_bits = value.bits

    @property
    def finish_time(self) -> Optional[TimeDelta]:
        """When the flow finished, or ``None`` while it runs."""
        s = self.finish_s
        if s is None:
            return None
        finish = _new(TimeDelta)
        _put_s(finish, s)
        return finish

    @finish_time.setter
    def finish_time(self, value: Optional[TimeDelta]) -> None:
        self.finish_s = None if value is None else value.s

    @property
    def time_series(self) -> List[Tuple[float, float]]:
        """``(time_s, rate_bps)`` samples, created on first read."""
        if self._series is None:
            self._series = []
        return self._series

    @time_series.setter
    def time_series(self, value: List[Tuple[float, float]]) -> None:
        self._series = value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # a mutable record

    def _fields(self) -> tuple:
        return (self.spec, self.delivered_bits, self.finish_s,
                self.loss_events, self.started, self._series or [])

    def __repr__(self) -> str:
        return (f"FlowProgress(spec={self.spec!r}, "
                f"delivered={self.delivered!r}, "
                f"finish_time={self.finish_time!r}, "
                f"loss_events={self.loss_events!r}, "
                f"started={self.started!r}, "
                f"time_series={self._series or []!r})")

    @property
    def done(self) -> bool:
        return self.finish_s is not None

    def mean_throughput(self, now: TimeDelta) -> DataRate:
        end = self.finish_s if self.finish_s else now.s
        dur = max(end - self.spec.start_s, 1e-12)
        return DataRate(self.delivered_bits / dur)


class _StreamState:
    """Congestion state of one TCP stream inside a flow."""

    __slots__ = ("cwnd", "ssthresh", "time_since_loss", "rtt_clock",
                 "loss_flag", "delivered_bits", "remaining_bits")

    def __init__(self, initial_cwnd: float, remaining_bits: Optional[float]):
        self.cwnd = initial_cwnd
        self.ssthresh = float("inf")
        self.time_since_loss = 0.0
        self.rtt_clock = 0.0
        self.loss_flag = False
        self.delivered_bits = 0.0
        self.remaining_bits = remaining_bits


class MultiFlowSimulation:
    """Run a set of :class:`FlowSpec` demands over a topology.

    Parameters
    ----------
    topology:
        The network.
    specs:
        Flow demands.  Labels must be unique and non-empty.
    rng:
        Required for stochastic loss; deterministic paths may omit it.
    algorithm:
        Congestion control shared by all flows, or a dict
        ``{label: algorithm}`` for per-flow choices.
    buffer_rtt_fraction:
        Virtual-queue depth per link, in units of that link's
        capacity x 100 ms (approximating "one WAN RTT of buffer").
    backend:
        ``"numpy"`` — the exact struct-of-arrays tick loop (see the
        module docstring).
        ``"fluid"`` — the approximate :mod:`repro.fluid` mean-field
        engine (flow-class population dynamics; scales to 100k+ flows).
        ``"hybrid"`` — dispatch on population: below ``switchover``
        total streams the numpy kernel runs (byte-for-byte identical to
        selecting it directly), at or above it the fluid engine does.
        None (default) resolves through
        :func:`repro.vectorize.resolve_engine`.
    switchover:
        Stream-population threshold for ``backend="hybrid"``; defaults
        to :data:`repro.fluid.DEFAULT_SWITCHOVER`.  Ignored by the
        other engines.
    """

    def __init__(
        self,
        topology: Topology,
        specs: Sequence[FlowSpec],
        *,
        rng: Optional[np.random.Generator] = None,
        algorithm=None,
        buffer_rtt_fraction: float = 1.0,
        initial_cwnd: float = 10.0,
        backend: Optional[str] = None,
        switchover: Optional[int] = None,
    ) -> None:
        if not specs:
            raise ConfigurationError("MultiFlowSimulation needs at least one flow")
        labels = [s.label or f"flow{i}" for i, s in enumerate(specs)]
        if len(set(labels)) != len(labels):
            raise ConfigurationError("flow labels must be unique")
        engine = resolve_engine(backend)
        if engine == "hybrid":
            from ..fluid.engine import DEFAULT_SWITCHOVER
            threshold = (DEFAULT_SWITCHOVER if switchover is None
                         else int(switchover))
            population = sum(s.parallel_streams for s in specs)
            # Below the threshold, fall to the exact kernel, so hybrid
            # stays bit-identical to selecting "numpy" directly.
            engine = "fluid" if population >= threshold else "numpy"
        self.backend = engine
        self.topology = topology
        self._rng = rng
        self._buffer_frac = buffer_rtt_fraction
        self._initial_cwnd = initial_cwnd

        self._labels = labels
        self._specs = list(specs)
        # Paths are resolved once per (src, dst, policy): a traffic
        # matrix carries O(sites^2) distinct pairs but may name 100k+
        # flows, and per-flow shortest-path work would dominate setup.
        # Each flow keeps only its index into the distinct paths; the
        # link inventory is registered in first-encounter order, the
        # order a per-flow walk would produce.
        path_index: Dict[object, int] = {}
        link_ids: Dict[int, int] = {}
        self._links: List[Link] = []
        self._path_profiles: List[PathProfile] = []
        self._path_links: List[Tuple[int, ...]] = []
        path_of: List[int] = []
        # Congestion controls are stateless by contract, so flows that
        # name no algorithm share one default instance and a name
        # resolves to one instance; flows keep an index into the
        # distinct instances.
        default_algo = Reno()
        by_name: Dict[str, CongestionControl] = {}
        algo_index: Dict[int, int] = {}
        self._algorithms: List[CongestionControl] = []

        def algorithm_index(algo) -> int:
            if isinstance(algo, str):
                if algo not in by_name:
                    by_name[algo] = algorithm_by_name(algo)
                algo = by_name[algo]
            a = algo_index.get(id(algo))
            if a is None:
                a = algo_index[id(algo)] = len(self._algorithms)
                self._algorithms.append(algo)
            return a

        if isinstance(algorithm, dict):
            self._algorithm_of = np.array(
                [algorithm_index(algorithm.get(label, default_algo))
                 for label in labels], dtype=np.int64)
        else:
            algorithm_index(default_algo if algorithm is None else algorithm)
            self._algorithm_of = np.zeros(len(labels), dtype=np.int64)
        need_rng = rng is None and self.backend != "fluid"
        for label, spec in zip(labels, self._specs):
            policy = ()
            if spec.policy:
                try:
                    policy = tuple(sorted(spec.policy.items()))
                    hash(policy)
                except TypeError:
                    policy = repr(sorted(spec.policy.items()))
            key = (spec.src, spec.dst, policy)
            p = path_index.get(key)
            if p is None:
                path = topology.path(spec.src, spec.dst, **spec.policy)
                profile = topology.profile(path)
                for link in path.links:
                    if id(link) not in link_ids:
                        link_ids[id(link)] = len(self._links)
                        self._links.append(link)
                p = path_index[key] = len(self._path_profiles)
                self._path_profiles.append(profile)
                self._path_links.append(
                    tuple(link_ids[id(link)] for link in path.links))
            path_of.append(p)
            if need_rng and self._path_profiles[p].random_loss > 0:
                raise ConfigurationError(
                    f"flow {label!r} crosses a lossy path; rng is required"
                )
        self._path_of = np.array(path_of, dtype=np.int64)

        n_flows, n_links = len(specs), len(self._links)
        self._capacities = np.array([l.rate.bps for l in self._links])
        self._queues = np.zeros(n_links)
        self._buffers = self._capacities * 0.1 * buffer_rtt_fraction  # bits

        self.progress: Dict[str, FlowProgress] = {
            label: FlowProgress(spec=spec)
            for label, spec in zip(labels, self._specs)
        }
        if self.backend == "fluid":
            # The fluid engine keeps incidence and congestion state at
            # class granularity; the per-flow usage matrix, allocator and
            # stream objects would cost O(flows) for nothing.
            self._usage = None
            self._filler = None
            self._streams = []
            return
        path_usage = np.zeros((len(self._path_links), n_links), dtype=bool)
        for p, links in enumerate(self._path_links):
            path_usage[p, list(links)] = True
        self._usage = path_usage[self._path_of]
        self._filler = _ProgressiveFiller(self._usage, self._capacities,
                                          row_of=self._path_of)

        # One stream state per parallel stream of each flow.
        self._streams = []
        for spec in self._specs:
            per = spec.per_stream_size()
            self._streams.append([
                _StreamState(initial_cwnd, per.bits if per else None)
                for _ in range(spec.parallel_streams)
            ])

    # ---------------------------------------------------------------------------
    def run(
        self,
        *,
        until: Optional[TimeDelta] = None,
        max_ticks: int = 2_000_000,
        sample_interval: TimeDelta = seconds(1.0),
    ) -> Dict[str, FlowProgress]:
        """Advance until all sized flows finish (or ``until`` elapses)."""
        if until is None and all(s.size_bits is None for s in self._specs):
            raise ConfigurationError(
                "all flows are unbounded; an explicit until= horizon is required"
            )
        # Transport parameters are properties of the path: evaluate them
        # once per distinct profile, then gather per flow.
        profiles = self._path_profiles
        path_rtts = np.array([max(p.base_rtt.s, 1e-6) for p in profiles])
        path_mss = np.array([p.flow.mss.bits for p in profiles])
        path_rwnd = np.array([
            max(1.0, p.flow.effective_receive_window().bits / m)
            for p, m in zip(profiles, path_mss)
        ])
        path_loss = np.array([p.random_loss for p in profiles])
        dt = float(min(path_rtts.min() / 2.0, 0.05))
        horizon = until.s if until is not None else float("inf")
        rate_caps = np.array([
            (np.inf if s.rate_limit is None else s.rate_limit.bps)
            for s in self._specs
        ])
        if self.backend == "fluid":
            now = self._run_fluid(
                until, max_ticks, sample_interval, rtts=path_rtts, dt=dt,
                horizon=horizon, mss_bits=path_mss, rwnd_pkts=path_rwnd,
                loss_p=path_loss, rate_caps=rate_caps)
            self.finished_at = seconds(now)
            return self.progress
        path_of = self._path_of
        rtts, mss_bits = path_rtts[path_of], path_mss[path_of]
        rwnd_pkts, loss_p = path_rwnd[path_of], path_loss[path_of]
        now = self._run_numpy(
            until, max_ticks, sample_interval, rtts=rtts, dt=dt,
            horizon=horizon, mss_bits=mss_bits, rwnd_pkts=rwnd_pkts,
            loss_p=loss_p, rate_caps=rate_caps)

        # A flow's delivered total is the sum of its streams' counters,
        # accumulated in stream order (the scalar reference shares this
        # association; `np.bincount` in the kernel accumulates
        # sequentially exactly like this loop).
        for label, streams in zip(self._labels, self._streams):
            self.progress[label].delivered_bits = float(
                sum(st.delivered_bits for st in streams))
        self.finished_at = seconds(now)
        return self.progress

    # -- mean-field loop --------------------------------------------------------
    def _run_fluid(
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
        """Delegate to the :mod:`repro.fluid` mean-field engine.

        One-shot (each call re-simulates from t=0) and approximate:
        delivered totals and finish times land in ``progress`` like the
        exact kernel's, but per-flow loss counts and time series are
        not produced — class-level aggregates live on ``fluid_result``.
        ``rtts``, ``mss_bits``, ``rwnd_pkts`` and ``loss_p`` are per
        distinct path; ``rate_caps`` is per flow.
        """
        from ..fluid import (DEFAULT_PHASE_SHARDS, FluidEngine,
                             build_flow_classes)
        classes = build_flow_classes(
            self._specs, self._path_of, self._path_links, self._algorithms,
            self._algorithm_of, rtts=rtts, mss_bits=mss_bits,
            rwnd_pkts=rwnd_pkts, loss_p=loss_p, rate_caps=rate_caps,
            n_shards=DEFAULT_PHASE_SHARDS)
        engine = FluidEngine(classes, self._capacities, self._buffers,
                             initial_cwnd=self._initial_cwnd, dt_s=dt,
                             deterministic_loss=self._rng is None)
        result = engine.run(horizon_s=horizon,
                            until_given=until is not None,
                            max_ticks=max_ticks,
                            sample_interval_s=sample_interval.s)
        self.fluid_result = result
        self._queues = result.queues_bits
        # Written back from Python lists a chunk at a time: reading numpy
        # scalars per flow costs more than the write itself, and whole
        # 100k-element lists would raise peak memory for nothing.
        progresses = list(self.progress.values())
        chunk = 8192
        for lo in range(0, len(progresses), chunk):
            hi = lo + chunk
            for prog, started, delivered, finish in zip(
                    progresses[lo:hi], result.started[lo:hi].tolist(),
                    result.delivered_bits[lo:hi].tolist(),
                    result.finish_s[lo:hi].tolist()):
                if started:
                    prog.started = True
                prog.delivered_bits = delivered
                if math.isfinite(finish):
                    prog.finish_s = finish
        return result.now_s

    # -- vectorized loop -------------------------------------------------------
    def _run_numpy(
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
        rng = self._rng
        has_rng = rng is not None
        n_flows = len(self._specs)
        flat_rows, flat_cols = self._filler.flat_rows, self._filler.flat_cols

        # Struct-of-arrays stream state, flow-major like self._streams.
        k = np.array([s.parallel_streams for s in self._specs], dtype=np.int64)
        flow_of = np.repeat(np.arange(n_flows, dtype=np.int64), k)
        flat = [st for streams in self._streams for st in streams]
        cwnd = np.array([st.cwnd for st in flat], dtype=np.float64)
        ssthresh = np.array([st.ssthresh for st in flat], dtype=np.float64)
        tsl = np.array([st.time_since_loss for st in flat], dtype=np.float64)
        rtt_clock = np.array([st.rtt_clock for st in flat], dtype=np.float64)
        loss_flag = np.array([st.loss_flag for st in flat], dtype=bool)
        delivered = np.array([st.delivered_bits for st in flat],
                             dtype=np.float64)
        bounded = np.array([st.remaining_bits is not None for st in flat],
                           dtype=bool)
        remaining = np.array([
            st.remaining_bits if st.remaining_bits is not None else np.inf
            for st in flat], dtype=np.float64)

        # Per-stream constants gathered once.
        mss_s = mss_bits[flow_of]
        rtt_s = rtts[flow_of]
        rwnd_s = rwnd_pkts[flow_of]
        rwnd_cap_s = rwnd_s * 1.25
        lossp_s = loss_p[flow_of]
        has_loss_s = lossp_s > 0.0
        cong_thresh_s = np.minimum(1.0, dt / rtt_s)

        # Per-flow bookkeeping mirrored from/into FlowProgress so repeated
        # run() calls resume exactly like the scalar reference.
        progresses = [self.progress[label] for label in self._labels]
        start_f = np.array([s.start_s for s in self._specs])
        done_f = np.array([p.done for p in progresses], dtype=bool)
        started_f = np.array([p.started for p in progresses], dtype=bool)
        loss_events_f = np.zeros(n_flows, dtype=np.int64)

        # Streams grouped by congestion-control *behaviour* for batch
        # updates: instances with equal :func:`algorithm_key` share a
        # group.  Instances are numbered by first use, so each group's
        # first instance is the one its first flow carries.
        leaders: List[CongestionControl] = []
        seen: Dict[object, int] = {}
        group_of = np.empty(len(self._algorithms), dtype=np.int64)
        for a, algo in enumerate(self._algorithms):
            group_of[a] = seen.setdefault(algorithm_key(algo), len(leaders))
            if group_of[a] == len(leaders):
                leaders.append(algo)
        stream_group = group_of[self._algorithm_of][flow_of]
        groups: List[Tuple[CongestionControl, np.ndarray]] = [
            (algo, stream_group == g) for g, algo in enumerate(leaders)]

        now = 0.0
        next_sample = 0.0
        sample_s = sample_interval.s
        allocate = self._filler.allocate
        any_loss = bool(has_loss_s.any())
        single_algo = groups[0][0] if len(groups) == 1 else None
        n_finished_prev = int(np.count_nonzero(remaining <= 0.0))

        # Per-tick numpy traffic is kept to full-array elementwise ops:
        # masked streams ride along with zero weights/deltas, which is
        # exact because every partial sum and running counter here is
        # non-negative, so `x + 0.0 == x` and `x - 0.0 == x` bitwise.
        for tick in range(max_ticks):
            if now >= horizon:
                break
            active_f = ~done_f & (start_f <= now)
            if not active_f.any():
                pending = ~done_f & (start_f > now)
                if pending.any():
                    now = min(float(start_f[pending].min()), horizon)
                    continue
                if until is None:
                    break
                now = min(horizon, now + dt)
                continue
            started_f |= active_f

            live = remaining > 0.0
            ps = live & active_f[flow_of]
            dem_w = np.where(ps, np.minimum(cwnd, rwnd_s) * mss_s / rtt_s, 0.0)
            raw = np.bincount(flow_of, weights=dem_w, minlength=n_flows)
            demands = np.where(active_f, np.minimum(raw, rate_caps), 0.0)

            alloc = allocate(demands)
            overflowing = self._advance_queues(demands, dt)

            # n_live is a small exact integer per flow; float bookkeeping
            # is lossless and the scalar loop's ``alloc / len(live)``
            # divides by the same value bit-for-bit.
            n_live = np.bincount(flow_of, weights=live, minlength=n_flows)
            proc_f = active_f & (demands > 0.0) & (n_live > 0.0)
            if proc_f.any():
                rate_ps = np.where(proc_f, alloc / np.maximum(n_live, 1.0),
                                   0.0)
                ps &= proc_f[flow_of]
                got = np.where(ps, rate_ps[flow_of] * dt, 0.0)
                np.minimum(got, remaining, out=got)
                remaining -= got
                delivered += got

                # Random draws, consumed in the scalar loop's order: flows
                # ascending, streams in flow order, the congestion draw
                # before the path-loss draw within a stream.  A single
                # Generator.random(n) call consumes the PCG64 stream
                # identically to n scalar calls.
                cong_draw = None
                if overflowing.any():
                    congested_f = np.zeros(n_flows, dtype=bool)
                    congested_f[flat_rows[overflowing[flat_cols]]] = True
                    cong_s = ps & congested_f[flow_of]
                    if has_rng:
                        cong_draw = cong_s
                    else:
                        loss_flag |= cong_s
                n_cong = (int(np.count_nonzero(cong_draw))
                          if cong_draw is not None else 0)
                loss_draw = (ps & has_loss_s) if any_loss else None
                n_loss = (int(np.count_nonzero(loss_draw))
                          if loss_draw is not None else 0)
                if n_cong and n_loss:
                    counts = cong_draw.astype(np.int64) + loss_draw
                    offsets = np.cumsum(counts) - counts
                    u = rng.random(n_cong + n_loss)
                    hit = u[offsets[cong_draw]] < cong_thresh_s[cong_draw]
                    loss_flag[np.nonzero(cong_draw)[0][hit]] = True
                    u_loss = u[offsets[loss_draw] + cong_draw[loss_draw]]
                    pkts = got[loss_draw] / mss_s[loss_draw]
                    p_evt = 1.0 - (1.0 - lossp_s[loss_draw]) ** pkts
                    hit = u_loss < p_evt
                    loss_flag[np.nonzero(loss_draw)[0][hit]] = True
                elif n_cong:
                    # Compressed draw order == stream order == scalar order.
                    hit = rng.random(n_cong) < cong_thresh_s[cong_draw]
                    loss_flag[np.nonzero(cong_draw)[0][hit]] = True
                elif n_loss:
                    pkts = got[loss_draw] / mss_s[loss_draw]
                    p_evt = 1.0 - (1.0 - lossp_s[loss_draw]) ** pkts
                    hit = rng.random(n_loss) < p_evt
                    loss_flag[np.nonzero(loss_draw)[0][hit]] = True

                # Per-RTT congestion-control updates, batched per algorithm.
                rtt_clock += ps * dt
                tsl += ps * dt
                upd = ps & (rtt_clock >= rtt_s)
                if upd.any():
                    rtt_clock[upd] = 0.0
                    lossy = upd & loss_flag
                    n_lossy = int(np.count_nonzero(lossy))
                    below = cwnd < ssthresh
                    if n_lossy:
                        grow = upd & ~lossy
                        ss = grow & below
                        ca = grow & ~below & (cwnd <= rwnd_s)
                        loss_flag[lossy] = False
                        loss_events_f += np.bincount(flow_of[lossy],
                                                     minlength=n_flows)
                        for algo, smask in groups:
                            sel = lossy & smask if len(groups) > 1 else lossy
                            if sel.any():
                                inflight = np.minimum(cwnd[sel], rwnd_s[sel])
                                new_cwnd = algo.on_loss_batch(
                                    inflight, rtt_s[sel], rtt_s[sel])
                                cwnd[sel] = new_cwnd
                                ssthresh[sel] = new_cwnd
                        tsl[lossy] = 0.0
                    else:
                        ss = upd & below
                        ca = upd & ~below & (cwnd <= rwnd_s)
                    if single_algo is not None:
                        # Full-array update: batch arithmetic is
                        # elementwise-consistent, so computing discarded
                        # lanes and selecting with np.where matches the
                        # gather/scatter form bit-for-bit.
                        algo = single_algo
                        cwnd = np.where(
                            ss,
                            np.minimum(cwnd * algo.slow_start_factor,
                                       rwnd_cap_s),
                            cwnd)
                        inc = algo.increase_batch(cwnd, tsl, rtt_s)
                        cwnd = np.where(
                            ca, np.minimum(cwnd + inc, rwnd_cap_s), cwnd)
                    else:
                        for algo, smask in groups:
                            sel = ss & smask
                            if sel.any():
                                cwnd[sel] = np.minimum(
                                    cwnd[sel] * algo.slow_start_factor,
                                    rwnd_cap_s[sel])
                            sel = ca & smask
                            if sel.any():
                                inc = algo.increase_batch(cwnd[sel], tsl[sel],
                                                          rtt_s[sel])
                                cwnd[sel] = np.minimum(cwnd[sel] + inc,
                                                       rwnd_cap_s[sel])

                fin = remaining <= 0.0
                n_finished = int(np.count_nonzero(fin))
                if n_finished != n_finished_prev:
                    n_finished_prev = n_finished
                    finished_streams = np.bincount(flow_of, weights=fin,
                                                   minlength=n_flows)
                    newly_done = proc_f & (finished_streams == k)
                    if newly_done.any():
                        done_f |= newly_done
                        for f in np.nonzero(newly_done)[0]:
                            prog = progresses[f]
                            prog.finish_s = now + dt
                            # Final-tick sample: close the series at
                            # the finish time so the last partial
                            # interval is not extrapolated.
                            prog.time_series.append((now + dt, float(alloc[f])))

            now += dt
            if now >= next_sample:
                next_sample = now + sample_s
                for f in np.nonzero(started_f & ~done_f)[0]:
                    progresses[f].time_series.append((now, float(alloc[f])))
        else:
            raise SimulationError(
                f"multi-flow simulation did not settle within {max_ticks} ticks"
            )

        # Mirror the struct-of-arrays state back into the object model.
        for i, st in enumerate(flat):
            st.cwnd = float(cwnd[i])
            st.ssthresh = float(ssthresh[i])
            st.time_since_loss = float(tsl[i])
            st.rtt_clock = float(rtt_clock[i])
            st.loss_flag = bool(loss_flag[i])
            st.delivered_bits = float(delivered[i])
            if bounded[i]:
                st.remaining_bits = float(remaining[i])
        for f, prog in enumerate(progresses):
            prog.started = bool(started_f[f] or prog.started)
            prog.loss_events += int(loss_events_f[f])
        return now

    def _advance_queues(self, demands: np.ndarray, dt: float) -> np.ndarray:
        """Advance the per-link virtual queues one tick; return the
        boolean overflow mask.

        Offered load per link is summed with ``np.bincount`` over the
        flow-ordered incidence.  Tick-loop demands are finite and
        non-negative, so this is bit-identical to the dense
        ``(demands[:, None] * usage).sum(axis=0)`` of the scalar
        reference, which adds the same terms in flow order plus exact
        zeros.  Growing links add ``overload * dt`` and draining links
        subtract it with a clamp at empty; since queues are
        non-negative, both branches are exactly
        ``max(0, q + overload * dt)``.
        """
        flat_rows, flat_cols = self._filler.flat_rows, self._filler.flat_cols
        offered_per_link = np.bincount(flat_cols, weights=demands[flat_rows],
                                       minlength=self._capacities.size)
        overload = offered_per_link - self._capacities
        queues = np.maximum(0.0, self._queues + overload * dt)
        overflowing = queues > self._buffers
        self._queues = np.minimum(queues, self._buffers)
        return overflowing

    # -- conveniences ---------------------------------------------------------------
    def profile_of(self, label: str) -> PathProfile:
        try:
            f = self._labels.index(label)
        except ValueError:
            raise ConfigurationError(f"no flow labelled {label!r}") from None
        return self._path_profiles[self._path_of[f]]

    def aggregate_delivered(self) -> DataSize:
        return bits(sum(p.delivered_bits for p in self.progress.values()))
