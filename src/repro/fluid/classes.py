"""Flow-class aggregation: collapsing flows into mean-field populations.

A *flow class* is the unit the fluid engine advances: every flow that
shares (a) the exact sequence of links, (b) the same congestion-control
behaviour, and (c) the same transport parameters (RTT, MSS, receive
window, random-loss rate, parallel-stream count, rate cap) competes
identically in the per-flow model, so its population can be represented
by one aggregate congestion window and a live-member count.  Science
traffic matrices collapse extremely well under this key — 100k
transfers between a few dozen sites yield a few hundred classes — which
is the entire performance story of :mod:`repro.fluid`.

Grouping never changes *which* flows exist: births and deaths inside a
class are tracked individually (each member keeps its own start time
and transfer size), only the congestion state is pooled.

The build itself costs one pass over the specs to read start times,
sizes and stream counts; grouping and ordering are array sorts, and
the remaining Python loops run over paths, algorithm instances and
classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..netsim.flow import FlowSpec
from ..tcp.congestion import CongestionControl, algorithm_key

__all__ = ["DEFAULT_PHASE_SHARDS", "FlowClass", "build_flow_classes"]

#: Default phase-shard count per population.  Enough stagger to damp
#: the lockstep back-off artifact (the whole class halving at once
#: drains the queue and under-registers congestion) while keeping the
#: class count — and the max-min filler cost — within a small multiple.
DEFAULT_PHASE_SHARDS = 8


@dataclass
class FlowClass:
    """One mean-field population of interchangeable flows.

    ``flow_ids`` index the caller's global flow list and are sorted by
    ascending start time so the engine can consume births with a single
    advancing pointer.  ``per_stream_bits`` is ``inf`` for unbounded
    flows (they never die).
    """

    index: int
    algorithm: CongestionControl
    link_indices: Tuple[int, ...]
    rtt_s: float
    mss_bits: float
    rwnd_pkts: float
    random_loss: float
    streams_per_flow: int
    rate_cap_bps: float
    flow_ids: np.ndarray
    starts_s: np.ndarray
    per_stream_bits: np.ndarray
    #: Initial RTT-clock offset as a fraction of the RTT.  Shards of one
    #: population carry staggered phases so their window updates spread
    #: across the RTT the way individually-born per-flow streams do,
    #: instead of the whole population halving in lockstep.
    phase: float = 0.0

    @property
    def population(self) -> int:
        """Member flows (not streams) over the whole simulation."""
        return int(self.flow_ids.size)

    @property
    def stream_population(self) -> int:
        return self.population * self.streams_per_flow


def _combine(code: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Fold a non-negative per-flow ``index`` into a group ``code``.

    Codes are re-numbered densely first whenever the product could
    leave int64, so any number of folded keys stays exact.
    """
    span = int(index.max()) + 1
    if (int(code.max()) + 1) > (1 << 62) // span:
        code = np.unique(code, return_inverse=True)[1].reshape(-1)
    return code * span + index


def build_flow_classes(
    specs: Sequence[FlowSpec],
    path_of: np.ndarray,
    path_links: Sequence[Tuple[int, ...]],
    algorithms: Sequence[CongestionControl],
    algorithm_of: np.ndarray,
    *,
    rtts: np.ndarray,
    mss_bits: np.ndarray,
    rwnd_pkts: np.ndarray,
    loss_p: np.ndarray,
    rate_caps: np.ndarray,
    n_shards: int = 1,
) -> List[FlowClass]:
    """Partition ``specs`` into :class:`FlowClass` populations.

    Flows are described at two levels.  Per flow: ``path_of[f]`` indexes
    the distinct paths, ``algorithm_of[f]`` indexes ``algorithms`` (the
    distinct congestion-control instances) and ``rate_caps[f]`` is its
    pacing cap.  Per path: ``path_links[p]`` is the tuple of
    link-inventory indices path *p* crosses, and ``rtts``, ``mss_bits``,
    ``rwnd_pkts`` and ``loss_p`` are its transport parameters (the ones
    ``MultiFlowSimulation.run`` gathers for the exact kernels).

    Two flows share a population when they cross the same links with
    the same transport parameters, run interchangeable algorithms (see
    :func:`algorithm_key`), and have the same stream count and rate
    cap.  Populations come in the order their first flow appears;
    members are sorted by (start time, flow id).

    ``n_shards`` splits each population round-robin into up to that many
    phase-staggered shards (RTT-clock offsets ``j/K`` of the RTT).  In
    the per-flow model each stream updates its window at its *own* RTT
    boundary — phases spread uniformly by birth time — so a single
    lockstep population over-oscillates: the whole class backs off at
    once, the queue drains, and congestion under-registers.  A handful
    of shards restores the stagger at class-level cost.
    """
    path_of = np.asarray(path_of, dtype=np.int64)
    algorithm_of = np.asarray(algorithm_of, dtype=np.int64)
    rate_caps = np.asarray(rate_caps, dtype=np.float64)
    n_flows = path_of.size
    starts = np.array([s.start.s for s in specs], dtype=np.float64)
    streams = np.array([s.parallel_streams for s in specs], dtype=np.int64)
    sizes = np.array([np.inf if s.size is None else s.size.bits
                      for s in specs], dtype=np.float64)
    per_stream = sizes / streams

    # Paths (and algorithm instances) that are interchangeable share a
    # key index, so equal keys group whatever index they came in under.
    path_keys: Dict[tuple, int] = {}
    path_key_of = np.array([
        path_keys.setdefault(
            (path_links[p], float(rtts[p]), float(mss_bits[p]),
             float(rwnd_pkts[p]), float(loss_p[p])), len(path_keys))
        for p in range(len(path_links))], dtype=np.int64)
    algo_keys: Dict[object, int] = {}
    algo_key_of = np.array([
        algo_keys.setdefault(algorithm_key(a), len(algo_keys))
        for a in algorithms], dtype=np.int64)

    code = path_key_of[path_of]
    code = _combine(code, algo_key_of[algorithm_of])
    code = _combine(code, streams)
    code = _combine(code, np.unique(rate_caps, return_inverse=True)[1]
                    .reshape(-1))

    # Number populations by first appearance, then order every member
    # by (population, start, id) in one sort.
    _, first, inverse = np.unique(code, return_index=True,
                                  return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    population = rank[inverse.reshape(-1)]
    order = np.lexsort((np.arange(n_flows), starts, population))
    bounds = np.concatenate(
        ([0], np.cumsum(np.bincount(population, minlength=first.size))))

    shards = max(1, int(n_shards))
    classes: List[FlowClass] = []
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        ids = order[lo:hi]
        pop_starts, pop_bits = starts[ids], per_stream[ids]
        head = int(ids[0])
        p = int(path_of[head])
        k = min(shards, hi - lo)
        for j in range(k):
            # Round-robin over the start-sorted members keeps every
            # shard's births spread across the arrival window.
            sel = slice(j, None, k)
            classes.append(FlowClass(
                index=len(classes),
                algorithm=algorithms[int(algorithm_of[head])],
                link_indices=path_links[p],
                rtt_s=float(rtts[p]),
                mss_bits=float(mss_bits[p]),
                rwnd_pkts=float(rwnd_pkts[p]),
                random_loss=float(loss_p[p]),
                streams_per_flow=int(streams[head]),
                rate_cap_bps=float(rate_caps[head]),
                flow_ids=ids[sel],
                starts_s=pop_starts[sel],
                per_stream_bits=pop_bits[sel],
                phase=j / k,
            ))
    return classes
