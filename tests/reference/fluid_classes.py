"""Dict-based flow-class builder: the oracle for
:func:`repro.fluid.build_flow_classes`.

This is the builder as it was before the class build was vectorized.
It walks every flow in Python, keys a dict on the full per-flow class
key, and materializes each population's members from the specs.  The
production builder groups flows by one integer code and orders members
with a single ``lexsort``; ``tests/test_fluid_classes_equivalence.py``
requires both to return the same classes in the same order.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.fluid.classes import FlowClass
from repro.netsim.flow import FlowSpec
from repro.tcp.congestion import CongestionControl, algorithm_key


def build_flow_classes(
    specs: Sequence[FlowSpec],
    flow_links: Sequence[Tuple[int, ...]],
    algorithms: Sequence[CongestionControl],
    *,
    rtts: np.ndarray,
    mss_bits: np.ndarray,
    rwnd_pkts: np.ndarray,
    loss_p: np.ndarray,
    rate_caps: np.ndarray,
    n_shards: int = 1,
) -> List[FlowClass]:
    """Partition ``specs`` into :class:`FlowClass` populations.

    Every argument is per flow: ``flow_links[f]`` is the tuple of link
    indices flow *f* crosses, ``algorithms[f]`` its congestion control,
    and the arrays hold its transport parameters.  Classes come in the
    order their key is first met; members are sorted by (start, id)
    and dealt round-robin into up to ``n_shards`` phase shards.
    """
    grouped: Dict[tuple, List[int]] = {}
    for f, spec in enumerate(specs):
        key = (flow_links[f], algorithm_key(algorithms[f]),
               spec.parallel_streams, float(rate_caps[f]), float(rtts[f]),
               float(mss_bits[f]), float(rwnd_pkts[f]), float(loss_p[f]))
        grouped.setdefault(key, []).append(f)

    shards = max(1, int(n_shards))
    classes: List[FlowClass] = []
    for key, members in grouped.items():
        ids = np.asarray(members, dtype=np.int64)
        starts = np.array([specs[f].start.s for f in members],
                          dtype=np.float64)
        order = np.lexsort((ids, starts))
        ids, starts = ids[order], starts[order]
        per_stream = np.array([
            (specs[f].per_stream_size().bits
             if specs[f].size is not None else np.inf)
            for f in ids], dtype=np.float64)
        first = int(ids[0])
        k = min(shards, ids.size)
        for j in range(k):
            sel = slice(j, None, k)
            classes.append(FlowClass(
                index=len(classes),
                algorithm=algorithms[first],
                link_indices=flow_links[first],
                rtt_s=float(rtts[first]),
                mss_bits=float(mss_bits[first]),
                rwnd_pkts=float(rwnd_pkts[first]),
                random_loss=float(loss_p[first]),
                streams_per_flow=int(specs[first].parallel_streams),
                rate_cap_bps=float(rate_caps[first]),
                flow_ids=ids[sel],
                starts_s=starts[sel],
                per_stream_bits=per_stream[sel],
                phase=j / k,
            ))
    return classes
