"""ESnet-scale traffic matrices: 10k–1M transfer demands over a WAN.

The Snowmass networking report frames the HEP traffic problem as a
*matrix* — every site pair exchanging bulk data continuously — rather
than the handful of named transfers the other workload builders model.
These builders produce that shape: a multi-site wide-area backbone and
a gravity-model demand matrix large enough to exercise the
:mod:`repro.fluid` mean-field engine (the per-flow kernels top out
around thousands of flows).

Both builders are deterministic given their inputs; the matrix draws
all randomness from the caller's generator in one vectorized pass so
even million-flow matrices build in seconds.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..netsim.flow import FlowSpec
from ..netsim.link import Link
from ..netsim.node import Router
from ..netsim.topology import Topology
from ..units import DataRate, DataSize, GB, Gbps, TimeDelta, bytes_, ms, seconds
from .science import ScienceWorkload

__all__ = ["traffic_matrix", "wan_backbone"]


def wan_backbone(
    n_sites: int = 12,
    *,
    core_rate: DataRate = Gbps(100),
    uplink_rate: DataRate = Gbps(40),
    core_delay: TimeDelta = ms(8),
    uplink_delay: TimeDelta = ms(1),
    mtu: DataSize = bytes_(9000),
    chord_every: int = 3,
) -> Topology:
    """A multi-link WAN: a ring of core routers with cross-country
    chords, one site host hanging off each core node.

    Site hosts are named ``site0`` … ``site{n-1}`` — the names
    :func:`traffic_matrix` expects.  ``chord_every`` spaces the diameter
    chords around the first half of the ring (0 disables them); a
    chord whose ends are ring neighbours (3 sites) is left out.
    """
    if n_sites < 3:
        raise ConfigurationError("wan_backbone needs at least 3 sites")
    topo = Topology(f"wan-backbone-{n_sites}")
    for i in range(n_sites):
        topo.add_node(Router(name=f"core{i}"))
    for i in range(n_sites):
        topo.connect(f"core{i}", f"core{(i + 1) % n_sites}",
                     Link(rate=core_rate, delay=core_delay, mtu=mtu))
    if chord_every:
        for i in range(0, n_sites // 2, chord_every):
            j = i + n_sites // 2
            if (j - i) % n_sites in (1, n_sites - 1):
                continue  # a ring link already joins the two ends
            topo.connect(f"core{i}", f"core{j}",
                         Link(rate=core_rate,
                              delay=TimeDelta(core_delay.s * 2.0), mtu=mtu))
    for i in range(n_sites):
        topo.add_host(f"site{i}", nic_rate=core_rate)
        topo.connect(f"site{i}", f"core{i}",
                     Link(rate=uplink_rate, delay=uplink_delay, mtu=mtu))
    return topo


def traffic_matrix(
    sites: Sequence[str],
    *,
    n_flows: int,
    rng: np.random.Generator,
    mean_size: DataSize = GB(2),
    size_sigma: float = 0.8,
    streams_per_flow: int = 4,
    arrival_window: TimeDelta = seconds(30),
    gravity_alpha: float = 0.8,
    policy: Optional[dict] = None,
) -> ScienceWorkload:
    """A gravity-model demand matrix between ``sites``.

    Site popularity follows a Zipf law with exponent ``gravity_alpha``
    (a few tier-1s dominate, the tail trickles), transfer sizes are
    log-normal around ``mean_size`` with shape ``size_sigma``, and
    arrivals land uniformly in ``arrival_window``.  Every demand shares
    ``streams_per_flow`` and ``policy``, so the matrix collapses into
    O(site-pairs) flow classes under the fluid engine no matter how
    large ``n_flows`` grows.
    """
    if len(sites) < 2:
        raise ConfigurationError("traffic_matrix needs at least 2 sites")
    if n_flows < 1:
        raise ConfigurationError("n_flows must be >= 1")
    n_sites = len(sites)
    weights = 1.0 / np.arange(1, n_sites + 1) ** gravity_alpha
    weights /= weights.sum()

    src = rng.choice(n_sites, size=n_flows, p=weights)
    dst = rng.choice(n_sites, size=n_flows, p=weights)
    same = src == dst
    dst[same] = (dst[same] + 1 + rng.integers(0, n_sites - 1,
                                              size=int(same.sum()))) % n_sites
    # Log-normal sized so the median transfer is modest but the tail
    # carries archive-scale pulls; mu re-centers the mean on mean_size.
    mu = np.log(mean_size.bits) - 0.5 * size_sigma ** 2
    sizes = np.exp(rng.normal(mu, size_sigma, size=n_flows))
    starts = rng.uniform(0.0, max(arrival_window.s, 0.0), size=n_flows)

    # One policy mapping for every demand, and plain Python numbers from
    # tolist() rather than numpy scalars converted one at a time.
    policy = dict(policy or {})
    flows: List[FlowSpec] = [
        FlowSpec(
            src=sites[s],
            dst=sites[d],
            size=DataSize(sz),
            start=TimeDelta(t),
            parallel_streams=streams_per_flow,
            policy=policy,
            label=f"tm-{i}",
        )
        for i, (s, d, sz, t) in enumerate(zip(
            src.tolist(), dst.tolist(), sizes.tolist(), starts.tolist()))
    ]
    return ScienceWorkload(name="traffic-matrix", flows=tuple(flows))
