"""Deterministic fault-schedule sampling from the campaign seed tree.

Each of a campaign's N schedules is a full, self-contained
:class:`~repro.experiment.spec.ScenarioSpec` drawn from the campaign's
:class:`~repro.chaos.spec.FaultSpaceSpec`.  The draw for schedule *i*
uses an independent generator seeded with
``derive_seed(campaign.seed, {"campaign": name, "schedule": i})`` — the
same seed-tree discipline the sweep layer uses — so:

* schedules are reproducible from ``(campaign digest, i)`` alone;
* inserting or removing schedules never perturbs the others;
* a sampled schedule can be replayed (or shrunk) standalone, because
  it *is* an ordinary runnable spec.

Sampled times are quantized to 0.1 s so the JSON artifacts stay
readable and digests don't hinge on float formatting edge cases; a time
that would round up to the horizon rounds down instead.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..exec.seeding import derive_seed
from ..experiment.registry import FAULTS, build_design
from ..experiment.spec import FaultSpec, LinkCutSpec, ScenarioSpec
from .spec import CampaignSpec

__all__ = ["sample_schedule", "sample_schedules", "schedule_seed"]

#: Fault kinds injected on storage (DTN) nodes rather than the border.
STORAGE_KINDS = frozenset({"storage"})

#: Fault kinds injected on cache nodes (federated designs only).
CACHE_KINDS = frozenset({"cachebug"})


def schedule_seed(spec: CampaignSpec, index: int) -> int:
    """The derived seed for campaign schedule ``index``."""
    return derive_seed(spec.seed,
                       {"campaign": spec.name, "schedule": index})


def _draw_time(rng, lo: float, hi: float, until_s: float) -> float:
    """A uniform time in ``[lo, hi]`` to 0.1 s, never up to ``until_s``."""
    t = round(float(rng.uniform(lo, hi)), 1)
    return t if t < until_s else round(t - 0.1, 1)


def _candidate_nodes(spec: CampaignSpec) -> Tuple[Tuple[str, ...],
                                                  Tuple[str, ...],
                                                  Tuple[str, ...]]:
    """Resolve (device_nodes, storage_nodes, cache_nodes) vs the design.

    Empty tuples in the space fall back to the design's border router
    (device faults), its DTNs (storage faults), and its declared cache
    nodes (cachebug faults), and every explicit name is validated
    against the topology so a typo fails at sampling time with the
    offending name, not mid-campaign.
    """
    bundle = build_design(spec.design)
    topo = bundle.topology
    nodes = spec.space.nodes or (bundle.border,)
    storage = spec.space.storage_nodes or tuple(bundle.dtns)
    caches = spec.space.cache_nodes or tuple(
        sorted(bundle.extras.get("caches", {})))
    for name in (*nodes, *storage, *caches):
        if not topo.has_node(name):
            raise ConfigurationError(
                f"fault space names node {name!r}, which design "
                f"{spec.design!r} does not contain")
    if any(k in STORAGE_KINDS for k in spec.space.kinds) and not storage:
        raise ConfigurationError(
            f"fault space includes a storage kind but design "
            f"{spec.design!r} has no DTNs and no storage_nodes were given")
    if any(k in CACHE_KINDS for k in spec.space.kinds) and not caches:
        raise ConfigurationError(
            f"fault space includes a cache kind but design "
            f"{spec.design!r} declares no caches and no cache_nodes "
            "were given")
    for a, b in spec.space.cuts:
        topo.link_between(a, b)  # raises RoutingError on a bad pair
    for kind in spec.space.kinds:
        if kind not in FAULTS:
            known = ", ".join(sorted(FAULTS))
            raise ConfigurationError(
                f"fault space kind {kind!r} is not registered; "
                f"known kinds: {known}")
    return tuple(nodes), tuple(storage), tuple(caches)


def sample_schedule(spec: CampaignSpec, index: int, *,
                    nodes: Optional[Tuple[str, ...]] = None,
                    storage_nodes: Optional[Tuple[str, ...]] = None,
                    cache_nodes: Optional[Tuple[str, ...]] = None
                    ) -> ScenarioSpec:
    """Draw schedule ``index`` of the campaign as a runnable spec.

    ``nodes``/``storage_nodes``/``cache_nodes`` are the resolved
    candidate sites; pass them when sampling many schedules to avoid
    rebuilding the design per draw (see :func:`sample_schedules`).
    """
    if nodes is None or storage_nodes is None or cache_nodes is None:
        nodes, storage_nodes, cache_nodes = _candidate_nodes(spec)
    space = spec.space
    rng = np.random.default_rng(schedule_seed(spec, index))

    n_faults = int(rng.integers(space.min_faults, space.max_faults + 1))
    faults: List[FaultSpec] = []
    for _ in range(n_faults):
        kind = space.kinds[int(rng.integers(len(space.kinds)))]
        if kind in STORAGE_KINDS:
            sites = storage_nodes
        elif kind in CACHE_KINDS:
            sites = cache_nodes
        else:
            sites = nodes
        node = sites[int(rng.integers(len(sites)))]
        onset = _draw_time(rng, space.onset_min_s, space.onset_max_s,
                           spec.until_s)
        faults.append(FaultSpec(kind=kind, at_s=onset, node=node))
    faults.sort(key=lambda f: (f.at_s, f.kind, f.node or ""))

    repairs: Tuple[float, ...] = ()
    if float(rng.random()) < space.repair_fraction:
        lo = space.onset_max_s
        hi = max(lo, spec.until_s - 0.1)
        repairs = (_draw_time(rng, lo, hi, spec.until_s),)

    cuts: Tuple[LinkCutSpec, ...] = ()
    if space.cuts and float(rng.random()) < space.cut_fraction:
        a, b = space.cuts[int(rng.integers(len(space.cuts)))]
        cut_at = _draw_time(rng, space.onset_min_s, space.onset_max_s,
                            spec.until_s)
        cuts = (LinkCutSpec(a=a, b=b, at_s=cut_at),)

    return ScenarioSpec(
        name=f"{spec.name}-s{index:03d}",
        seed=schedule_seed(spec, index),
        description=f"schedule {index} of campaign {spec.name!r}",
        design=spec.design,
        until_s=spec.until_s,
        mesh=spec.mesh,
        faults=tuple(faults),
        repairs_s=repairs,
        link_cuts=cuts,
        alert_rule=spec.alert_rule,
    )


def sample_schedules(spec: CampaignSpec) -> List[ScenarioSpec]:
    """All N schedules of the campaign, in index order."""
    nodes, storage_nodes, cache_nodes = _candidate_nodes(spec)
    return [sample_schedule(spec, i, nodes=nodes,
                            storage_nodes=storage_nodes,
                            cache_nodes=cache_nodes)
            for i in range(spec.schedules)]
