"""Federation execution: the ``"federation"`` spec runner.

One grid point per cache scale: build the federation with every cache
size multiplied by the scale, replay the *same* seeded request trace
(identical across scales, so the curve isolates cache size), and
collect the byte ledger plus the stitched circuit view per client.
Points run through the standard exec fan-out, so federation runs
inherit serial/pooled byte-identity, content-addressed caching, and
golden gating exactly like scenarios, sweeps, and campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..exec.seeding import derive_seed
from ..experiment.runner import RunOutput
from ..experiment.spec import ExperimentSpec, register_spec_kind
from ..units import GB
from ..workloads.cachepop import working_set_trace
from .domain import build_federation
from .sim import simulate_requests
from .spec import FederationSpec

__all__ = ["FederationResult", "run_federation"]


@dataclass
class FederationResult:
    """In-process value of a federation run (``RunResult.value``)."""

    spec: FederationSpec
    curve: List[Dict[str, object]] = field(default_factory=list)

    def hit_rates(self) -> List[float]:
        return [float(point["hit_rate"]) for point in self.curve]


def _trace_for(spec: FederationSpec):
    """The spec's request trace — a function of the spec alone, never
    of the cache scale, so every sweep point replays identical demand."""
    rng = np.random.default_rng(
        derive_seed(spec.seed, {"federation": "cache-workload"}))
    wl = spec.workload
    return working_set_trace(
        list(spec.client_domains()),
        rng=rng,
        n_objects=wl.objects,
        requests_per_round=wl.requests_per_round,
        rounds=wl.rounds,
        alpha=wl.alpha,
        mean_object_size=GB(wl.mean_object_gb),
        size_sigma=wl.size_sigma,
    )


def _federation_point(spec: str, scale: float) -> Dict[str, object]:
    """One cache-placement point; module-level so the exec engine can
    fingerprint, cache, and ship it to a pool like any swept function."""
    parsed = ExperimentSpec.from_json(spec)
    fed = build_federation(parsed, scale=float(scale))
    clients = parsed.client_domains()
    chains = {c: fed.tier_chain(c) for c in clients}
    ledger = simulate_requests(chains, _trace_for(parsed))
    circuits = {}
    for client in clients:
        profile = fed.circuit_profile(client)
        circuits[client] = {
            "domains": fed.route(client, parsed.origin),
            "rtt_ms": round(profile.base_rtt.s * 1e3, 6),
            "capacity_gbps": round(profile.capacity.bps / 1e9, 6),
            "loss": round(profile.random_loss, 9),
        }
    return {
        "scale": float(scale),
        "cache_bytes_total": sum(c.capacity_bytes
                                 for c in fed.caches().values()),
        "hit_rate": ledger["hit_rate"],
        "byte_savings": ledger["byte_savings"],
        "ledger": ledger,
        "circuits": circuits,
    }


def run_federation(spec: FederationSpec, ctx, version: str):
    """Execute a federation spec; the ``"federation"`` runner entry.

    Returns a :class:`~repro.experiment.runner.RunOutput` whose one
    artifact is ``curve.json``.  The payload carries the full
    hit-rate-vs-cache-size curve and nothing environment-dependent, so
    its digest is identical serial vs pooled and cold vs warm — the
    property the differential tests and the golden gate rely on.
    """
    tracer = ctx.tracer
    if tracer.enabled:
        tracer.event("federation", "start", name=spec.name,
                     domains=len(spec.domains),
                     scales=len(spec.cache_scales))

    runner = ctx.runner(code_version=version)
    points = [{"spec": spec.to_json(), "scale": float(s)}
              for s in spec.cache_scales]
    outcomes = runner.map(_federation_point, points)
    curve = [o.value for o in outcomes]

    if tracer.enabled:
        tracer.counter("points", component="federation").inc(len(curve))
        for point in curve:
            tracer.event("federation", "point", scale=point["scale"],
                         hit_rate=point["hit_rate"],
                         byte_savings=point["byte_savings"])

    payload: Dict[str, object] = {
        "clients": list(spec.client_domains()),
        "origin": spec.origin,
        "workload": spec.workload.to_dict(),
        "curve": curve,
    }
    summary = {
        "scales": len(curve),
        "hit_rate_min": min(p["hit_rate"] for p in curve),
        "hit_rate_max": max(p["hit_rate"] for p in curve),
        "byte_savings_max": max(p["byte_savings"] for p in curve),
    }
    value = FederationResult(spec=spec, curve=curve)
    curve_json = [{"scale": p["scale"],
                   "cache_bytes_total": p["cache_bytes_total"],
                   "hit_rate": p["hit_rate"],
                   "byte_savings": p["byte_savings"]} for p in curve]
    return RunOutput(payload, summary, value,
                     artifacts={"curve.json": curve_json})


register_spec_kind(FederationSpec, run_federation)


def federation_hit_rate(cache_gb: float, alpha: float,
                        seed: int = 0) -> float:
    """Sweep target: overall federation hit rate at one cache size.

    Builds the canonical six-domain federation with every cache set to
    ``cache_gb`` and the workload's Zipf exponent set to ``alpha`` —
    the axes of the cache-placement figure.
    """
    from .spec import default_federation_spec

    spec = default_federation_spec(
        "federation-sweep", seed=int(seed),
        cache_gb=float(cache_gb), alpha=float(alpha))
    fed = build_federation(spec)
    chains = {c: fed.tier_chain(c) for c in spec.client_domains()}
    ledger = simulate_requests(chains, _trace_for(spec))
    return float(ledger["hit_rate"])
