"""FederationSpec: a multi-domain cache-placement experiment as data.

The fifth :class:`~repro.experiment.spec.ExperimentSpec` kind
(``"federation"``): a set of administrative domains with per-domain
policy (allowed peers, transit vs stub role, cache size/policy), a
working-set-skewed object workload, and a tuple of *cache scales* — the
placement sweep.  Running the spec replays the same request trace once
per scale and reports the hit-rate / byte-savings curve, reproducing
the in-network caching literature's hit-rate-vs-cache-size measurement.

Same contract as every other kind: frozen, lossless JSON round-trip,
canonical digest, runnable through ``repro run`` with golden gating,
result-cached per grid point.  The kind registers lazily — parsing a
``"kind": "federation"`` file imports :mod:`repro.federation` on
demand, exactly like the chaos campaign kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Tuple

from ..devices.cache import CACHE_POLICIES
from ..experiment.spec import ExperimentSpec, SpecRecord, _require

__all__ = [
    "CacheWorkloadSpec",
    "DomainSpec",
    "FederationSpec",
    "ROLE_STUB",
    "ROLE_TRANSIT",
    "default_federation_spec",
]

#: A stub domain originates/consumes data but never forwards for others.
ROLE_STUB = "stub"
#: A transit domain (a regional) may carry other domains' traffic — and
#: is where the shared in-network caches live.
ROLE_TRANSIT = "transit"


@dataclass(frozen=True)
class DomainSpec(SpecRecord):
    """One administrative domain: identity, policy, cache provisioning.

    ``peers`` is the domain's allowed-peer list — an inter-domain
    circuit link exists only where two domains name *each other* (the
    build step rejects asymmetric peering).  ``cache_gb`` of 0 means
    the domain deploys no cache.
    """

    name: str
    role: str = ROLE_STUB
    peers: Tuple[str, ...] = ()
    cache_gb: float = 0.0
    cache_policy: str = "lru"

    def __post_init__(self) -> None:
        _require(bool(self.name), "domain name must be non-empty")
        _require(self.role in (ROLE_STUB, ROLE_TRANSIT),
                 f"domain {self.name!r}: role must be "
                 f"{ROLE_STUB!r} or {ROLE_TRANSIT!r}, got {self.role!r}")
        _require(self.cache_gb >= 0,
                 f"domain {self.name!r}: cache_gb must be >= 0")
        _require(self.cache_policy in CACHE_POLICIES,
                 f"domain {self.name!r}: cache_policy must be one of "
                 f"{', '.join(CACHE_POLICIES)}")
        _require(self.name not in self.peers,
                 f"domain {self.name!r} cannot peer with itself")


@dataclass(frozen=True)
class CacheWorkloadSpec(SpecRecord):
    """The Zipf working-set workload one federation run replays."""

    objects: int = 200
    requests_per_round: int = 100
    rounds: int = 4
    alpha: float = 1.1
    mean_object_gb: float = 2.0
    size_sigma: float = 0.6

    def __post_init__(self) -> None:
        _require(self.objects >= 1, "workload needs objects >= 1")
        _require(self.requests_per_round >= 1,
                 "workload needs requests_per_round >= 1")
        _require(self.rounds >= 1, "workload needs rounds >= 1")
        _require(self.alpha >= 0, "workload alpha must be >= 0")
        _require(self.mean_object_gb > 0,
                 "workload mean_object_gb must be > 0")
        _require(self.size_sigma >= 0, "workload size_sigma must be >= 0")



@dataclass(frozen=True)
class FederationSpec(ExperimentSpec):
    """A multi-domain federation with in-network caches, as one document."""

    kind: ClassVar[str] = "federation"

    domains: Tuple[DomainSpec, ...] = ()
    #: Name of the domain whose DTN holds the origin copy of the data.
    origin: str = ""
    workload: CacheWorkloadSpec = field(default_factory=CacheWorkloadSpec)
    #: The cache-placement sweep: every committed cache size is
    #: multiplied by each scale and the workload replayed per scale.
    cache_scales: Tuple[float, ...] = (1.0,)
    #: Inter-domain circuit link provisioning.
    link_gbps: float = 100.0
    link_rtt_ms: float = 20.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(len(self.domains) >= 2,
                 "a federation needs at least two domains")
        names = [d.name for d in self.domains]
        _require(len(set(names)) == len(names),
                 f"duplicate domain names in federation {self.name!r}")
        _require(self.origin in names,
                 f"origin {self.origin!r} is not one of the federation's "
                 f"domains ({', '.join(names)})")
        known = set(names)
        for domain in self.domains:
            for peer in domain.peers:
                _require(peer in known,
                         f"domain {domain.name!r} peers with unknown "
                         f"domain {peer!r}")
        clients = [d.name for d in self.domains
                   if d.role == ROLE_STUB and d.name != self.origin]
        _require(len(clients) >= 1,
                 "a federation needs at least one stub domain besides "
                 "the origin (someone has to request data)")
        _require(len(self.cache_scales) >= 1,
                 "cache_scales needs at least one entry")
        _require(all(s > 0 for s in self.cache_scales),
                 "every cache scale must be > 0")
        _require(self.link_gbps > 0, "link_gbps must be > 0")
        _require(self.link_rtt_ms > 0, "link_rtt_ms must be > 0")

    def client_domains(self) -> Tuple[str, ...]:
        """Stub domains (minus the origin), in spec order — the requesters."""
        return tuple(d.name for d in self.domains
                     if d.role == ROLE_STUB and d.name != self.origin)



def default_federation_spec(name: str = "federation", *,
                            seed: int = 0,
                            cache_scales: Tuple[float, ...] = (1.0,),
                            workload: CacheWorkloadSpec = None,
                            cache_gb: float = None,
                            alpha: float = None,
                            ) -> FederationSpec:
    """The canonical six-domain federation: one origin lab, two regional
    transit networks with shared caches, three consuming campuses with
    site caches.

    ``cache_gb`` overrides every cache's size uniformly (the sweep
    target uses it); ``alpha`` overrides the workload's Zipf exponent.
    """
    wl = workload if workload is not None else CacheWorkloadSpec()
    if alpha is not None:
        from dataclasses import replace
        wl = replace(wl, alpha=float(alpha))
    site_gb = 40.0 if cache_gb is None else float(cache_gb)
    regional_gb = 120.0 if cache_gb is None else float(cache_gb)
    domains = (
        DomainSpec(name="lab", role=ROLE_STUB,
                   peers=("regional-east", "regional-west")),
        DomainSpec(name="regional-east", role=ROLE_TRANSIT,
                   peers=("lab", "regional-west", "uni-a", "uni-b"),
                   cache_gb=regional_gb, cache_policy="lfu"),
        DomainSpec(name="regional-west", role=ROLE_TRANSIT,
                   peers=("lab", "regional-east", "uni-c"),
                   cache_gb=regional_gb, cache_policy="lfu"),
        DomainSpec(name="uni-a", role=ROLE_STUB, peers=("regional-east",),
                   cache_gb=site_gb),
        DomainSpec(name="uni-b", role=ROLE_STUB, peers=("regional-east",),
                   cache_gb=site_gb),
        DomainSpec(name="uni-c", role=ROLE_STUB, peers=("regional-west",),
                   cache_gb=site_gb),
    )
    return FederationSpec(
        name=name,
        seed=seed,
        description=("six-domain federation: origin lab, two regional "
                     "caches, three campus site caches"),
        domains=domains,
        origin="lab",
        workload=wl,
        cache_scales=cache_scales,
    )
