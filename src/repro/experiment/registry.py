"""Name registries that turn pure-data specs into live objects.

A spec file can only carry *names* — ``"design": "simple-science-dmz"``,
``"fault": "linecard"``, ``"target": "fig1_tcp"`` — so this module owns
the authoritative name→factory maps the whole system shares:

* :data:`DESIGNS` — the paper's notional designs (also the source of
  truth for the CLI's ``designs``/``audit``/``transfer`` commands);
* :data:`FAULTS` — the §3.3 soft-failure library, with JSON-scalar
  parameter surfaces (units are applied here, not in the spec);
* :data:`SWEEP_TARGETS` — functions a :class:`~repro.experiment.spec.SweepSpec`
  may sweep.  Targets must be module-level (picklable: ``repro run
  --workers N`` ships them to a process pool) and must accept only
  JSON-scalar keyword arguments so grid points round-trip through spec
  files and the result cache.

Register your own with :func:`register_sweep_target` before running a
spec that names it.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Sequence, Tuple

from ..errors import ConfigurationError
from .spec import decode_value

__all__ = [
    "DESIGNS",
    "FAULTS",
    "SWEEP_TARGETS",
    "SweepTarget",
    "build_design",
    "build_fault",
    "register_sweep_target",
    "sweep_target",
    "cu_host_throughput",
    "detection_delay_point",
    "fig1_tcp_point",
    "mathis_grid_point",
]


# -- designs ------------------------------------------------------------------

def _designs() -> Dict[str, Callable[[], object]]:
    from ..core import (
        big_data_site,
        campus_with_rcnet,
        general_purpose_campus,
        simple_science_dmz,
        supercomputer_center,
    )
    def _federated_wan(**kwargs):
        # Imported on build, not on registry import, so listing designs
        # never drags the federation package in as a side effect.
        from ..federation.design import federated_wan_design
        return federated_wan_design(**kwargs)

    return {
        "general-purpose-campus": general_purpose_campus,
        "simple-science-dmz": simple_science_dmz,
        "supercomputer-center": supercomputer_center,
        "big-data-site": big_data_site,
        "colorado-campus": campus_with_rcnet,
        "federated-wan": _federated_wan,
    }


#: Builders for the paper's notional designs (Figures 3–7 plus the §2
#: baseline), keyed by the names spec files and the CLI use.
DESIGNS: Dict[str, Callable[[], object]] = _designs()


def build_design(name: str):
    """Construct the named design bundle, or raise with the known names."""
    try:
        return DESIGNS[name]()
    except KeyError:
        known = ", ".join(sorted(DESIGNS))
        raise ConfigurationError(
            f"unknown design {name!r}; known designs: {known}")


# -- faults -------------------------------------------------------------------

def _linecard(loss_rate: float = 1.0 / 22_000.0):
    from ..devices.faults import FailingLineCard
    return FailingLineCard(loss_rate=float(loss_rate))


def _optics(bit_error_rate: float = 1e-12, packet_bytes: int = 9000):
    from ..devices.faults import DirtyOptics
    from ..units import bytes_
    return DirtyOptics(bit_error_rate=float(bit_error_rate),
                       packet_size=bytes_(int(packet_bytes)))


def _cpu(cpu_mbps: float = 300.0, added_latency_ms: float = 2.0):
    from ..devices.faults import ManagementCpuForwarding
    from ..units import Mbps, ms
    return ManagementCpuForwarding(cpu_rate=Mbps(float(cpu_mbps)),
                                   added_latency=ms(float(added_latency_ms)))


def _duplex(loss_rate: float = 0.02, capacity_mbps: float = 100.0):
    from ..devices.faults import DuplexMismatch
    from ..units import Mbps
    return DuplexMismatch(loss_rate=float(loss_rate),
                          capacity=Mbps(float(capacity_mbps)))


def _storage(stall_mbps: float = 50.0, added_latency_ms: float = 10.0):
    from ..devices.faults import StorageStall
    from ..units import Mbps, ms
    return StorageStall(stall_rate=Mbps(float(stall_mbps)),
                        added_latency=ms(float(added_latency_ms)))


def _cachebug():
    from ..devices.faults import CacheAccountingBug
    return CacheAccountingBug()


#: Soft-failure builders keyed by the spec-file fault kinds.  Builders
#: take only JSON scalars; unit wrapping happens inside.
FAULTS: Dict[str, Callable[..., object]] = {
    "linecard": _linecard,
    "optics": _optics,
    "cpu": _cpu,
    "duplex": _duplex,
    "storage": _storage,
    "cachebug": _cachebug,
}


def build_fault(kind: str, params: Mapping[str, object] = ()):
    """Construct the named fault with its spec parameters."""
    try:
        builder = FAULTS[kind]
    except KeyError:
        known = ", ".join(sorted(FAULTS))
        raise ConfigurationError(
            f"unknown fault kind {kind!r}; known kinds: {known}")
    try:
        return builder(**dict(params))
    except TypeError as exc:
        raise ConfigurationError(
            f"bad parameters for fault {kind!r}: {exc}")


# -- sweep targets ------------------------------------------------------------

@dataclass(frozen=True)
class SweepTarget:
    """A function a SweepSpec may name, plus how to drive it."""

    name: str
    fn: Callable[..., object]
    description: str = ""
    #: True when the target takes a per-point ``seed`` keyword; the
    #: runner then derives one from the spec seed for every grid point.
    seeded: bool = False

    def check_grid(self, grid: Sequence[Tuple[str, Sequence[object]]],
                   seeded: bool = False) -> None:
        """Check a sweep grid against ``fn``'s signature, before any run.

        Raises a ConfigurationError naming ``grid[i]`` for a name ``fn``
        does not take (unless it takes ``**kwargs``), a required
        parameter the grid lacks (``seed`` comes from the runner when
        ``seeded``), or a value whose JSON type does not fit an
        ``int``/``float``/``str``/``bool`` annotation.  Values are only
        checked, never converted, so cache keys and goldens do not move.
        """
        params = _parameters(self.fn)
        open_ended = any(p.kind is p.VAR_KEYWORD for p in params.values())
        for i, (name, values) in enumerate(grid):
            if name not in params and not open_ended:
                raise ConfigurationError(
                    f"grid[{i}]: target {self.name!r} takes no parameter "
                    f"{name!r}; it takes {', '.join(params)}")
            tp = params[name].annotation if name in params else None
            if tp in (int, float, str, bool):
                decode_value(Tuple[tp, ...], values, f"grid[{i}][1]")
        given = {name for name, _ in grid} | ({"seed"} if seeded else set())
        for name, param in params.items():
            if (param.default is param.empty and name not in given
                    and param.kind in (param.POSITIONAL_OR_KEYWORD,
                                       param.KEYWORD_ONLY)):
                raise ConfigurationError(
                    f"grid: target {self.name!r} needs parameter {name!r}")


@functools.cache
def _parameters(fn: Callable) -> Mapping[str, inspect.Parameter]:
    """``fn``'s parameters, their annotations resolved where possible."""
    try:
        return inspect.signature(fn, eval_str=True).parameters
    except NameError:
        return inspect.signature(fn).parameters


SWEEP_TARGETS: Dict[str, SweepTarget] = {}


def register_sweep_target(name: str, fn: Callable[..., object], *,
                          description: str = "",
                          seeded: bool = False) -> SweepTarget:
    """Make ``fn`` sweepable by name from spec files and the CLI."""
    target = SweepTarget(name=name, fn=fn, description=description,
                         seeded=seeded)
    SWEEP_TARGETS[name] = target
    return target


def sweep_target(name: str) -> SweepTarget:
    try:
        return SWEEP_TARGETS[name]
    except KeyError:
        known = ", ".join(sorted(SWEEP_TARGETS))
        raise ConfigurationError(
            f"unknown sweep target {name!r}; known targets: {known}")


def _rep_seed(rep: int) -> int:
    """A repetition index as an RNG seed (numpy takes none below 0)."""
    if rep < 0:
        raise ConfigurationError(f"rep must be >= 0, got {rep}")
    return int(rep)


def mathis_grid_point(rtt_ms: float, loss: float, mss_bytes: int) -> float:
    """Mathis ceiling (Eq 1) in Gbps for one (RTT, loss, MSS) point.

    The Figure 1 analytic line, and the CLI's ``repro sweep mathis``
    workhorse.
    """
    from ..tcp.mathis import mathis_throughput
    from ..units import bytes_, seconds
    rate = mathis_throughput(bytes_(int(mss_bytes)),
                             seconds(float(rtt_ms) / 1e3), float(loss))
    return round(rate.bps / 1e9, 6)


def fig1_tcp_point(algorithm: str, rtt_ms: float, loss: float,
                   rep: int, max_rounds: int = 200_000,
                   duration_s: float = 30.0,
                   window_mb: int = 512) -> float:
    """Measured fluid-TCP throughput (bps) for one Figure 1 grid point.

    10 Gbps hosts, 9 KB MTU, tuned windows — the paper's Figure 1
    working point.  ``rep`` seeds the loss process so repeated
    measurements at the same (algorithm, RTT, loss) are independent;
    ``loss == 0`` runs the deterministic loss-free model.
    """
    from dataclasses import replace

    import numpy as np

    from ..netsim import Link, Topology
    from ..tcp import TcpConnection, algorithm_by_name
    from ..units import Gbps, MB, bytes_, ms, seconds

    topo = Topology("fig1")
    topo.add_host("a", nic_rate=Gbps(10))
    topo.add_host("b", nic_rate=Gbps(10))
    topo.connect("a", "b", Link(rate=Gbps(10), delay=ms(float(rtt_ms) / 2),
                                mtu=bytes_(9000),
                                loss_probability=float(loss)))
    profile = topo.profile_between("a", "b")
    profile = replace(
        profile, flow=profile.flow.with_(max_receive_window=MB(window_mb)))
    rng = np.random.default_rng(_rep_seed(rep)) if loss > 0 else None
    conn = TcpConnection(profile, algorithm=algorithm_by_name(algorithm),
                         rng=rng)
    return conn.measure(seconds(float(duration_s)),
                        max_rounds=int(max_rounds)).mean_throughput.bps


def detection_delay_point(cadence_min: float, probes: int,
                          rep: int) -> float:
    """Minutes for the mesh to catch the §2 line card, or None if missed.

    One point of the monitoring-cadence ablation: a simple Science DMZ,
    OWAMP every ``cadence_min`` minutes at ``probes`` packets per
    session, the 1/22000 line card injected at T+30 min, an 8.5-hour
    watch.
    """
    from ..scenario import Scenario
    from ..perfsonar.mesh import MeshConfig
    from ..units import minutes

    bundle = build_design("simple-science-dmz")
    scenario = (
        Scenario(bundle, seed=_rep_seed(rep))
        .with_mesh(
            ["dmz-perfsonar", "remote-dtn"],
            config=MeshConfig(owamp_interval=minutes(float(cadence_min)),
                              bwctl_interval=minutes(60),
                              owamp_packets=int(probes)))
        .inject("border", _linecard(), at=minutes(30))
    )
    outcome = scenario.run(until=minutes(30 + 8 * 60))
    delay = outcome.detection_delays[0]
    return None if delay is None else round(delay / 60.0, 1)


def cu_host_throughput(fixed_fabric: bool, rep: int) -> float:
    """Per-host TCP throughput (bps) through the CU-Boulder fabric.

    The §6.1 before/after measurement: nine 1G CMS hosts offering ~5.4
    Gbps into the 10G uplink, fabric either buggy (silent store-and-
    forward flip) or vendor-fixed, one host's H-TCP throughput to the
    remote site measured under that load.
    """
    import numpy as np

    from ..netsim.packetsim import BurstySource
    from ..tcp import TcpConnection, algorithm_by_name
    from ..units import Gbps, KB, Mbps, seconds

    bundle = DESIGNS["colorado-campus"](fixed_fabric=bool(fixed_fabric))
    sources = [BurstySource(name=f"cms{i + 1}", line_rate=Gbps(1),
                            mean_rate=Mbps(600), burst_size=KB(256))
               for i in range(9)]
    fabric = bundle.extras["fabric"]
    fabric.set_offered_load(sources)
    profile = bundle.topology.profile_between(
        "cms1", bundle.remote_dtn, **bundle.science_policy)
    conn = TcpConnection(profile, algorithm=algorithm_by_name("htcp"),
                         rng=np.random.default_rng(_rep_seed(rep)))
    return conn.measure(seconds(20), max_rounds=100_000).mean_throughput.bps


register_sweep_target(
    "mathis", mathis_grid_point,
    description="Mathis Eq 1 ceiling (Gbps) over RTT x loss x MSS")
register_sweep_target(
    "fig1_tcp", fig1_tcp_point,
    description="measured fluid-TCP throughput (bps), Figure 1 grid")
register_sweep_target(
    "detection_delay", detection_delay_point,
    description="minutes to detect the §2 line card vs probe cadence")
def federation_hit_rate_point(cache_gb: float, alpha: float,
                              seed: int = 0) -> float:
    """Federation-wide cache hit rate at one (cache size, Zipf) point.

    Thin wrapper so the registry stays import-light: the federation
    package loads only when a sweep actually names this target.
    """
    from ..federation.runner import federation_hit_rate
    return federation_hit_rate(float(cache_gb), float(alpha),
                               seed=int(seed))


register_sweep_target(
    "cu_host_throughput", cu_host_throughput,
    description="per-host TCP rate (bps) through the CU fan-in fabric")
register_sweep_target(
    "federation_hit_rate", federation_hit_rate_point,
    description="federation cache hit rate over cache size x Zipf alpha",
    seeded=True)
