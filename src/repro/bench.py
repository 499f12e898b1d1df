"""Performance-regression harness for the simulator's hot paths.

The simulator's credibility rests on two things: the reproduced numbers
(guarded by goldens) and the ability to run large parameter studies
quickly (guarded here).  This module times a small registry of *pinned*
scenarios — the vectorized multi-flow fluid loop, the fan-in Lindley
sweep, max-min fair allocation, and the single-connection fluid TCP
loop — and compares the timings against a committed baseline
(``benchmarks/baseline.json``).

Raw wall-clock times are not portable across machines, so every suite
run also times a fixed pure-numpy *calibration kernel* and the
comparison works on calibration-normalized times::

    ratio = (current_s / current_calibration) / (baseline_s / baseline_calibration)

A scenario regresses when its normalized ratio exceeds ``1 + tolerance``
(default tolerance 0.30, per the CI gate).  Speedups silently pass; to
lock them in, refresh the baseline with ``repro bench --write-baseline``.

Scenario timings measure only the hot loop: topology construction and
path profiling happen outside the timed region, and each repeat builds
fresh state so stateful objects (``MultiFlowSimulation``) never resume
a previous run.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ReproError

__all__ = [
    "SCENARIOS",
    "Scenario",
    "calibrate",
    "compare",
    "load_baseline",
    "run_scenario",
    "run_suite",
    "run_suite_from_spec",
    "select",
    "write_json",
]

#: JSON schema version for suite/baseline payloads.
SCHEMA_VERSION = 1

#: CI gate: fail when a scenario is >30% slower than baseline (normalized).
DEFAULT_TOLERANCE = 0.30


@dataclass(frozen=True)
class Scenario:
    """A pinned, reproducible workload for regression timing.

    ``factory(quick)`` returns a zero-argument thunk wrapping the timed
    hot loop; the harness calls the factory once per repeat so no state
    leaks between measurements.
    """

    name: str
    description: str
    factory: Callable[[bool], Callable[[], object]]


# -- workload builders --------------------------------------------------------

def _chain_simulation(backend: str, quick: bool):
    """64 flows x 4 streams over a shared 30-link lossy chain.

    The headline scenario from the vectorization work: many competing
    multi-stream flows on overlapping paths, with a small uniform loss
    probability on the backbone so the stochastic loss machinery runs.
    Quick mode shrinks to 8 flows over 10 links for smoke tests.
    """
    from .netsim import Link, Topology
    from .netsim.flow import FlowSpec
    from .netsim.node import Router
    from .tcp.simulate import MultiFlowSimulation
    from .units import Gbps, MB, bytes_, ms, seconds

    n_links = 10 if quick else 30
    n_flows = 8 if quick else 64
    horizon = seconds(3) if quick else seconds(30)

    topo = Topology("bench-chain")
    topo.add_node(Router(name="r0"))
    for i in range(1, n_links + 1):
        topo.add_node(Router(name=f"r{i}"))
        topo.connect(f"r{i - 1}", f"r{i}",
                     Link(rate=Gbps(40), delay=ms(1), mtu=bytes_(9000),
                          loss_probability=2e-6))
    for h in range(n_flows):
        a = h % n_links
        b = n_links - (h % max(n_links - 5, 1))
        topo.add_host(f"h{h}", nic_rate=Gbps(10))
        topo.add_host(f"g{h}", nic_rate=Gbps(10))
        topo.connect(f"h{h}", f"r{a}",
                     Link(rate=Gbps(10), delay=ms(1), mtu=bytes_(9000)))
        topo.connect(f"g{h}", f"r{b}",
                     Link(rate=Gbps(10), delay=ms(1), mtu=bytes_(9000)))
    specs = [FlowSpec(src=f"h{h}", dst=f"g{h}", size=MB(200),
                      parallel_streams=4, label=f"f{h}")
             for h in range(n_flows)]
    sim = MultiFlowSimulation(topo, specs, rng=np.random.default_rng(3),
                              backend=backend)
    return sim, horizon


def _multiflow_factory(quick: bool):
    sim, horizon = _chain_simulation("numpy", quick)
    return lambda: sim.run(until=horizon)


def _fanin_factory(quick: bool):
    from .netsim.packetsim import BurstySource, simulate_fan_in
    from .units import Gbps, KB, Mbps, seconds

    n_sources = 3 if quick else 8
    duration = seconds(0.2) if quick else seconds(2.0)
    sources = [BurstySource(name=f"s{i}", line_rate=Gbps(1),
                            mean_rate=Mbps(600), burst_size=KB(128))
               for i in range(n_sources)]
    # Moderate-drop regime (~6% loss): enough contention that the
    # drop machinery runs, not so much that the sweep degenerates
    # into per-packet drop handling.
    return lambda: simulate_fan_in(
        sources, egress_rate=Gbps(4.5), buffer_size=KB(512),
        duration=duration, rng=np.random.default_rng(7))


def _maxmin_factory(quick: bool):
    from .tcp.simulate import max_min_fair_allocation

    n_flows = 40 if quick else 200
    n_links = 12 if quick else 60
    n_calls = 5 if quick else 200
    rng = np.random.default_rng(11)
    usage = rng.random((n_flows, n_links)) < 0.15
    usage[:, 0] = True  # every flow crosses the shared border link
    demands = rng.random(n_flows) * 10.0
    capacities = rng.random(n_links) * 40.0 + 1.0

    def run():
        total = 0.0
        for _ in range(n_calls):
            total += float(max_min_fair_allocation(
                demands, usage, capacities).sum())
        return total
    return run


def _megaflows_simulation(backend: str, quick: bool):
    """An LHC-style gravity traffic matrix on the 12-site WAN backbone.

    The mean-field engine's headline workload: the full mode loads
    100k concurrent flows (400k streams) — far past what the per-flow
    kernels can carry — and the fluid engine collapses them into a few
    hundred flow classes.  Quick mode shrinks to 5k flows so the CI
    smoke still crosses the hybrid switchover threshold.
    """
    from .tcp.simulate import MultiFlowSimulation
    from .units import seconds
    from .workloads import traffic_matrix, wan_backbone

    n_flows = 5_000 if quick else 100_000
    horizon = seconds(1) if quick else seconds(2)
    n_sites = 12
    topo = wan_backbone(n_sites)
    workload = traffic_matrix([f"site{i}" for i in range(n_sites)],
                              n_flows=n_flows,
                              rng=np.random.default_rng(42))
    sim = MultiFlowSimulation(topo, workload.specs(), backend=backend)
    return sim, horizon


def _megaflows_factory(backend: str):
    def factory(quick: bool):
        sim, horizon = _megaflows_simulation(backend, quick)
        return lambda: sim.run(until=horizon)
    return factory


def _fluid_tcp_factory(quick: bool):
    from dataclasses import replace

    from .netsim import Link, Topology
    from .tcp import Reno, TcpConnection
    from .units import Gbps, MB, bytes_, ms, seconds

    topo = Topology("bench-fluid")
    topo.add_host("a", nic_rate=Gbps(10))
    topo.add_host("b", nic_rate=Gbps(10))
    topo.connect("a", "b", Link(rate=Gbps(10), delay=ms(10),
                                mtu=bytes_(9000), loss_probability=1e-4))
    profile = topo.profile_between("a", "b")
    profile = replace(profile,
                      flow=profile.flow.with_(max_receive_window=MB(64)))
    horizon = seconds(20) if quick else seconds(600)

    def run():
        conn = TcpConnection(profile, algorithm=Reno(),
                             rng=np.random.default_rng(1))
        return conn.measure(horizon, max_rounds=60_000).rounds
    return run


#: Registry of pinned regression scenarios, keyed by ``family.backend``.
SCENARIOS: Dict[str, Scenario] = {}


def _register(name: str, description: str,
              factory: Callable[[bool], Callable[[], object]]) -> None:
    SCENARIOS[name] = Scenario(name=name, description=description,
                               factory=factory)


_register("multiflow.numpy",
          "64 flows x 4 streams, 30-link lossy chain (vectorized)",
          _multiflow_factory)
_register("fanin.numpy",
          "8-source fan-in Lindley sweep, 2s horizon (vectorized)",
          _fanin_factory)
_register("maxmin.numpy",
          "max-min fair allocation, 200 flows x 60 links x 100 calls",
          _maxmin_factory)
_register("fluid_tcp",
          "single-connection fluid TCP, 20k lossy rounds",
          _fluid_tcp_factory)
_register("megaflows.fluid",
          "100k-flow gravity traffic matrix, 12-site WAN (mean-field)",
          _megaflows_factory("fluid"))
_register("megaflows.hybrid",
          "100k-flow gravity traffic matrix through the hybrid dispatcher",
          _megaflows_factory("hybrid"))


# -- timing -------------------------------------------------------------------

def calibrate(repeats: int = 3) -> float:
    """Time a fixed pure-numpy kernel (seconds, best of ``repeats``).

    Used to normalize scenario timings across machines: CI runners and
    laptops differ in absolute speed but the *ratio* of a scenario to
    this kernel is far more stable.
    """
    rng = np.random.default_rng(0)
    a = rng.random((400, 400))
    b = rng.random(200_000)
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        for _ in range(4):
            (a @ a).sum()
            np.cumsum(b).sum()
            np.sort(b)
        best = min(best, time.perf_counter() - t0)
    return best


def select(names: Optional[Sequence[str]] = None) -> List[str]:
    """The scenarios a run times: ``names`` checked against the
    registry, or every registered scenario when ``names`` is empty."""
    for name in names or ():
        if name not in SCENARIOS:
            known = ", ".join(sorted(SCENARIOS))
            raise ConfigurationError(
                f"unknown bench scenario {name!r}; known: {known}")
    return list(names) if names else sorted(SCENARIOS)


def run_scenario(name: str, *, repeats: int = 3,
                 quick: bool = False) -> Dict[str, object]:
    """Run one registered scenario; returns name/seconds/repeats.

    ``seconds`` is the best (minimum) of ``repeats`` timed runs — the
    standard choice for regression gating since it is the least noisy
    estimator of the true cost.
    """
    select([name])
    scenario = SCENARIOS[name]
    best = float("inf")
    for _ in range(max(1, repeats)):
        thunk = scenario.factory(quick)
        t0 = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - t0)
    return {"name": name, "seconds": best, "repeats": max(1, repeats)}


def run_suite(names: Optional[Sequence[str]] = None, *, repeats: int = 3,
              quick: bool = False,
              progress: Optional[Callable[[str, float], None]] = None,
              ) -> Dict[str, object]:
    """Run scenarios and return the suite payload (see module docs)."""
    selected = select(names)
    results: Dict[str, float] = {}
    for name in selected:
        results[name] = float(run_scenario(
            name, repeats=repeats, quick=quick)["seconds"])
        if progress is not None:
            progress(name, results[name])
    return {
        "schema": SCHEMA_VERSION,
        "quick": bool(quick),
        "repeats": int(repeats),
        "calibration": calibrate(),
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "results": results,
    }


def run_suite_from_spec(spec, *,
                        progress: Optional[Callable[[str, float], None]]
                        = None) -> Dict[str, object]:
    """Run the suite a :class:`repro.experiment.BenchSpec` pins down.

    Duck-typed on ``scenarios``/``repeats``/``quick`` so this module
    never imports :mod:`repro.experiment` (which imports the scenario
    layer); the experiment runner calls in the other direction.
    """
    names = list(spec.scenarios) or None
    return run_suite(names, repeats=spec.repeats, quick=spec.quick,
                     progress=progress)


# -- baseline I/O and comparison ----------------------------------------------

def write_json(payload: Dict[str, object], path: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_baseline(path: str) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ReproError(f"cannot read baseline {path!r}: {exc}")
    except ValueError as exc:
        raise ReproError(f"baseline {path!r} is not valid JSON: {exc}")
    if not isinstance(payload, dict) or "results" not in payload:
        raise ReproError(f"baseline {path!r} has no 'results' section")
    if payload.get("schema") != SCHEMA_VERSION:
        raise ReproError(
            f"baseline {path!r} has schema {payload.get('schema')!r}; "
            f"this harness speaks schema {SCHEMA_VERSION}")
    return payload


def compare(current: Dict[str, object], baseline: Dict[str, object], *,
            tolerance: float = DEFAULT_TOLERANCE) -> List[Dict[str, object]]:
    """Compare suite payloads; returns one row per shared scenario.

    Each row carries the calibration-normalized ``ratio`` (current over
    baseline; 1.0 means unchanged) and ``regressed`` (ratio beyond
    ``1 + tolerance``).  Scenarios present in only one payload are
    skipped — renaming a scenario intentionally resets its history.
    """
    if tolerance < 0:
        raise ConfigurationError("tolerance must be non-negative")
    if bool(current.get("quick")) != bool(baseline.get("quick")):
        raise ReproError(
            "refusing to compare: one payload was produced in quick mode "
            "and the other was not; their workloads differ")
    cur_cal = float(current.get("calibration", 0.0)) or 1.0
    base_cal = float(baseline.get("calibration", 0.0)) or 1.0
    rows: List[Dict[str, object]] = []
    base_results = baseline["results"]
    for name, cur_s in sorted(current["results"].items()):
        if name not in base_results:
            continue
        base_s = float(base_results[name])
        if base_s <= 0.0:
            continue
        ratio = (float(cur_s) / cur_cal) / (base_s / base_cal)
        rows.append({
            "name": name,
            "baseline_s": base_s,
            "current_s": float(cur_s),
            "ratio": ratio,
            "regressed": ratio > 1.0 + tolerance,
        })
    return rows
