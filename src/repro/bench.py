"""Performance-regression harness for the simulator's hot paths.

The simulator's credibility rests on two things: the reproduced numbers
(guarded by goldens) and the ability to run large parameter studies
quickly (guarded here).  This module times a small registry of *pinned*
scenarios — the vectorized multi-flow fluid loop, the fan-in Lindley
sweep, max-min fair allocation (all flows live, and a live set that
changes), and the single-connection fluid TCP loop — and compares the
timings against a committed baseline (``benchmarks/baseline.json``).

Raw wall-clock times are not portable across machines, so every suite
run also times a fixed *calibration kernel*, interleaved with each
scenario's runs, and the comparison works on calibration-normalized
times::

    ratio = (current_s / current_calibration) / (baseline_s / baseline_calibration)

where each scenario's runs are first divided by the calibration runs
timed alongside them, so a slow spell of the host cancels out.

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
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ReproError

__all__ = [
    "SCENARIOS",
    "Scenario",
    "compare",
    "load_baseline",
    "run_scenario",
    "run_suite",
    "select",
    "write_json",
]

#: JSON schema version for suite/baseline payloads.  Payloads of another
#: version timed another calibration kernel and are not comparable.
SCHEMA_VERSION = 2

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


def _maxmin_live_factory(quick: bool):
    """The filler a simulation holds over the 12-site backbone, two
    flows per ordered site pair, called with demands whose live set is
    redrawn every fourth call, so the live-set memo is both rebuilt and
    reused."""
    from .netsim.flow import FlowSpec
    from .tcp.simulate import MultiFlowSimulation, _ProgressiveFiller
    from .workloads import wan_backbone

    sites = [f"site{i}" for i in range(12)]
    specs = [FlowSpec(src=a, dst=b, label=f"{a}-{b}-{k}")
             for a in sites for b in sites if a != b for k in range(2)]
    sim = MultiFlowSimulation(wan_backbone(12), specs, backend="numpy")
    n_calls = 40 if quick else 400
    rng = np.random.default_rng(5)
    live = np.zeros(len(specs), dtype=bool)
    calls = []
    for k in range(n_calls):
        if k % 4 == 0:
            live = rng.random(len(specs)) < 0.2
        calls.append(np.where(live, rng.random(len(specs)) * 2e10, 0.0))

    def run():
        allocate = _ProgressiveFiller(sim._usage, sim._capacities,
                                      row_of=sim._path_of).allocate
        return sum(float(allocate(d).sum()) for d in calls)
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
_register("maxmin.live",
          "max-min filler over the 12-site backbone, 264 flows x 400 "
          "calls, live set redrawn every 4th call",
          _maxmin_live_factory)
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

#: Least span (seconds) of a scenario's interleaved samples.  On a shared
#: VM the interpreter's speed flips between two levels ~1.5x apart in
#: spells of 0.2 s to over 1.5 s; half a second of pairs lets the median
#: pair ratio outvote a spell that covers only a few pairs.
MIN_SPAN_S = 0.5


def _calibration_kernel() -> Callable[[], float]:
    """The fixed calibration workload: an interpreted loop of small
    numpy calls, the shape of the simulator's hot loops.  CI runners
    and laptops differ in absolute speed, but the *ratio* of a scenario
    to this kernel is far more stable.

    Compiled array kernels barely slow down in a host's slow spells
    while interpreted code slows by up to half, so a kernel that only
    multiplies big matrices would not track the scenarios.
    """
    rng = np.random.default_rng(0)
    usage = rng.random((40, 12))
    demands = rng.random(12)

    def kernel() -> float:
        total = 0.0
        for i in range(1000):
            total += float((usage @ demands).max()) + i * i % 7
        return total
    return kernel


def _timed(thunk: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    thunk()
    return time.perf_counter() - t0


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
    """Run one registered scenario, timed against the calibration kernel.

    After one untimed warm-up (so lazy imports and cold caches are not
    billed), scenario runs and calibration runs alternate — at least
    ``repeats`` scenario runs, over at least :data:`MIN_SPAN_S` — so
    each scenario run is bracketed by two calibration runs timed in
    the same interval.  ``calibration`` is the median calibration time
    and ``seconds`` the median ratio of a scenario run to the mean of
    its two brackets, times ``calibration``: the scenario's time at
    the run's typical speed.  A slow spell of the host slows a run and
    its brackets alike, so it cancels in the ratio; ``runs`` is the
    number of scenario runs timed.
    """
    select([name])
    scenario = SCENARIOS[name]
    kernel = _calibration_kernel()
    scenario.factory(quick)()
    brackets = [_timed(kernel)]
    ratios: List[float] = []
    until = time.perf_counter() + MIN_SPAN_S
    while len(ratios) < max(1, repeats) or time.perf_counter() < until:
        seconds = _timed(scenario.factory(quick))
        brackets.append(_timed(kernel))
        ratios.append(seconds / (0.5 * (brackets[-2] + brackets[-1])))
    calibration = statistics.median(brackets)
    return {"name": name,
            "seconds": statistics.median(ratios) * calibration,
            "calibration": calibration, "runs": len(ratios)}


def run_suite(names: Optional[Sequence[str]] = None, *, repeats: int = 3,
              quick: bool = False,
              progress: Optional[Callable[[str, float], None]] = None,
              ) -> Dict[str, object]:
    """Run scenarios and return the suite payload (see module docs).

    ``calibration`` is the median of the scenarios' calibration times,
    and each result is the scenario's median ratio to its brackets (see
    :func:`run_scenario`) times that one calibration.
    """
    selected = select(names)
    ratios: Dict[str, float] = {}
    calibrations: List[float] = []
    for name in selected:
        run = run_scenario(name, repeats=repeats, quick=quick)
        ratios[name] = float(run["seconds"]) / float(run["calibration"])
        calibrations.append(float(run["calibration"]))
        if progress is not None:
            progress(name, float(run["seconds"]))
    calibration = statistics.median(calibrations)
    return {
        "schema": SCHEMA_VERSION,
        "quick": bool(quick),
        "repeats": int(repeats),
        "calibration": calibration,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "results": {name: ratio * calibration
                    for name, ratio in ratios.items()},
    }


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
