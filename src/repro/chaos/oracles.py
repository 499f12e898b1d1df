"""Invariant oracles: what must hold no matter which faults strike.

An oracle is a named predicate over one finished schedule run.  Each
receives a :class:`RunObservation` — the scenario spec and outcome plus
ground truth the ordinary outcome does not carry (the mesh's raw OWAMP
packet ledger, a timeline of true path profiles snapshotted around
every fault/repair/cut, the optional DTN transfer-probe record) — and
returns a list of human-readable violation strings (empty = invariant
held).

The registry ships these default invariants, each tied to a claim the
paper (or the federation's caching follow-on) makes:

* ``packets-conserved`` — archived loss *rates* must be exactly the
  ledger's ``lost/sent`` recomputation, with ``0 <= lost <= sent``
  (bytes/packets are conserved between the probe and the archive);
* ``event-time-monotonic`` — no measurement series, and no ledger, may
  ever step backwards in time or escape the run horizon;
* ``throughput-capacity`` — a BWCTL sample can never exceed the true
  path capacity at measurement time (conservation of bytes across
  links: you cannot measure more than the bottleneck forwards);
* ``mathis-ceiling`` — under heavy per-packet loss the measured rate
  must stay within ``slack`` of the Eq 1 Mathis bound.  The fluid model
  draws at most one loss event per RTT round, so at light loss its
  legitimate throughput sits far *above* the naive per-packet formula;
  the oracle therefore only binds where the bound is meaningful
  (``min_loss``, default 1e-3) with a generous default slack — wide
  enough never to false-positive on the model, tight enough to catch a
  loss process that silently stops suppressing throughput (which sits
  orders of magnitude higher);
* ``detection-within-bound`` — when a lossy fault sits on a measured
  path long enough that missing it is statistically implausible, a
  perfSONAR alert must fire within ``bound_s`` of onset (§3.3's
  "alert network administrators" promise, checked mechanically);
* ``mesh-cadence`` — every pair records the expected number of OWAMP
  sessions: the mesh must keep measuring *through* the degradation,
  outage included (an unreachable path records 100% loss, it does not
  go silent);
* ``transfer-terminates`` — the DTN transfer probe either completes in
  bounded time or fails with a *taxonomized* :class:`~repro.errors.ReproError`;
  silent hangs and untyped crashes are violations;
* ``cache-bytes-conserved`` — across a federation's cache tiers, origin
  bytes plus cache-served bytes must equal delivered bytes, and every
  cache's own ledger must balance (designs without caches pass
  vacuously).

Oracle helpers (:func:`check_monotonic`, :func:`check_bounded`) are
deliberately tiny pure functions so the hypothesis state machine in
``tests/test_chaos_stateful.py`` can reuse them as machine invariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError, RoutingError
from ..perfsonar.archive import Metric
from ..tcp.mathis import MATHIS_CONSTANT_PAPER

__all__ = [
    "ORACLES",
    "Oracle",
    "PathState",
    "ProfileTimeline",
    "RunObservation",
    "check_bounded",
    "check_monotonic",
    "default_oracles",
    "evaluate_oracles",
    "get_oracle",
    "register_oracle",
]

#: Ground-truth snapshots are taken this far *after* each timeline
#: event, so the profile reflects the event's effect.
SNAPSHOT_EPSILON = 1e-6

#: Window for matching a measurement to its surrounding snapshots; a
#: probe firing at exactly an event instant may legitimately see either
#: the before- or after-state, so bounds take the looser of the two.
STATE_EPSILON = 1e-5


# -- ground truth -------------------------------------------------------------

@dataclass(frozen=True)
class PathState:
    """True profile of one directed pair at one instant."""

    t: float
    reachable: bool
    capacity_bps: float = 0.0
    rtt_s: float = 0.0
    mss_bits: float = 0.0
    loss: float = 1.0
    path_nodes: Tuple[str, ...] = ()


class ProfileTimeline:
    """Per-pair ground-truth path profiles around every timeline event.

    Installed on a scenario *before* it runs: schedules a snapshot
    event at t=0 and just after every fault onset, repair, and link
    cut, capturing ``topology.profile_between`` for every mesh pair.
    Snapshots draw no randomness and touch no shared state, so they
    never perturb the run they observe.
    """

    def __init__(self, scenario, pairs: Sequence[Tuple[str, str]],
                 event_times_s: Sequence[float]) -> None:
        self._sim = scenario.sim
        self._topology = scenario.bundle.topology
        self._policy = dict(scenario.bundle.science_policy)
        self._pairs = list(pairs)
        self.states: Dict[Tuple[str, str], List[PathState]] = {
            pair: [] for pair in self._pairs}
        times = sorted({0.0} | {t + SNAPSHOT_EPSILON
                               for t in event_times_s if t >= 0})
        for when in times:
            scenario.sim.schedule_at(when, self._snapshot)

    @classmethod
    def install(cls, scenario, spec) -> "ProfileTimeline":
        """Wire a timeline to ``scenario`` built from ScenarioSpec ``spec``."""
        mesh = scenario.mesh
        if mesh is None:
            raise ConfigurationError(
                "ProfileTimeline.install needs a scenario with a mesh")
        pairs = [(a, b) for a in mesh.hosts for b in mesh.hosts if a != b]
        events = ([f.at_s for f in spec.faults]
                  + list(spec.repairs_s)
                  + [c.at_s for c in spec.link_cuts])
        return cls(scenario, pairs, events)

    def _snapshot(self) -> None:
        now = float(self._sim.now)
        for pair in self._pairs:
            try:
                profile = self._topology.profile_between(
                    pair[0], pair[1], **self._policy)
            except RoutingError:
                state = PathState(t=now, reachable=False)
            else:
                state = PathState(
                    t=now,
                    reachable=True,
                    capacity_bps=float(profile.capacity.bps),
                    rtt_s=float(profile.base_rtt.s),
                    mss_bits=float(profile.flow.mss.bits),
                    loss=float(profile.random_loss),
                    path_nodes=tuple(profile.element_names),
                )
            self.states[pair].append(state)

    # -- queries ---------------------------------------------------------------
    def states_around(self, pair: Tuple[str, str],
                      t: float) -> List[PathState]:
        """Candidate true states for a measurement at time ``t``.

        The last snapshot at or before ``t`` plus any snapshot within
        ``STATE_EPSILON`` after it — a probe firing at the exact instant
        of a fault/repair may see either side of the transition, so
        bound checks take the looser candidate.
        """
        series = self.states.get(pair, [])
        candidates: List[PathState] = []
        last_before: Optional[PathState] = None
        for state in series:
            if state.t <= t:
                last_before = state
            elif state.t <= t + STATE_EPSILON:
                candidates.append(state)
            else:
                break
        if last_before is not None:
            candidates.insert(0, last_before)
        return candidates


@dataclass
class RunObservation:
    """Everything one schedule run exposes to the oracles."""

    spec: object                    # the ScenarioSpec that ran
    outcome: object                 # the ScenarioOutcome it produced
    timeline: ProfileTimeline
    #: (time, src, dst, packets_sent, packets_lost) per OWAMP session.
    packet_ledger: List[Tuple[float, str, str, int, int]] = \
        field(default_factory=list)
    #: Mesh (time, pair) hard-failure records.
    unreachable: List[Tuple[float, Tuple[str, str]]] = \
        field(default_factory=list)
    #: DTN transfer-probe record (None when the campaign has no probe):
    #: ``{"status": "completed"|"failed"|"crashed", ...}``.
    transfer: Optional[Dict[str, object]] = None
    #: Cache-workload byte ledger (None when the design has no caches):
    #: the :func:`repro.federation.sim.simulate_requests` record.
    caches: Optional[Dict[str, object]] = None


# -- reusable assertion helpers ----------------------------------------------

def check_monotonic(values: Sequence[float], *,
                    label: str = "series",
                    strict: bool = False) -> List[str]:
    """Violations if ``values`` ever decrease (or repeat, if strict)."""
    out = []
    for i in range(1, len(values)):
        bad = (values[i] <= values[i - 1] if strict
               else values[i] < values[i - 1])
        if bad:
            op = "<=" if strict else "<"
            out.append(f"{label}[{i}]={values[i]!r} {op} "
                       f"{label}[{i - 1}]={values[i - 1]!r}")
    return out


def check_bounded(value: float, lo: float, hi: float, *,
                  label: str = "value") -> List[str]:
    """Violations if ``value`` escapes ``[lo, hi]`` (NaN always fails)."""
    if math.isnan(value) or not (lo <= value <= hi):
        return [f"{label}={value!r} outside [{lo!r}, {hi!r}]"]
    return []


# -- the registry -------------------------------------------------------------

@dataclass(frozen=True)
class Oracle:
    """One registered invariant."""

    name: str
    fn: Callable[..., List[str]]
    description: str = ""


ORACLES: Dict[str, Oracle] = {}


def register_oracle(name: str, fn: Callable[..., List[str]], *,
                    description: str = "") -> Oracle:
    """Register an invariant; ``fn(obs, **params) -> [violation, ...]``."""
    oracle = Oracle(name=name, fn=fn, description=description)
    ORACLES[name] = oracle
    return oracle


def get_oracle(name: str) -> Oracle:
    try:
        return ORACLES[name]
    except KeyError:
        known = ", ".join(sorted(ORACLES))
        raise ConfigurationError(
            f"unknown oracle {name!r}; known oracles: {known}")


def default_oracles() -> Tuple[str, ...]:
    """Every registered oracle name, sorted (the ``oracles: []`` set)."""
    return tuple(sorted(ORACLES))


def evaluate_oracles(
    obs: RunObservation,
    oracle_items: Sequence[Tuple[str, Mapping[str, object]]],
) -> Dict[str, List[str]]:
    """Run the named oracles over one observation.

    Returns ``{oracle_name: [violations...]}`` containing only oracles
    that found something, with names in sorted order (deterministic
    payload bytes).
    """
    out: Dict[str, List[str]] = {}
    for name, params in sorted(oracle_items, key=lambda item: item[0]):
        oracle = get_oracle(name)
        try:
            violations = oracle.fn(obs, **dict(params))
        except TypeError as exc:
            raise ConfigurationError(
                f"bad parameters for oracle {name!r}: {exc}")
        if violations:
            out[name] = list(violations)
    return out


# -- the default invariants ---------------------------------------------------

def oracle_packets_conserved(obs: RunObservation) -> List[str]:
    """Archived loss rates == exact ledger recomputation; counts sane."""
    out: List[str] = []
    expected_sent = obs.spec.mesh.owamp_packets
    per_pair: Dict[Tuple[str, str], List[Tuple[float, int, int]]] = {}
    for t, src, dst, sent, lost in obs.packet_ledger:
        if not 0 <= lost <= sent:
            out.append(f"ledger t={t}: {src}->{dst} lost {lost} of "
                       f"{sent} sent — impossible count")
        if sent != expected_sent:
            out.append(f"ledger t={t}: {src}->{dst} sent {sent} != "
                       f"configured {expected_sent}")
        per_pair.setdefault((src, dst), []).append((t, sent, lost))
    for pair in sorted(per_pair):
        entries = per_pair[pair]
        times, values = obs.outcome.archive.series(
            pair[0], pair[1], Metric.LOSS_RATE)
        cursor = 0
        for t, value in zip(times, values):
            if cursor < len(entries) and entries[cursor][0] == t:
                _, sent, lost = entries[cursor]
                cursor += 1
                want = lost / sent if sent else 0.0
                if float(value) != want:
                    out.append(
                        f"{pair[0]}->{pair[1]} t={t}: archived loss rate "
                        f"{float(value)!r} != ledger {lost}/{sent}")
            elif float(value) != 1.0:
                # No ledger entry: only an unreachable-path record
                # (exact 100% loss) may appear in the archive.
                out.append(
                    f"{pair[0]}->{pair[1]} t={t}: loss sample "
                    f"{float(value)!r} has no ledger entry and is not an "
                    "outage record")
        if cursor != len(entries):
            out.append(f"{pair[0]}->{pair[1]}: {len(entries) - cursor} "
                       "ledger entries missing from the archive")
    return out


def oracle_event_time_monotonic(obs: RunObservation) -> List[str]:
    """No series may step backwards in time or escape [0, horizon]."""
    out: List[str] = []
    horizon = float(obs.outcome.duration.s)
    archive = obs.outcome.archive
    for src, dst, metric in sorted(archive.keys(),
                                   key=lambda k: (k[0], k[1], k[2].value)):
        times, _ = archive.series(src, dst, metric)
        label = f"{src}->{dst}/{metric.value}"
        out.extend(check_monotonic(list(times), label=f"time({label})"))
        for t in (float(times[0]), float(times[-1])) if len(times) else ():
            out.extend(check_bounded(t, 0.0, horizon,
                                     label=f"time({label})"))
    out.extend(check_monotonic([t for t, *_ in obs.packet_ledger],
                               label="time(ledger)"))
    for alert in obs.outcome.alerts:
        out.extend(check_bounded(alert.time, 0.0, horizon,
                                 label="alert.time"))
    return out


def oracle_throughput_capacity(obs: RunObservation, *,
                               tolerance: float = 1e-9) -> List[str]:
    """No BWCTL sample may exceed the true path capacity at its time."""
    out: List[str] = []
    archive = obs.outcome.archive
    for pair in archive.pairs(Metric.THROUGHPUT_BPS):
        times, values = archive.series(pair[0], pair[1],
                                       Metric.THROUGHPUT_BPS)
        for t, v in zip(times, values):
            states = obs.timeline.states_around(pair, float(t))
            if not states:
                continue
            cap = max((s.capacity_bps for s in states if s.reachable),
                      default=0.0)
            if float(v) > cap * (1.0 + tolerance):
                out.append(
                    f"{pair[0]}->{pair[1]} t={float(t)}: measured "
                    f"{float(v):.3e} bps exceeds true path capacity "
                    f"{cap:.3e} bps")
    return out


def oracle_mathis_ceiling(obs: RunObservation, *,
                          min_loss: float = 1e-3,
                          slack: float = 4.0) -> List[str]:
    """Under heavy loss, throughput stays within ``slack`` of Eq 1.

    Only binds when every plausible true state shows per-packet loss
    >= ``min_loss``; below that the fluid model's per-round loss
    process legitimately beats the naive per-packet Mathis formula by
    large factors (see module docs), so the bound would be noise.
    """
    out: List[str] = []
    archive = obs.outcome.archive
    for pair in archive.pairs(Metric.THROUGHPUT_BPS):
        times, values = archive.series(pair[0], pair[1],
                                       Metric.THROUGHPUT_BPS)
        for t, v in zip(times, values):
            states = [s for s in obs.timeline.states_around(pair, float(t))
                      if s.reachable]
            if not states or any(s.loss < min_loss for s in states):
                continue
            # The loosest candidate bound (lowest loss, fastest RTT);
            # a lossless state (min_loss <= 0) bounds nothing.
            bound = max(
                (s.mss_bits / s.rtt_s * MATHIS_CONSTANT_PAPER
                 / math.sqrt(s.loss)
                 for s in states if s.rtt_s > 0 and s.loss > 0),
                default=math.inf)
            if float(v) > bound * slack:
                out.append(
                    f"{pair[0]}->{pair[1]} t={float(t)}: measured "
                    f"{float(v):.3e} bps exceeds {slack:g}x Mathis bound "
                    f"{bound:.3e} bps at loss {min(s.loss for s in states):g}")
    return out


def _miss_probability(loss: float, packets: int, sessions: int,
                      threshold: float) -> float:
    """P(no session in the window shows loss above ``threshold``).

    A session alerts when ``lost/packets > threshold``, so the
    per-session miss chance is ``P(Binomial(packets, loss) <= k)`` with
    ``k = floor(threshold * packets)`` — computed exactly in log space
    (k is tiny for realistic thresholds: 1e-4 * 20000 = 2 terms).
    """
    if loss <= 0.0:
        return 1.0  # a lossless fault can never trip a loss alert
    if loss >= 1.0:
        return 0.0 if sessions > 0 else 1.0
    k = int(threshold * packets)
    log_terms = [
        (math.lgamma(packets + 1) - math.lgamma(j + 1)
         - math.lgamma(packets - j + 1)
         + j * math.log(loss) + (packets - j) * math.log1p(-loss))
        for j in range(k + 1)
    ]
    peak = max(log_terms)
    per_session = min(1.0, math.exp(peak) * sum(
        math.exp(t - peak) for t in log_terms))
    return per_session ** max(sessions, 0)


def oracle_detection_within_bound(obs: RunObservation, *,
                                  bound_s: float = 1800.0,
                                  max_miss_probability: float = 1e-9
                                  ) -> List[str]:
    """Lossy on-path faults must raise an alert within ``bound_s``.

    Enforced only when the fault is statistically impossible to miss:
    it injects per-packet loss, sits on a measured mesh path, stays
    active for the whole bound, and the chance that *every* OWAMP
    session in the window stays under the alert threshold is below
    ``max_miss_probability``.  Everything else is skipped, not passed —
    an oracle that guesses is worse than none.
    """
    out: List[str] = []
    spec = obs.spec
    horizon = float(obs.outcome.duration.s)
    interval = float(spec.mesh.owamp_interval_s)
    packets = int(spec.mesh.owamp_packets)
    threshold = float(spec.alert_rule.loss_rate_threshold)
    baseline = {pair: states[0] for pair, states
                in obs.timeline.states.items() if states}
    for idx, record in enumerate(obs.outcome.faults):
        loss = float(record.fault.element_loss_probability())
        if loss <= threshold:
            continue
        onset = float(record.injected_at)
        cleared = (float(record.cleared_at)
                   if record.cleared_at is not None else horizon)
        if min(cleared, horizon) - onset < bound_s:
            continue  # not active long enough to owe a detection
        on_paths = sum(
            1 for pair, state in sorted(baseline.items())
            if record.node_name in state.path_nodes)
        if not on_paths:
            continue  # probes never cross the faulted node
        sessions = int(bound_s // interval) * on_paths
        if _miss_probability(loss, packets, sessions,
                             threshold) > max_miss_probability:
            continue  # missing it is statistically plausible; skip
        delay = obs.outcome.detection_delays.get(idx)
        if delay is None:
            out.append(
                f"fault #{idx} ({record.fault.description} on "
                f"{record.node_name}, loss {loss:g}) was never detected "
                f"despite {sessions} sessions in the {bound_s:g}s bound")
        elif delay > bound_s:
            out.append(
                f"fault #{idx} ({record.fault.description} on "
                f"{record.node_name}) detected after {delay:.1f}s "
                f"> bound {bound_s:g}s")
    return out


def oracle_mesh_cadence(obs: RunObservation, *,
                        slack_sessions: int = 1) -> List[str]:
    """Every pair keeps measuring: expected OWAMP session count, +-slack.

    Outages must surface as 100%-loss records, never as silence; a
    short series means the mesh scheduler itself died mid-run.
    """
    out: List[str] = []
    spec = obs.spec
    horizon = float(obs.outcome.duration.s)
    interval = float(spec.mesh.owamp_interval_s)
    archive = obs.outcome.archive
    pairs = sorted(obs.timeline.states)
    for i, pair in enumerate(pairs):
        offset = (i / max(len(pairs), 1)) * interval
        expected = int((horizon - offset) // interval) + 1
        times, _ = archive.series(pair[0], pair[1], Metric.LOSS_RATE)
        if abs(len(times) - expected) > slack_sessions:
            out.append(
                f"{pair[0]}->{pair[1]}: {len(times)} loss samples over "
                f"{horizon:g}s, expected ~{expected} at {interval:g}s "
                "cadence — the mesh went silent")
    return out


def oracle_transfer_terminates(obs: RunObservation) -> List[str]:
    """The DTN probe completes in bounded time or fails taxonomized."""
    record = obs.transfer
    if record is None:
        return []
    out: List[str] = []
    status = record.get("status")
    if status == "completed":
        duration = record.get("duration_s")
        limit = record.get("max_duration_s")
        if not isinstance(duration, (int, float)) or \
                not math.isfinite(float(duration)) or float(duration) <= 0:
            out.append(f"transfer completed with bogus duration "
                       f"{duration!r}")
        elif limit is not None and float(duration) > float(limit):
            out.append(f"transfer took {float(duration):.0f}s, over the "
                       f"{float(limit):.0f}s bound — an effective hang")
    elif status == "failed":
        if not record.get("is_repro_error"):
            out.append(
                f"transfer failed with untyped {record.get('error_type')!r}"
                f": {record.get('error')!r} — errors must be taxonomized "
                "ReproError subclasses")
    else:
        out.append(f"transfer ended in unexpected status {status!r}: "
                   f"{record.get('error')!r}")
    return out


def oracle_cache_bytes_conserved(obs: RunObservation) -> List[str]:
    """Byte conservation across cache tiers (the federation invariant).

    Every delivered byte is served by exactly one tier — a cache or the
    origin — so ``origin_bytes + sum(bytes_served) == delivered_bytes``
    must hold over the exported ledgers, and each cache's own books
    must balance (``hits + misses == requests``, occupancy within
    capacity, ``occupancy == filled - evicted``).  A
    :class:`~repro.devices.faults.CacheAccountingBug` breaks the first
    identity without touching the data path, which is exactly what this
    oracle exists to catch.  Designs without a cache workload vacuously
    pass.
    """
    ledger = obs.caches
    if ledger is None:
        return []
    out: List[str] = []
    delivered = int(ledger["delivered_bytes"])
    origin = int(ledger["origin_bytes"])
    served = sum(int(c["bytes_served"]) for c in ledger["caches"])
    if origin + served != delivered:
        out.append(
            f"bytes not conserved across tiers: origin={origin} + "
            f"cache_served={served} != delivered={delivered} "
            f"(leak of {delivered - origin - served} bytes)")
    for cache in ledger["caches"]:
        name = cache["name"]
        if int(cache["hits"]) + int(cache["misses"]) != \
                int(cache["requests"]):
            out.append(
                f"{name}: hits={cache['hits']} + misses={cache['misses']}"
                f" != requests={cache['requests']}")
        capacity = int(cache["capacity_bytes"])
        for key in ("occupancy_bytes", "peak_occupancy_bytes"):
            if int(cache[key]) > capacity:
                out.append(f"{name}: {key}={cache[key]} exceeds "
                           f"capacity={capacity}")
        filled = int(cache["bytes_filled"])
        evicted = int(cache["bytes_evicted"])
        if evicted > filled:
            out.append(f"{name}: evicted {evicted} bytes but only "
                       f"filled {filled}")
        if int(cache["occupancy_bytes"]) != filled - evicted:
            out.append(
                f"{name}: occupancy={cache['occupancy_bytes']} != "
                f"filled-evicted={filled - evicted}")
    return out


register_oracle(
    "packets-conserved", oracle_packets_conserved,
    description="archived loss rates equal the OWAMP ledger exactly")
register_oracle(
    "event-time-monotonic", oracle_event_time_monotonic,
    description="no series steps backwards in time or escapes the horizon")
register_oracle(
    "throughput-capacity", oracle_throughput_capacity,
    description="no throughput sample exceeds true path capacity")
register_oracle(
    "mathis-ceiling", oracle_mathis_ceiling,
    description="heavy-loss throughput stays within slack of Eq 1")
register_oracle(
    "detection-within-bound", oracle_detection_within_bound,
    description="undeniable lossy faults alert within the bound")
register_oracle(
    "mesh-cadence", oracle_mesh_cadence,
    description="the mesh never goes silent, outages included")
register_oracle(
    "transfer-terminates", oracle_transfer_terminates,
    description="transfers complete or raise taxonomized errors")
register_oracle(
    "cache-bytes-conserved", oracle_cache_bytes_conserved,
    description="origin bytes + cache-served bytes equal delivered bytes")
