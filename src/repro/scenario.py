"""Declarative experiment scenarios.

The monitoring experiments all share a shape: build a design, start a
measurement mesh, schedule some faults and repairs on a timeline, run,
then interrogate the archive.  :class:`Scenario` packages that shape:

>>> from repro.core import simple_science_dmz
>>> from repro.devices.faults import FailingLineCard
>>> from repro.units import minutes
>>> bundle = simple_science_dmz()
>>> scenario = (Scenario(bundle, seed=7)
...             .with_mesh(["dmz-perfsonar", "remote-dtn"])
...             .inject("border", FailingLineCard(), at=minutes(30))
...             .repair_at(minutes(90)))
>>> outcome = scenario.run(until=minutes(120))
>>> bool(outcome.alerts)
True

The outcome bundles the archive, alert list, fault ground truth, and the
detection-latency summary the benches report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .core.designs import DesignBundle
from .devices.faults import FaultInjector, InjectedFault
from .errors import ConfigurationError
from .netsim.engine import Simulator
from .perfsonar.alerts import Alert, AlertRule, ThresholdAlerter
from .perfsonar.archive import MeasurementArchive
from .perfsonar.mesh import MeshConfig, MeshSchedule
from .telemetry import Tracer, ensure_tracer, instrument_topology
from .units import TimeDelta, minutes

__all__ = ["Scenario", "ScenarioOutcome"]


@dataclass
class ScenarioOutcome:
    """Everything a scenario run produced."""

    archive: MeasurementArchive
    alerts: List[Alert]
    faults: List[InjectedFault]
    duration: TimeDelta
    detection_delays: Dict[int, Optional[float]] = field(default_factory=dict)
    # fault index -> seconds from injection to first alert (None = missed)
    #: The tracer the run emitted through (None when tracing was off).
    #: ``trace.events()`` / ``trace.metrics`` / exporters apply directly.
    trace: Optional[Tracer] = None

    def first_alert(self) -> Optional[Alert]:
        return self.alerts[0] if self.alerts else None

    def detected(self, fault_index: int = 0) -> bool:
        return self.detection_delays.get(fault_index) is not None

    def summary(self) -> str:
        lines = [
            f"scenario ran {self.duration.human()}: "
            f"{self.archive.count()} measurements, "
            f"{len(self.alerts)} alerts, {len(self.faults)} faults",
        ]
        for idx, delay in sorted(self.detection_delays.items()):
            fault = self.faults[idx]
            what = getattr(fault.fault, "description",
                           type(fault.fault).__name__)
            if delay is None:
                lines.append(f"  fault #{idx} ({what}): NOT detected")
            else:
                lines.append(
                    f"  fault #{idx} ({what}) on {fault.node_name}: "
                    f"detected {delay / 60:.1f} min after onset")
        return "\n".join(lines)


class Scenario:
    """A timeline of monitoring, faults and repairs over a design bundle.

    Parameters
    ----------
    bundle:
        A built design (from :mod:`repro.core.designs` or your own
        :class:`~repro.core.designs.DesignBundle`).
    seed:
        Root seed for the run's random streams.
    alert_rule:
        Thresholds used when evaluating the outcome; None means the
        default ``AlertRule(loss_rate_threshold=1e-5)``.  (A ``None``
        sentinel, not a default instance: a default constructed in the
        signature would be one shared object mutated across every
        scenario in the process.)
    """

    def __init__(
        self,
        bundle: DesignBundle,
        *,
        seed: int = 0,
        alert_rule: Optional[AlertRule] = None,
    ) -> None:
        self.bundle = bundle
        self.sim = Simulator(seed=seed)
        self.archive = MeasurementArchive()
        self.injector = FaultInjector(self.sim)
        self.alert_rule = (alert_rule if alert_rule is not None
                           else AlertRule(loss_rate_threshold=1e-5))
        self._mesh: Optional[MeshSchedule] = None
        self._pending_faults: List[Tuple[TimeDelta, str, object]] = []
        self._repairs: List[TimeDelta] = []
        self._ran = False

    # -- construction from specs --------------------------------------------------
    @classmethod
    def from_spec(cls, spec) -> "Scenario":
        """Build a scenario from a serializable
        :class:`~repro.experiment.spec.ScenarioSpec`.

        The spec carries only names and scalars; designs and faults are
        resolved through :mod:`repro.experiment.registry`.  Run it with
        ``scenario.run(until=seconds(spec.until_s))`` — or, better, run
        the spec through :func:`repro.experiment.run_experiment`, which
        adds caching and a provenance manifest.
        """
        # Imported lazily: repro.experiment imports this module.
        from .experiment.registry import build_design, build_fault
        from .units import seconds

        bundle = build_design(spec.design)
        rule = AlertRule(
            loss_rate_threshold=spec.alert_rule.loss_rate_threshold,
            throughput_drop_fraction=(
                spec.alert_rule.throughput_drop_fraction),
            latency_rise_fraction=spec.alert_rule.latency_rise_fraction,
            baseline_samples=spec.alert_rule.baseline_samples,
        )
        scenario = cls(bundle, seed=spec.seed, alert_rule=rule)
        hosts = list(spec.mesh.hosts)
        if not hosts:
            hosts = list(bundle.perfsonar) or bundle.dtns[:1]
            hosts = [h for h in hosts if h != bundle.remote_dtn]
            hosts.append(bundle.remote_dtn)
        if len(hosts) < 2:
            raise ConfigurationError(
                f"design {spec.design!r} yields no host pair to mesh; "
                "list mesh hosts explicitly in the spec")
        scenario.with_mesh(hosts, config=MeshConfig(
            owamp_interval=seconds(spec.mesh.owamp_interval_s),
            bwctl_interval=seconds(spec.mesh.bwctl_interval_s),
            bwctl_duration=seconds(spec.mesh.bwctl_duration_s),
            owamp_packets=spec.mesh.owamp_packets,
            algorithm=spec.mesh.algorithm,
        ))
        for fault_spec in spec.faults:
            node = fault_spec.node or bundle.border
            scenario.inject(node,
                            build_fault(fault_spec.kind,
                                        fault_spec.param_mapping()),
                            at=seconds(fault_spec.at_s))
        for repair_s in spec.repairs_s:
            scenario.repair_at(seconds(repair_s))
        for cut in spec.link_cuts:
            scenario.cut_link(cut.a, cut.b, at=seconds(cut.at_s))
        return scenario

    @property
    def mesh(self) -> Optional[MeshSchedule]:
        """The attached measurement mesh (None before ``with_mesh``).

        Exposed so post-run consumers — the chaos invariant oracles in
        particular — can read mesh-side ground truth such as
        :attr:`~repro.perfsonar.mesh.MeshSchedule.packet_ledger` and
        ``unreachable_events``.
        """
        return self._mesh

    # -- builder API -------------------------------------------------------------
    def with_mesh(
        self,
        hosts: Sequence[str],
        *,
        config: Optional[MeshConfig] = None,
    ) -> "Scenario":
        """Attach a regular perfSONAR mesh over ``hosts``."""
        if self._mesh is not None:
            raise ConfigurationError("scenario already has a mesh")
        self._mesh = MeshSchedule(
            self.bundle.topology, list(hosts), self.sim, self.archive,
            config=config or MeshConfig(owamp_interval=minutes(1),
                                        bwctl_interval=minutes(10),
                                        owamp_packets=20_000),
            policy=self.bundle.science_policy,
        )
        return self

    def inject(self, node_name: str, fault, *, at: TimeDelta) -> "Scenario":
        """Schedule a fault on a node at scenario time ``at``."""
        if not self.bundle.topology.has_node(node_name):
            raise ConfigurationError(f"no node {node_name!r} in the design")
        self._pending_faults.append((at, node_name, fault))
        return self

    def repair_at(self, when: TimeDelta) -> "Scenario":
        """Schedule a repair of every then-active fault at ``when``."""
        self._repairs.append(when)
        return self

    def cut_link(self, a: str, b: str, *, at: TimeDelta) -> "Scenario":
        """Schedule a *hard* failure: the link between ``a`` and ``b``
        goes down at ``at`` (a fiber cut, §3.3's contrast to soft
        failures).  The mesh records the outage as 100% loss."""
        topo = self.bundle.topology
        # Validate now so misconfiguration fails at build time.
        topo.link_between(a, b)

        def cut() -> None:
            topo.remove_link(a, b)
            if self.sim.tracer.enabled:
                self.sim.tracer.event("fault", "link-cut", a=a, b=b)
        self.sim.schedule_at(at.s, cut)
        return self

    # -- execution ------------------------------------------------------------------
    def run(self, *, until: TimeDelta, trace=None) -> ScenarioOutcome:
        """Execute the timeline and evaluate the outcome.

        Parameters
        ----------
        until:
            Scenario horizon.
        trace:
            ``True`` for a fresh :class:`~repro.telemetry.Tracer`, or an
            existing tracer (e.g. one with a bounded flight recorder).
            The tracer is attached to the simulator, to every traceable
            device in the design, and rides along on the outcome as
            ``outcome.trace`` for export.
        """
        if self._ran:
            raise ConfigurationError("a Scenario can only run once")
        self._ran = True
        tracer = ensure_tracer(trace)
        if tracer.enabled:
            self.sim.set_tracer(tracer)
            instrument_topology(self.bundle.topology, tracer)
            tracer.event("scenario", "start", t=self.sim.now,
                         design=self.bundle.description,
                         seed=self.sim.seed, until_s=until.s,
                         faults=len(self._pending_faults),
                         repairs=len(self._repairs))
        if self._mesh is None:
            raise ConfigurationError(
                "scenario has no measurement mesh; call with_mesh() — "
                "without measurement there is nothing to observe"
            )
        self._mesh.start()
        topo = self.bundle.topology
        for at, node_name, fault in sorted(self._pending_faults,
                                           key=lambda item: item[0].s):
            self.injector.inject_at(at, topo.node(node_name), fault)
        for when in self._repairs:
            def repair_all() -> None:
                for record in list(self.injector.active_faults()):
                    self.injector.clear(record, topo.node(record.node_name))
            self.sim.schedule_at(when.s, repair_all)

        self.sim.run_until(until.s)

        alerter = ThresholdAlerter(self.archive, self.alert_rule)
        alerts = alerter.scan()
        delays: Dict[int, Optional[float]] = {}
        for idx, fault in enumerate(self.injector.history):
            onset = fault.injected_at
            horizon = fault.cleared_at if fault.cleared_at is not None \
                else until.s
            hits = [a.time for a in alerts if onset <= a.time <= horizon]
            delays[idx] = (min(hits) - onset) if hits else None
        if tracer.enabled:
            for alert in alerts:
                tracer.event("scenario", "alert", t=alert.time,
                             message=alert.message)
            tracer.counter("alerts", component="scenario").inc(len(alerts))
            tracer.event("scenario", "end", t=until.s,
                         measurements=self.archive.count(),
                         alerts=len(alerts),
                         faults=len(self.injector.history),
                         detected=sum(1 for d in delays.values()
                                      if d is not None))
        return ScenarioOutcome(
            archive=self.archive,
            alerts=alerts,
            faults=list(self.injector.history),
            duration=until,
            detection_delays=delays,
            trace=tracer if tracer.enabled else None,
        )
