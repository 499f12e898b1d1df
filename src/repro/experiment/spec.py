"""Serializable experiment specs: a paper figure as one JSON document.

The paper's evaluation is a set of *named, repeatable experiments* —
Figure 1's loss×RTT grid, the §2 soft-failure timeline, the design
audits of Figures 3–8.  An :class:`ExperimentSpec` is the pure-data
description of one such run: what design, what mesh cadence, what
fault/repair timeline (or what sweep grid, or which bench scenarios),
what seed, what horizon.  Nothing executable lives here — a spec is a
value, and the whole layer is built around one invariant::

    ExperimentSpec.from_json(spec.to_json()) == spec        # lossless

Three kinds cover the repo's three historic run shapes:

* ``scenario`` (:class:`ScenarioSpec`) — a :class:`repro.scenario.Scenario`
  timeline: design, mesh, faults, repairs, link cuts, alert thresholds;
* ``sweep`` (:class:`SweepSpec`) — an :func:`repro.analysis.sweep.sweep`
  grid over a *registered* target function (see
  :mod:`repro.experiment.registry`);
* ``bench`` (:class:`BenchSpec`) — a :mod:`repro.bench` timing suite.

The kind registry at the end of this module pairs each kind's class
with the runner and renderer :func:`register_spec_kind` was given; the
built-in runners register from :mod:`repro.experiment.runner`, the
``campaign`` and ``federation`` ones from their own packages.

Specs serialize through the same :func:`repro.exec.seeding.canonical_json`
the result cache keys use, so ``spec.digest()`` is stable across
processes, platforms and ``PYTHONHASHSEED`` — two people holding the
same JSON file hold the same experiment, byte for byte.  Sweep grids
serialize as a *list of pairs* (not an object) because parameter order
defines the grid's column and iteration order and must survive the
canonical encoder's key sorting.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields
from typing import (Callable, ClassVar, Dict, List, Mapping, Optional,
                    Sequence, Tuple, Type)

from ..errors import ConfigurationError
from ..exec.seeding import canonical_json

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "AlertRuleSpec",
    "BenchSpec",
    "ExperimentSpec",
    "FaultSpec",
    "LinkCutSpec",
    "MeshSpec",
    "ScenarioSpec",
    "SpecKind",
    "SweepSpec",
    "load_spec",
    "lazy_spec_kinds",
    "register_spec_kind",
    "registered_spec_kinds",
    "spec_kind",
    "spec_kinds",
]

#: Bumped when the spec layout changes incompatibly.
SPEC_SCHEMA_VERSION = 1


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _tuple_of(values: Optional[Sequence]) -> Tuple:
    return tuple(values) if values is not None else ()


# -- scenario sub-specs -------------------------------------------------------

@dataclass(frozen=True)
class MeshSpec:
    """The perfSONAR mesh of a scenario: who probes whom, how often.

    ``hosts`` may be empty, meaning "derive from the design" (its
    perfSONAR hosts plus the remote DTN, the same rule ``repro trace``
    uses).  Cadences are plain seconds so the spec stays unit-free.
    """

    hosts: Tuple[str, ...] = ()
    owamp_interval_s: float = 60.0
    bwctl_interval_s: float = 600.0
    bwctl_duration_s: float = 10.0
    owamp_packets: int = 20_000
    algorithm: str = "htcp"

    def __post_init__(self) -> None:
        _require(self.owamp_interval_s > 0 and self.bwctl_interval_s > 0,
                 "mesh intervals must be positive")
        _require(self.owamp_packets >= 1, "owamp_packets must be >= 1")

    def to_dict(self) -> Dict[str, object]:
        return {
            "hosts": list(self.hosts),
            "owamp_interval_s": self.owamp_interval_s,
            "bwctl_interval_s": self.bwctl_interval_s,
            "bwctl_duration_s": self.bwctl_duration_s,
            "owamp_packets": self.owamp_packets,
            "algorithm": self.algorithm,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MeshSpec":
        return cls(
            hosts=_tuple_of(data.get("hosts")),
            owamp_interval_s=float(data.get("owamp_interval_s", 60.0)),
            bwctl_interval_s=float(data.get("bwctl_interval_s", 600.0)),
            bwctl_duration_s=float(data.get("bwctl_duration_s", 10.0)),
            owamp_packets=int(data.get("owamp_packets", 20_000)),
            algorithm=str(data.get("algorithm", "htcp")),
        )


@dataclass(frozen=True)
class FaultSpec:
    """One soft failure on the timeline.

    ``kind`` names an entry in :data:`repro.experiment.registry.FAULTS`
    (``linecard``, ``optics``, ``cpu``, ``duplex``); ``params`` are the
    registry builder's keyword arguments, JSON scalars only.  ``node``
    of None means "the design's border router" — the §2 incident site.
    """

    kind: str
    at_s: float
    node: Optional[str] = None
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        _require(bool(self.kind), "fault kind must be non-empty")
        _require(self.at_s >= 0, "fault at_s must be >= 0")

    def param_mapping(self) -> Dict[str, object]:
        return dict(self.params)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "at_s": self.at_s,
            "node": self.node,
            "params": {k: v for k, v in self.params},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultSpec":
        params = data.get("params") or {}
        return cls(
            kind=str(data["kind"]),
            at_s=float(data["at_s"]),
            node=data.get("node"),
            params=tuple(sorted(params.items())),
        )


@dataclass(frozen=True)
class LinkCutSpec:
    """A §3.3 *hard* failure: the a—b link goes down at ``at_s``."""

    a: str
    b: str
    at_s: float

    def to_dict(self) -> Dict[str, object]:
        return {"a": self.a, "b": self.b, "at_s": self.at_s}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "LinkCutSpec":
        return cls(a=str(data["a"]), b=str(data["b"]),
                   at_s=float(data["at_s"]))


@dataclass(frozen=True)
class AlertRuleSpec:
    """Thresholds for the outcome's :class:`~repro.perfsonar.alerts.AlertRule`."""

    loss_rate_threshold: float = 1e-5
    throughput_drop_fraction: float = 0.5
    latency_rise_fraction: float = 0.5
    baseline_samples: int = 3

    def to_dict(self) -> Dict[str, object]:
        return {
            "loss_rate_threshold": self.loss_rate_threshold,
            "throughput_drop_fraction": self.throughput_drop_fraction,
            "latency_rise_fraction": self.latency_rise_fraction,
            "baseline_samples": self.baseline_samples,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "AlertRuleSpec":
        return cls(
            loss_rate_threshold=float(data.get("loss_rate_threshold", 1e-5)),
            throughput_drop_fraction=float(
                data.get("throughput_drop_fraction", 0.5)),
            latency_rise_fraction=float(
                data.get("latency_rise_fraction", 0.5)),
            baseline_samples=int(data.get("baseline_samples", 3)),
        )


# -- the spec kinds -----------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """Base of all spec kinds: identity, seed, provenance helpers.

    Subclasses set ``kind`` (a class attribute, serialized into the
    JSON) and implement ``_payload_dict``/``_from_payload``.
    """

    kind: ClassVar[str] = ""

    name: str
    seed: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        _require(bool(self.name), "spec name must be non-empty")

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The full JSON-ready representation (schema + kind included)."""
        out: Dict[str, object] = {
            "schema": SPEC_SCHEMA_VERSION,
            "kind": self.kind,
            "name": self.name,
            "seed": self.seed,
            "description": self.description,
        }
        out.update(self._payload_dict())
        return out

    def to_json(self) -> str:
        """Canonical (sorted-key, whitespace-free) JSON for this spec."""
        return canonical_json(self.to_dict())

    def digest(self) -> str:
        """sha256 of :meth:`to_json` — the spec's identity everywhere."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def save(self, path: os.PathLike | str) -> str:
        """Write the spec as human-diffable JSON; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return os.fspath(path)

    # -- parsing --------------------------------------------------------------
    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "ExperimentSpec":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"a spec must be a JSON object, got {type(data).__name__}")
        schema = data.get("schema")
        if schema != SPEC_SCHEMA_VERSION:
            raise ConfigurationError(
                f"spec has schema {schema!r}; this library speaks "
                f"schema {SPEC_SCHEMA_VERSION}")
        return spec_kind(data.get("kind")).cls._from_payload(data)

    @staticmethod
    def from_json(text: str) -> "ExperimentSpec":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"spec is not valid JSON: {exc}")
        return ExperimentSpec.from_dict(data)

    @staticmethod
    def from_file(path: os.PathLike | str) -> "ExperimentSpec":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigurationError(f"cannot read spec {path!r}: {exc}")
        return ExperimentSpec.from_json(text)

    def points(self) -> Optional[int]:
        """Progress units a run reports, when the kind knows up front."""
        return None

    # -- subclass hooks -------------------------------------------------------
    def _payload_dict(self) -> Dict[str, object]:
        raise NotImplementedError

    @classmethod
    def _from_payload(cls, data: Mapping[str, object]) -> "ExperimentSpec":
        raise NotImplementedError


@dataclass(frozen=True)
class ScenarioSpec(ExperimentSpec):
    """A declarative monitoring scenario (the §2 timeline as data)."""

    kind: ClassVar[str] = "scenario"

    design: str = "simple-science-dmz"
    until_s: float = 5400.0
    mesh: MeshSpec = field(default_factory=MeshSpec)
    faults: Tuple[FaultSpec, ...] = ()
    repairs_s: Tuple[float, ...] = ()
    link_cuts: Tuple[LinkCutSpec, ...] = ()
    alert_rule: AlertRuleSpec = field(default_factory=AlertRuleSpec)

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.until_s > 0, "scenario horizon until_s must be > 0")
        for fault in self.faults:
            _require(fault.at_s < self.until_s,
                     f"fault at t={fault.at_s}s is not before the "
                     f"horizon {self.until_s}s")

    def points(self) -> int:
        return 1

    def _payload_dict(self) -> Dict[str, object]:
        return {
            "design": self.design,
            "until_s": self.until_s,
            "mesh": self.mesh.to_dict(),
            "faults": [f.to_dict() for f in self.faults],
            "repairs_s": list(self.repairs_s),
            "link_cuts": [c.to_dict() for c in self.link_cuts],
            "alert_rule": self.alert_rule.to_dict(),
        }

    @classmethod
    def _from_payload(cls, data: Mapping[str, object]) -> "ScenarioSpec":
        return cls(
            name=str(data["name"]),
            seed=int(data.get("seed", 0)),
            description=str(data.get("description", "")),
            design=str(data.get("design", "simple-science-dmz")),
            until_s=float(data.get("until_s", 5400.0)),
            mesh=MeshSpec.from_dict(data.get("mesh") or {}),
            faults=tuple(FaultSpec.from_dict(f)
                         for f in data.get("faults") or ()),
            repairs_s=tuple(float(r) for r in data.get("repairs_s") or ()),
            link_cuts=tuple(LinkCutSpec.from_dict(c)
                            for c in data.get("link_cuts") or ()),
            alert_rule=AlertRuleSpec.from_dict(data.get("alert_rule") or {}),
        )


@dataclass(frozen=True)
class SweepSpec(ExperimentSpec):
    """A parameter grid over a registered target function.

    ``grid`` is an *ordered* sequence of ``(param_name, values)`` pairs —
    order defines column and iteration order, exactly as
    :func:`repro.analysis.sweep.sweep` treats its mapping argument.  Use
    :meth:`from_grid` to build one from a plain dict.  When ``seeded``
    is true, every grid point receives a derived per-point seed (from
    this spec's ``seed`` via :func:`repro.exec.seeding.derive_seed`) as
    keyword ``seed``.
    """

    kind: ClassVar[str] = "sweep"

    target: str = ""
    grid: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    value_label: str = "value"
    on_error: str = "raise"
    seeded: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(bool(self.target), "sweep spec needs a target name")
        _require(len(self.grid) > 0, "sweep spec needs at least one "
                                     "grid parameter")
        _require(self.on_error in ("raise", "record"),
                 f"on_error must be 'raise' or 'record', "
                 f"got {self.on_error!r}")
        seen = set()
        for param, values in self.grid:
            _require(param not in seen,
                     f"duplicate grid parameter {param!r}")
            seen.add(param)
            _require(len(values) > 0,
                     f"grid parameter {param!r} has no values")

    @classmethod
    def from_grid(cls, grid: Mapping[str, Sequence[object]],
                  **kwargs) -> "SweepSpec":
        """Build a spec from a plain ``{param: [values...]}`` mapping."""
        return cls(grid=tuple((str(k), tuple(v)) for k, v in grid.items()),
                   **kwargs)

    def grid_mapping(self) -> Dict[str, List[object]]:
        """The grid as the ordered mapping ``sweep()`` consumes."""
        return {param: list(values) for param, values in self.grid}

    def points(self) -> int:
        """Number of grid points (product of dimension sizes)."""
        total = 1
        for _, values in self.grid:
            total *= len(values)
        return total

    def _payload_dict(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "grid": [[param, list(values)] for param, values in self.grid],
            "value_label": self.value_label,
            "on_error": self.on_error,
            "seeded": self.seeded,
        }

    @classmethod
    def _from_payload(cls, data: Mapping[str, object]) -> "SweepSpec":
        raw_grid = data.get("grid") or ()
        if isinstance(raw_grid, Mapping):
            # Accept object form for hand-written files, though the
            # canonical encoding is the order-preserving pair list.
            pairs = list(raw_grid.items())
        else:
            pairs = [(p, v) for p, v in raw_grid]
        return cls(
            name=str(data["name"]),
            seed=int(data.get("seed", 0)),
            description=str(data.get("description", "")),
            target=str(data.get("target", "")),
            grid=tuple((str(p), tuple(v)) for p, v in pairs),
            value_label=str(data.get("value_label", "value")),
            on_error=str(data.get("on_error", "raise")),
            seeded=bool(data.get("seeded", False)),
        )


@dataclass(frozen=True)
class BenchSpec(ExperimentSpec):
    """A :mod:`repro.bench` timing suite: which pinned scenarios, how.

    ``scenarios`` of ``()`` means "every registered scenario".  Note the
    timings a bench produces are inherently machine-dependent; the
    manifest records them outside its deterministic core.
    """

    kind: ClassVar[str] = "bench"

    scenarios: Tuple[str, ...] = ()
    repeats: int = 3
    quick: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.repeats >= 1, "bench repeats must be >= 1")

    def _payload_dict(self) -> Dict[str, object]:
        return {
            "scenarios": list(self.scenarios),
            "repeats": self.repeats,
            "quick": self.quick,
        }

    @classmethod
    def _from_payload(cls, data: Mapping[str, object]) -> "BenchSpec":
        return cls(
            name=str(data["name"]),
            seed=int(data.get("seed", 0)),
            description=str(data.get("description", "")),
            scenarios=_tuple_of(data.get("scenarios")),
            repeats=int(data.get("repeats", 3)),
            quick=bool(data.get("quick", False)),
        )


@dataclass(frozen=True)
class SpecKind:
    """A registered spec kind: its class, its runner, its renderer.

    ``run(spec, ctx, version)`` executes a spec and returns a
    :class:`~repro.experiment.runner.RunOutput`.  ``render(result)``
    returns the text ``repro run`` prints for a
    :class:`~repro.experiment.runner.RunResult` ahead of its summary
    lines (a sweep's table, a campaign's report); None prints the
    summary lines alone.
    """

    cls: Type[ExperimentSpec]
    run: Callable
    render: Optional[Callable] = None


_KINDS: Dict[str, SpecKind] = {}

#: Kinds defined by optional subsystems, resolved on first use so this
#: package never imports them eagerly (repro.chaos imports
#: repro.experiment; the reverse edge would be a cycle).  Importing the
#: named module must call :func:`register_spec_kind` as a side effect.
_LAZY_KINDS: Dict[str, str] = {
    "campaign": "repro.chaos",
    "federation": "repro.federation",
}


def register_spec_kind(cls: Type[ExperimentSpec], run: Callable,
                       render: Optional[Callable] = None) -> SpecKind:
    """Register a spec kind: its class, its runner, its renderer.

    The one registration every kind goes through, built-in or not: it
    makes ``cls.kind`` parseable by :meth:`ExperimentSpec.from_dict` and
    runnable by :func:`~repro.experiment.run_experiment` (and so by
    ``repro run`` / ``repro serve``).  Re-registering the same class
    replaces its runner and renderer; registering a *different* class
    under a taken kind raises.
    """
    kind = cls.kind
    if not kind:
        raise ConfigurationError(
            f"{cls.__name__} has no 'kind' class attribute to register")
    existing = _KINDS.get(kind)
    if existing is not None and existing.cls is not cls:
        raise ConfigurationError(
            f"spec kind {kind!r} is already registered to "
            f"{existing.cls.__name__}")
    _KINDS[kind] = SpecKind(cls=cls, run=run, render=render)
    return _KINDS[kind]


def spec_kind(kind: object) -> SpecKind:
    """The registration for ``kind``, imported on first use if lazy.

    Raises :class:`~repro.errors.ConfigurationError` naming the known
    kinds when there is none.
    """
    if kind not in _KINDS and kind in _LAZY_KINDS:
        import importlib

        importlib.import_module(_LAZY_KINDS[kind])
    if kind not in _KINDS:
        raise ConfigurationError(
            f"unknown spec kind {kind!r}; known kinds: "
            f"{', '.join(spec_kinds())}")
    return _KINDS[kind]


def spec_kinds() -> Tuple[str, ...]:
    """Every parseable spec kind, lazy ones included (sorted)."""
    return tuple(sorted(set(_KINDS) | set(_LAZY_KINDS)))


def registered_spec_kinds() -> Tuple[str, ...]:
    """Kinds whose classes are already imported (sorted)."""
    return tuple(sorted(_KINDS))


def lazy_spec_kinds() -> Tuple[str, ...]:
    """Kinds that would import their provider module on first parse
    (sorted).  Callers that only need to *list* specs can treat these
    from the raw JSON instead of parsing, keeping listing side-effect
    free (see ``repro specs``)."""
    return tuple(sorted(set(_LAZY_KINDS) - set(_KINDS)))


def load_spec(path: os.PathLike | str) -> ExperimentSpec:
    """Alias for :meth:`ExperimentSpec.from_file` (reads better at call
    sites: ``spec = load_spec("specs/linecard_softfail.json")``)."""
    return ExperimentSpec.from_file(path)
