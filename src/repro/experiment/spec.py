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

Every spec dataclass, of every kind and package, reads and writes JSON
through one codec driven by its field types (:class:`SpecRecord`).

Specs serialize through the same :func:`repro.exec.seeding.canonical_json`
the result cache keys use, so ``spec.digest()`` is stable across
processes, platforms and ``PYTHONHASHSEED`` — two people holding the
same JSON file hold the same experiment, byte for byte.  Sweep grids
serialize as a *list of pairs* (not an object) because parameter order
defines the grid's column and iteration order and must survive the
canonical encoder's key sorting.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields
from itertools import cycle
from types import NoneType
from typing import (Callable, ClassVar, Dict, List, Optional, Sequence,
                    Tuple, Type, Union, get_args, get_origin, get_type_hints)

from ..errors import ConfigurationError
from ..exec.seeding import canonical_json

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "AlertRuleSpec",
    "BenchSpec",
    "ExperimentSpec",
    "FaultSpec",
    "LinkCutSpec",
    "MAX_MESH_SESSIONS",
    "MeshSpec",
    "ScenarioSpec",
    "SpecKind",
    "SpecRecord",
    "SweepSpec",
    "decode_value",
    "load_spec",
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


# -- the codec ----------------------------------------------------------------

#: Field metadata for pair fields: ``AS_OBJECT`` (keyword params) is a
#: JSON object stored sorted, ``OBJECT_OR_PAIRS`` (a sweep grid) a pair
#: list kept in order, also read from an object in its key order.
AS_OBJECT = {"json": "object"}
OBJECT_OR_PAIRS = {"json": "object-or-pairs"}


def _at(path: str, message: str) -> str:
    return f"{path}: {message}" if path else message


def _wrong(path: str, expected: str, value: object) -> ConfigurationError:
    shown = json.dumps(value, default=repr)
    shown = shown if len(shown) <= 40 else shown[:37] + "..."
    return ConfigurationError(_at(path, f"expected {expected}, got {shown}"))


def _same(value: object) -> object:
    return value


#: The JSON leaf types: how to test a value, what the error expected.
_LEAVES = {
    str: (lambda v: isinstance(v, str), "a string"),
    bool: (lambda v: v is True or v is False, "true or false"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool),
          "an integer"),
    # abs() compares a huge int exactly, and is False for NaN.
    float: (lambda v: isinstance(v, (int, float))
            and not isinstance(v, bool) and abs(v) <= sys.float_info.max,
            "a number"),
    object: (lambda v: v is None or isinstance(v, (str, int, float)),
             "a JSON scalar"),
}


@functools.cache
def _rules(tp: object,
           how: Optional[str] = None) -> Tuple[Callable, Callable]:
    """``(decode, encode)`` for a field of type ``tp``: ``decode(value,
    path)`` reads JSON, ``encode(value)`` writes it."""
    if how == "object":
        (key, _), (item, _) = map(_rules, get_args(get_args(tp)[0]))

        def decode_object(value, path):
            if not isinstance(value, Mapping):
                raise _wrong(path, "an object", value)
            return tuple(sorted((key(k, path), item(v, f"{path}.{k}"))
                                for k, v in value.items()))
        return decode_object, dict
    if how == "object-or-pairs":
        pairs, encode = _rules(tp)
        return (lambda value, path: pairs(list(value.items()) if isinstance(
            value, Mapping) else value, path)), encode
    if tp in _LEAVES:
        fits, expected = _LEAVES[tp]
        convert = float if tp is float else _same

        def decode_leaf(value, path):
            if fits(value):
                return convert(value)
            raise _wrong(path, expected, value)
        return decode_leaf, convert
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:  # Optional[X], the one place null is read
        decode, encode = _rules(next(a for a in args if a is not NoneType))
        return ((lambda value, path: None if value is None
                 else decode(value, path)),
                lambda value: None if value is None else encode(value))
    if origin is tuple:
        # Tuple[X, ...] is a list of any length; Tuple[X, Y] of two.
        rules = [_rules(a) for a in args if a is not Ellipsis]
        size = None if args[-1] is Ellipsis else len(rules)
        # A list of leaves is checked in one pass and copied whole; the
        # item-by-item pass below then runs only to name a bad item.
        fits = None if size else _LEAVES.get(args[0], (None,))[0]
        convert = rules[0][1]

        def decode_list(value, path):
            if not isinstance(value, (list, tuple)) or (
                    size is not None and len(value) != size):
                raise _wrong(path, f"a list of {size}" if size else "a list",
                             value)
            if fits is not None and all(map(fits, value)):
                return tuple(value if convert is _same
                             else map(convert, value))
            return tuple([d(v, f"{path}[{i}]") for i, ((d, _), v)
                          in enumerate(zip(cycle(rules), value))])
        if fits is not None:
            return decode_list, (list if convert is _same else
                                 lambda value: list(map(convert, value)))
        return decode_list, lambda value: [e(v) for (_, e), v
                                           in zip(cycle(rules), value)]
    if isinstance(tp, type) and issubclass(tp, SpecRecord):
        return _record(tp)
    raise TypeError(f"no spec codec rule for field type {tp!r}")


def _record(cls: type) -> Tuple[Callable, Callable]:
    """``(decode, encode)`` for a :class:`SpecRecord` class, built once
    from its type hints."""
    hints = get_type_hints(cls)
    rules = [(f.name, *_rules(hints[f.name], f.metadata.get("json")))
             for f in fields(cls)]
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]
    header = ({"schema": SPEC_SCHEMA_VERSION, "kind": cls.kind}
              if issubclass(cls, ExperimentSpec) else {})
    keys = {name for name, _, _ in rules} | header.keys()

    def decode(data, path):
        if not isinstance(data, Mapping):
            raise _wrong(path, "an object", data)
        if not keys.issuperset(data):
            raise ConfigurationError(_at(path, "unknown field " + ", ".join(
                sorted(repr(k) for k in data.keys() - keys))))
        kwargs = {name: rule(data[name], f"{path}.{name}" if path else name)
                  for name, rule, _ in rules if name in data}
        for name in required:
            if name not in kwargs:
                raise ConfigurationError(
                    _at(path, f"missing required field {name!r}"))
        try:
            return cls(**kwargs)
        except ConfigurationError as exc:
            raise ConfigurationError(_at(path, str(exc))) from None

    def encode(obj):
        return {name: rule(getattr(obj, name))
                for name, _, rule in rules} | header
    return decode, encode


def decode_value(tp: object, value: object, path: str = "") -> object:
    """``value`` read as a ``tp`` field; a ConfigurationError names
    ``path`` when its JSON type does not fit."""
    return _rules(tp)[0](value, path)


class SpecRecord:
    """A frozen spec dataclass that reads and writes itself as JSON.

    Both directions follow the dataclass's field types, by the rules in
    ``docs/experiments.md`` ("JSON type rules").
    """

    def to_dict(self) -> Dict[str, object]:
        """The JSON-ready form; a spec kind's has ``schema`` and ``kind``."""
        return _rules(type(self))[1](self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]):
        """Parse a JSON object; raises a path-named ConfigurationError."""
        return _rules(cls)[0](data, "")


# -- scenario sub-specs -------------------------------------------------------

#: Most OWAMP plus BWCTL sessions one host pair may run over a
#: scenario's or campaign's horizon (``until_s / owamp_interval_s +
#: until_s / bwctl_interval_s``).  The committed specs need at most 99
#: (``linecard_softfail.json``: 5400 s at 60 s and 600 s); the limit
#: leaves ten times that.
MAX_MESH_SESSIONS = 1000


@dataclass(frozen=True)
class MeshSpec(SpecRecord):
    """The perfSONAR mesh of a scenario: who probes whom, how often.

    ``hosts`` may be empty, meaning the design's perfSONAR hosts (or
    its first DTN) plus the remote DTN.  Cadences are unit-free seconds.
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
        _require(self.bwctl_interval_s >= self.bwctl_duration_s,
                 f"bwctl_interval_s {self.bwctl_interval_s:g} is shorter "
                 f"than bwctl_duration_s {self.bwctl_duration_s:g}: a "
                 f"pair's BWCTL tests must not overlap")

    def check_horizon(self, until_s: float) -> None:
        """Reject a cadence that would schedule more than
        :data:`MAX_MESH_SESSIONS` tests per host pair before ``until_s``.

        A run's work grows as horizon over interval, so without a bound
        a small interval makes ``repro run`` (or a ``repro serve``
        worker) run for as long as it was asked to.
        """
        sessions = (until_s / self.owamp_interval_s
                    + until_s / self.bwctl_interval_s)
        _require(sessions <= MAX_MESH_SESSIONS,
                 f"mesh: {sessions:.0f} OWAMP + BWCTL sessions per host "
                 f"pair over until_s={until_s:g} exceed the limit of "
                 f"{MAX_MESH_SESSIONS}; lengthen owamp_interval_s or "
                 f"bwctl_interval_s")


@dataclass(frozen=True)
class FaultSpec(SpecRecord):
    """One soft failure on the timeline.

    ``kind`` names an entry in :data:`repro.experiment.registry.FAULTS`
    (``linecard``, ``optics``, ``cpu``, ``duplex``); ``params`` are the
    registry builder's keyword arguments, JSON scalars only.  ``node``
    of None means "the design's border router" — the §2 incident site.
    """

    kind: str
    at_s: float
    node: Optional[str] = None
    params: Tuple[Tuple[str, object], ...] = field(default=(),
                                                   metadata=AS_OBJECT)

    def __post_init__(self) -> None:
        _require(bool(self.kind), "fault kind must be non-empty")
        _require(self.at_s >= 0, "fault at_s must be >= 0")

    def param_mapping(self) -> Dict[str, object]:
        return dict(self.params)


@dataclass(frozen=True)
class LinkCutSpec(SpecRecord):
    """A §3.3 *hard* failure: the a—b link goes down at ``at_s``."""

    a: str
    b: str
    at_s: float


@dataclass(frozen=True)
class AlertRuleSpec(SpecRecord):
    """Thresholds for the outcome's :class:`~repro.perfsonar.alerts.AlertRule`."""

    loss_rate_threshold: float = 1e-5
    throughput_drop_fraction: float = 0.5
    latency_rise_fraction: float = 0.5
    baseline_samples: int = 3


# -- the spec kinds -----------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec(SpecRecord):
    """Base of all spec kinds: identity, seed, provenance helpers.

    Subclasses set ``kind`` (a class attribute, serialized into the
    JSON next to ``schema``) and declare their payload as typed fields;
    the codec reads and writes them.
    """

    kind: ClassVar[str] = ""

    name: str
    seed: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        _require(bool(self.name), "spec name must be non-empty")
        _require(self.seed >= 0, f"seed must be >= 0, got {self.seed}")

    # -- serialization --------------------------------------------------------
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
            raise _wrong("", "a spec object", data)
        schema = data.get("schema")
        if type(schema) is not int or schema != SPEC_SCHEMA_VERSION:
            raise ConfigurationError(
                f"spec has schema {schema!r}; this library speaks "
                f"schema {SPEC_SCHEMA_VERSION}")
        return _rules(spec_kind(data.get("kind")).cls)[0](data, "")

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
        self.mesh.check_horizon(self.until_s)
        # An event at or after the horizon fires at its very end or never.
        for name, times in (("faults", [f.at_s for f in self.faults]),
                            ("repairs_s", self.repairs_s),
                            ("link_cuts", [c.at_s for c in self.link_cuts])):
            for i, at_s in enumerate(times):
                _require(0 <= at_s < self.until_s,
                         f"{name}[{i}]: t={at_s}s is negative or not "
                         f"before the horizon {self.until_s}s")

    def points(self) -> int:
        return 1


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
    grid: Tuple[Tuple[str, Tuple[object, ...]], ...] = field(
        default=(), metadata=OBJECT_OR_PAIRS)
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


@dataclass(frozen=True)
class BenchSpec(ExperimentSpec):
    """A :mod:`repro.bench` timing suite: which pinned scenarios, how.

    ``scenarios`` of ``()`` means "every registered scenario"; an
    unregistered name is rejected here.  Note the timings a bench
    produces are inherently machine-dependent; the manifest records them
    outside its deterministic core.
    """

    kind: ClassVar[str] = "bench"

    scenarios: Tuple[str, ...] = ()
    repeats: int = 3
    quick: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.repeats >= 1, "bench repeats must be >= 1")
        from ..bench import select  # a leaf module, loaded on demand

        select(self.scenarios)


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
    if isinstance(kind, str) and kind not in _KINDS and kind in _LAZY_KINDS:
        import importlib

        importlib.import_module(_LAZY_KINDS[kind])
    if not isinstance(kind, str) or kind not in _KINDS:
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


def load_spec(path: os.PathLike | str) -> ExperimentSpec:
    """Alias for :meth:`ExperimentSpec.from_file` (reads better at call
    sites: ``spec = load_spec("specs/linecard_softfail.json")``)."""
    return ExperimentSpec.from_file(path)
