"""Spec-layer contract: lossless JSON round-trip, stable digests,
helpful parse errors.

The whole experiment layer rests on one invariant —
``ExperimentSpec.from_json(spec.to_json()) == spec`` — so it is tested
property-style over generated specs of every kind.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import SCENARIOS as BENCH_SCENARIOS
from repro.errors import ConfigurationError
from repro.experiment import (
    MAX_MESH_SESSIONS,
    SPEC_SCHEMA_VERSION,
    AlertRuleSpec,
    BenchSpec,
    ExperimentSpec,
    FaultSpec,
    LinkCutSpec,
    MeshSpec,
    ScenarioSpec,
    SweepSpec,
    load_spec,
)

# -- strategies ---------------------------------------------------------------

names = st.text(alphabet="abcdefghij-_0123456789", min_size=1, max_size=20)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
#: Float fields also take JSON ints (written back as floats).
seconds_values = st.one_of(
    st.floats(min_value=1.0, max_value=100_000.0, allow_nan=False,
              allow_infinity=False),
    st.integers(min_value=1, max_value=100_000))


@st.composite
def mesh_specs(draw):
    # A pair's BWCTL tests may not overlap: interval >= duration.
    duration = draw(seconds_values)
    return MeshSpec(
        hosts=tuple(draw(st.lists(names, max_size=3))),
        owamp_interval_s=draw(seconds_values),
        bwctl_interval_s=draw(seconds_values.filter(lambda v: v >= duration)
                              | st.just(duration)),
        bwctl_duration_s=duration,
        owamp_packets=draw(st.integers(min_value=1, max_value=100_000)),
        algorithm=draw(st.sampled_from(["reno", "htcp", "cubic"])),
    )


def event_times(horizon):
    """Timeline times a scenario with this horizon accepts (as JSON
    ints too, like ``seconds_values``)."""
    return st.one_of(
        st.floats(min_value=0.0, max_value=horizon - 1.0, allow_nan=False),
        st.integers(min_value=0, max_value=int(horizon) - 1))


@st.composite
def fault_specs(draw, horizon):
    return FaultSpec(
        kind=draw(st.sampled_from(["linecard", "optics", "cpu", "duplex"])),
        at_s=draw(event_times(horizon)),
        node=draw(st.one_of(st.none(), names)),
        params=tuple(sorted(draw(st.dictionaries(
            st.sampled_from(["loss_rate", "cpu_mbps"]),
            st.floats(min_value=0.001, max_value=1000.0, allow_nan=False),
            max_size=2)).items())),
    )


@st.composite
def scenario_specs(draw):
    mesh = draw(mesh_specs())
    # The horizon holds at most MAX_MESH_SESSIONS tests per host pair
    # (intervals are >= 1 s, so the bound is never below 500 s).
    per_s = 1.0 / mesh.owamp_interval_s + 1.0 / mesh.bwctl_interval_s
    longest = min(100_000.0, MAX_MESH_SESSIONS / per_s * (1 - 1e-9))
    until = draw(st.one_of(
        st.floats(min_value=60.0, max_value=longest, allow_nan=False),
        st.integers(min_value=60, max_value=int(longest))))
    return ScenarioSpec(
        name=draw(names),
        seed=draw(seeds),
        description=draw(st.text(max_size=30)),
        design=draw(st.sampled_from(
            ["simple-science-dmz", "big-data-site", "colorado-campus"])),
        until_s=until,
        mesh=mesh,
        faults=tuple(draw(st.lists(fault_specs(until), max_size=3))),
        repairs_s=tuple(draw(st.lists(event_times(until), max_size=2))),
        link_cuts=tuple(
            LinkCutSpec(a=draw(names), b=draw(names),
                        at_s=draw(event_times(until)))
            for _ in range(draw(st.integers(min_value=0, max_value=2)))),
        alert_rule=AlertRuleSpec(
            loss_rate_threshold=draw(st.floats(min_value=1e-9, max_value=0.5,
                                               allow_nan=False))),
    )


grid_values = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False,
              allow_infinity=False),
    st.booleans(),
    st.text(alphabet="abcxyz", max_size=5),
)


@st.composite
def sweep_specs(draw):
    params = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    grid = tuple(
        (p, tuple(draw(st.lists(grid_values, min_size=1, max_size=3))))
        for p in params)
    return SweepSpec(
        name=draw(names),
        seed=draw(seeds),
        description=draw(st.text(max_size=30)),
        target=draw(names),
        grid=grid,
        value_label=draw(st.sampled_from(["value", "bps", "gbps"])),
        on_error=draw(st.sampled_from(["raise", "record"])),
        seeded=draw(st.booleans()),
    )


@st.composite
def bench_specs(draw):
    return BenchSpec(
        name=draw(names),
        seed=draw(seeds),
        description=draw(st.text(max_size=30)),
        scenarios=tuple(draw(st.lists(
            st.sampled_from(sorted(BENCH_SCENARIOS)), max_size=3))),
        repeats=draw(st.integers(min_value=1, max_value=10)),
        quick=draw(st.booleans()),
    )


any_spec = st.one_of(scenario_specs(), sweep_specs(), bench_specs())


# -- the core invariant -------------------------------------------------------

class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(spec=any_spec)
    def test_json_round_trip_is_identity(self, spec):
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec
        assert again.digest() == spec.digest()

    @settings(max_examples=30, deadline=None)
    @given(spec=any_spec)
    def test_digest_stable_across_round_trip(self, spec):
        again = ExperimentSpec.from_json(spec.to_json())
        assert again.digest() == spec.digest()
        assert again.to_json() == spec.to_json()

    @settings(max_examples=30, deadline=None)
    @given(spec=sweep_specs())
    def test_sweep_grid_order_survives(self, spec):
        """canonical_json sorts object keys; grid order must not care."""
        again = ExperimentSpec.from_json(spec.to_json())
        assert [p for p, _ in again.grid] == [p for p, _ in spec.grid]

    def test_save_and_load_file(self, tmp_path):
        spec = ScenarioSpec(name="file-trip", seed=9,
                            faults=(FaultSpec(kind="linecard", at_s=60.0),))
        path = spec.save(tmp_path / "s.json")
        assert load_spec(path) == spec
        # The file form is human-diffable (indented, sorted, newline).
        text = (tmp_path / "s.json").read_text()
        assert text.startswith("{\n") and text.endswith("\n")
        assert json.loads(text)["schema"] == SPEC_SCHEMA_VERSION


class TestSweepSpecHelpers:
    def test_from_grid_preserves_order(self):
        spec = SweepSpec.from_grid({"b": [1], "a": [2, 3]},
                                   name="g", target="t")
        assert [p for p, _ in spec.grid] == ["b", "a"]
        assert spec.grid_mapping() == {"b": [1], "a": [2, 3]}
        assert spec.points() == 2

    def test_reordered_grid_changes_digest(self):
        one = SweepSpec.from_grid({"a": [1], "b": [2]}, name="g", target="t")
        two = SweepSpec.from_grid({"b": [2], "a": [1]}, name="g", target="t")
        assert one.digest() != two.digest()


class TestValidation:
    def test_unknown_kind_rejected(self):
        data = {"schema": SPEC_SCHEMA_VERSION, "kind": "mystery", "name": "x"}
        with pytest.raises(ConfigurationError, match="unknown spec kind"):
            ExperimentSpec.from_dict(data)

    def test_wrong_schema_rejected(self):
        data = {"schema": 999, "kind": "scenario", "name": "x"}
        with pytest.raises(ConfigurationError, match="schema"):
            ExperimentSpec.from_dict(data)

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            ExperimentSpec.from_json("{nope")

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot read"):
            ExperimentSpec.from_file("/nonexistent/spec.json")

    def test_fault_after_horizon_rejected(self):
        with pytest.raises(ConfigurationError, match="not before"):
            ScenarioSpec(name="x", until_s=100.0,
                         faults=(FaultSpec(kind="linecard", at_s=200.0),))

    def test_empty_sweep_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="grid"):
            SweepSpec(name="x", target="t", grid=())

    def test_duplicate_grid_param_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            SweepSpec(name="x", target="t",
                      grid=(("a", (1,)), ("a", (2,))))

    def test_bad_on_error_rejected(self):
        with pytest.raises(ConfigurationError, match="on_error"):
            SweepSpec(name="x", target="t", grid=(("a", (1,)),),
                      on_error="explode")

    def test_object_form_grid_accepted(self):
        """Hand-written files may use {param: values} for the grid."""
        data = {"schema": SPEC_SCHEMA_VERSION, "kind": "sweep",
                "name": "hand", "target": "mathis",
                "grid": {"rtt_ms": [1, 10]}}
        spec = ExperimentSpec.from_dict(data)
        assert spec.grid == (("rtt_ms", (1, 10)),)


def scenario_doc(**payload):
    return dict({"schema": SPEC_SCHEMA_VERSION, "kind": "scenario",
                 "name": "x"}, **payload)


class TestCodec:
    """The type-driven codec: strict JSON types, path-named errors."""

    @pytest.mark.parametrize("payload, message", [
        ({"seed": 1.5}, "seed: expected an integer, got 1.5"),
        ({"seed": True}, "seed: expected an integer, got true"),
        ({"description": 1.5}, "description: expected a string, got 1.5"),
        ({"until_s": "x"}, 'until_s: expected a number, got "x"'),
        ({"until_s": None}, "until_s: expected a number, got null"),
        ({"mesh": {"hosts": "dtn1"}},
         'mesh.hosts: expected a list, got "dtn1"'),
        ({"mesh": {"owamp_intervall_s": 5}},
         "mesh: unknown field 'owamp_intervall_s'"),
        ({"faults": [{"kind": "linecard", "at_s": "x"}]},
         'faults[0].at_s: expected a number, got "x"'),
        ({"faults": [{"kind": "linecard"}]},
         "faults[0]: missing required field 'at_s'"),
        ({"faults": [{"kind": "linecard", "at_s": 1.0,
                      "params": {"loss_rate": [1]}}]},
         "faults[0].params.loss_rate: expected a JSON scalar, got [1]"),
        ({"faults": [{"kind": "linecard", "at_s": -1.0}]},
         "faults[0]: fault at_s must be >= 0"),
        ({"mesh": None}, "mesh: expected an object, got null"),
        ({"repairs_s": [1e400]}, "repairs_s[0]: expected a number"),
        ({"link_cuts": [{"a": "x", "b": "y", "at_s": 1, "c": 2}]},
         "link_cuts[0]: unknown field 'c'"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"extra": 1}, "unknown field 'extra'"),
    ])
    def test_malformed_fields_name_their_path(self, payload, message):
        with pytest.raises(ConfigurationError) as exc:
            ExperimentSpec.from_dict(scenario_doc(**payload))
        assert message in str(exc.value)

    @pytest.mark.parametrize("payload, message", [
        ({"faults": [{"kind": "linecard", "at_s": 5400}]},
         "faults[0]: t=5400.0s is negative or not before the horizon"),
        ({"repairs_s": [5400]},
         "repairs_s[0]: t=5400.0s is negative or not before the horizon"),
        ({"repairs_s": [100, 9000]},
         "repairs_s[1]: t=9000.0s is negative or not before the horizon"),
        ({"repairs_s": [-5]}, "repairs_s[0]: t=-5.0s is negative"),
        ({"link_cuts": [{"a": "x", "b": "y", "at_s": 5400}]},
         "link_cuts[0]: t=5400.0s is negative or not before the horizon"),
        ({"link_cuts": [{"a": "x", "b": "y", "at_s": -1}]},
         "link_cuts[0]: t=-1.0s is negative"),
    ])
    def test_timeline_events_fall_before_the_horizon(self, payload,
                                                     message):
        with pytest.raises(ConfigurationError) as exc:
            ExperimentSpec.from_dict(scenario_doc(**payload))
        assert message in str(exc.value)

    def test_unknown_bench_scenario_is_rejected_at_parse(self):
        with pytest.raises(ConfigurationError,
                           match="unknown bench scenario 'nope'"):
            ExperimentSpec.from_dict({"schema": 1, "kind": "bench",
                                      "name": "b", "scenarios": ["nope"]})

    def test_null_only_where_optional(self):
        spec = ExperimentSpec.from_dict(scenario_doc(
            faults=[{"kind": "linecard", "at_s": 1, "node": None}]))
        assert spec.faults[0].node is None
        assert spec.faults[0].at_s == 1.0
        assert isinstance(spec.faults[0].at_s, float)

    def test_missing_name_is_an_error(self):
        with pytest.raises(ConfigurationError,
                           match="missing required field 'name'"):
            ExperimentSpec.from_dict({"schema": 1, "kind": "bench"})

    def test_non_string_kind_is_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown spec kind"):
            ExperimentSpec.from_dict({"schema": 1, "kind": [],
                                      "name": "x"})

    def test_float_fields_digest_as_floats(self):
        """A spec built with an int in a float field is the same
        experiment as its JSON round trip."""
        spec = ScenarioSpec(name="a", until_s=5400)
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec and again.digest() == spec.digest()
        assert spec.digest() == ScenarioSpec(name="a",
                                             until_s=5400.0).digest()

    def test_params_written_as_object_stored_sorted(self):
        fault = FaultSpec.from_dict({"kind": "cpu", "at_s": 1,
                                     "params": {"z": 1, "a": "b"}})
        assert fault.params == (("a", "b"), ("z", 1))
        assert fault.to_dict()["params"] == {"a": "b", "z": 1}

    def test_grid_values_are_never_converted(self):
        spec = ExperimentSpec.from_dict({
            "schema": 1, "kind": "sweep", "name": "g", "target": "mathis",
            "grid": [["rtt_ms", [1, 10, 100]], ["loss", [1e-4]]]})
        assert spec.grid == (("rtt_ms", (1, 10, 100)), ("loss", (1e-4,)))
        assert all(type(v) is int for v in spec.grid[0][1])

    def test_sweep_grid_pairs_have_two_entries(self):
        with pytest.raises(ConfigurationError,
                           match=r"grid\[0\]: expected a list of 2"):
            ExperimentSpec.from_dict({
                "schema": 1, "kind": "sweep", "name": "g",
                "target": "mathis", "grid": [["rtt_ms"]]})

    def test_sub_spec_parses_alone(self):
        assert MeshSpec.from_dict({"owamp_packets": 5}) == \
            MeshSpec(owamp_packets=5)
        with pytest.raises(ConfigurationError,
                           match="owamp_packets: expected an integer"):
            MeshSpec.from_dict({"owamp_packets": 5.0})


class TestCommittedSpecs:
    def test_every_committed_spec_is_canonical(self):
        """Each file under specs/ is exactly what its parsed spec
        writes, so a hand edit that the codec would normalize shows."""
        import pathlib

        from repro.exec.seeding import canonical_json

        root = pathlib.Path(__file__).parent.parent / "specs"
        checked = 0
        for path in sorted(root.glob("**/*.json")):
            data = json.loads(path.read_text())
            if not isinstance(data, dict) or "kind" not in data:
                continue  # sidecar (golden.json)
            assert canonical_json(data) == load_spec(path).to_json(), path
            checked += 1
        assert checked >= 7
