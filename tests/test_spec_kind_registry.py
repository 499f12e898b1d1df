"""The one spec-kind registry: class, runner and renderer in one call.

A toy kind registered here through :func:`register_spec_kind` — the
same call the built-in kinds make — must parse, run through
:func:`run_experiment` with every part of the runner's output landing
where the built-ins' do, and print through ``repro run`` with its
renderer.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiment import (ExperimentSpec, RunContext, RunOutput,
                              ScenarioSpec, SweepSpec, register_spec_kind,
                              registered_spec_kinds, run_experiment,
                              spec_kind)
from repro.experiment import spec as spec_module


@dataclass(frozen=True)
class ToySpec(ExperimentSpec):
    kind: ClassVar[str] = "toy"

    n: int = 3


def run_toy(spec, ctx, version):
    squares = [i * i for i in range(spec.n)]
    return RunOutput(
        payload={"squares": squares},
        summary={"n": spec.n, "total": sum(squares)},
        value=squares,
        artifacts={"toy.json": {"squares": squares}},
        run_artifacts={"toy-run.json": {"host": "machine-dependent"}},
        timings={"toy_s": 0.5},
    )


def render_toy(result):
    return f"TOY RENDER of {len(result.value)} squares"


@pytest.fixture
def toy_kind(monkeypatch):
    """Register the toy kind for one test, then forget it."""
    monkeypatch.setattr(spec_module, "_KINDS", dict(spec_module._KINDS))
    return register_spec_kind(ToySpec, run_toy, render_toy)


def test_builtin_kinds_share_the_registry():
    assert {"bench", "scenario", "sweep"} <= set(registered_spec_kinds())
    assert spec_kind("scenario").cls is ScenarioSpec
    assert spec_kind("sweep").render is not None
    # Extension kinds resolve through the same lookup.
    assert spec_kind("campaign").cls.__name__ == "CampaignSpec"
    assert spec_kind("federation").cls.__name__ == "FederationSpec"


def test_toy_kind_parses_and_runs(toy_kind, tmp_path):
    spec = ExperimentSpec.from_dict(ToySpec(name="t", n=4).to_dict())
    assert spec == ToySpec(name="t", n=4)
    result = run_experiment(spec, RunContext(artifacts=tmp_path))
    manifest = result.manifest
    assert result.payload == {"squares": [0, 1, 4, 9]}
    assert result.value == [0, 1, 4, 9]
    assert manifest.summary == {"n": 4, "total": 14}
    assert "toy.json" in manifest.artifacts
    assert set(manifest.run_artifacts) == {"toy-run.json"}
    assert json.loads((tmp_path / "toy-run.json").read_text()) == {
        "host": "machine-dependent"}
    assert manifest.timings["toy_s"] == 0.5 and "elapsed_s" in manifest.timings
    assert spec_kind("toy").render(result) == "TOY RENDER of 4 squares"
    # Run artifacts stay outside the digest; digested ones join it.
    unpersisted = run_experiment(spec, persist=False).manifest
    assert unpersisted.run_artifacts == {}
    assert unpersisted.digest() == manifest.digest()


def test_repro_run_prints_the_renderer(toy_kind, tmp_path, capsys):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(ToySpec(name="t", n=2).to_dict()))
    assert main(["run", str(path), "--no-persist"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "toy 't': t"
    assert out[1] == "TOY RENDER of 2 squares"
    assert out[2:4] == ["  n: 2", "  total: 1"]


def test_unknown_kind_still_exits_two(toy_kind, tmp_path, capsys):
    path = tmp_path / "warp.json"
    path.write_text(json.dumps({"schema": 1, "kind": "warp", "name": "x"}))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "unknown spec kind 'warp'" in err and "toy" in err


def test_a_taken_kind_cannot_change_class(toy_kind):
    @dataclass(frozen=True)
    class Impostor(ToySpec):
        pass

    with pytest.raises(ConfigurationError, match="already registered"):
        register_spec_kind(Impostor, run_toy)


def test_progress_points_are_kind_free():
    assert ScenarioSpec(name="s").points() == 1
    assert SweepSpec.from_grid({"a": [1, 2], "b": [3, 4, 5]}, name="w",
                               target="mathis").points() == 6
    assert ToySpec(name="t").points() is None


def test_cli_import_leaves_optional_subsystems_unloaded():
    code = ("import sys, repro.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['repro', 'scenario'], "
            "['repro', 'bench'], ['repro', 'serve'], ['repro', 'chaos'], "
            "['repro', 'federation'])))")
    src = pathlib.Path(__file__).parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"
