"""The engine rule, owned by ``ParallelRunner``: every spec kind's grid
points are keyed and evaluated under one resolved simulation engine.

A ``numpy`` run keys exactly as a run that names no engine; any other
engine appends ``+<engine>`` to the cache version, and every point runs
on the engine it is keyed under, in pool workers too.
"""

from __future__ import annotations

import multiprocessing
import pathlib

import pytest

from repro.analysis.sweep import sweep
from repro.exec import ParallelRunner
from repro.exec.cache import cache_key, function_id
from repro.exec.seeding import derive_seed
from repro.experiment import ExperimentSpec, RunContext, run_experiment
from repro.experiment.manifest import package_code_version
from repro.vectorize import resolve_engine, use_backend

SPECS = pathlib.Path(__file__).parent.parent / "specs"


@pytest.fixture(autouse=True)
def _no_backend_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)


@pytest.mark.parametrize("name", [
    "linecard_softfail",      # scenario
    "fig1_tcp_loss_quick",    # sweep
    "chaos_quick",            # campaign
    "federation_quick",       # federation
])
def test_engine_forks_the_cache_key(name, tmp_path, monkeypatch):
    spec = ExperimentSpec.from_file(SPECS / f"{name}.json")
    cache = tmp_path / "cache"
    expected = set()
    real_map = ParallelRunner.map

    def spy(self, fn, points, **kwargs):
        fn_id = function_id(fn)
        for params in points:
            seed = (None if self.base_seed is None
                    else derive_seed(self.base_seed, params))
            expected.add(cache_key(fn_id, params, seed,
                                   package_code_version()))
        return real_map(self, fn, points, **kwargs)

    def run(backend):
        ctx = RunContext(cache=cache, backend=backend)
        run_experiment(spec, ctx, persist=False)
        stats = ctx.stats()
        return (stats["exec.runner.points"], stats["exec.cache.hits"],
                stats["exec.runner.evaluated"])

    with monkeypatch.context() as patch:
        patch.setattr(ParallelRunner, "map", spy)
        points, hits, _ = run(None)
    assert points > 0 and hits == 0
    assert {p.stem for p in cache.rglob("*.json")} == expected

    points, hits, evaluated = run("fluid")
    assert (hits, evaluated) == (0, points)

    points, hits, evaluated = run("numpy")
    assert (hits, evaluated) == (points, 0)


def _point_engine(x):
    """Module-level so pool workers can unpickle it."""
    return resolve_engine()


@pytest.mark.parametrize("method", ["serial", "fork", "spawn", "forkserver"])
def test_every_point_runs_on_the_parent_engine(method):
    if method == "serial":
        pool = {}
    elif method in multiprocessing.get_all_start_methods():
        pool = {"workers": 2,
                "mp_context": multiprocessing.get_context(method)}
    else:
        pytest.skip(f"no {method} start method on this platform")
    with use_backend("fluid"):
        result = sweep(_point_engine, {"x": [0, 1, 2, 3]}, **pool)
    assert [r.value for r in result.records] == ["fluid"] * 4
