"""Differential test: every committed spec produces digest-identical
manifests on the numpy kernels and on their scalar references.

This is the whole-experiment statement of the bit-identity contract in
``tests/reference/kernels.py`` — not just "the kernels agree on a
random input", but "the entire pipeline (scenario runs, sweeps, fault
campaigns, oracle verdicts, report digests) is invariant to which
implementation computes it".

The cache is deliberately disabled: which implementation ran is *not*
part of the cache key (the contract makes it irrelevant), so a warm
cache would serve the first run's results to the second and mask any
divergence.  Both runs here must actually evaluate.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib

import pytest

from repro.experiment import ExperimentSpec, RunContext, run_experiment
from tests.reference.kernels import scalar_kernels

SPECS = pathlib.Path(__file__).parent.parent / "specs"

SLOW_SPECS = {"fig1_tcp_loss.json"}

SPEC_FILES = sorted(p.name for p in SPECS.glob("*.json")
                    if p.name != "golden.json")


def _run(spec: ExperimentSpec, kernels=contextlib.nullcontext):
    with kernels():
        return run_experiment(spec, RunContext(workers=1, cache=None),
                              persist=False)


def test_committed_spec_list_is_nonempty():
    assert SPEC_FILES, "no committed specs found"
    assert "chaos_quick.json" in SPEC_FILES


@pytest.mark.parametrize("name", SPEC_FILES)
def test_backends_agree_on_committed_spec(name):
    if name in SLOW_SPECS and not os.environ.get("REPRO_SLOW_TESTS"):
        pytest.skip(f"{name} is slow; set REPRO_SLOW_TESTS=1 to run")
    spec = ExperimentSpec.from_file(SPECS / name)

    numpy_result = _run(spec)
    scalar_result = _run(spec, scalar_kernels)

    assert numpy_result.manifest.spec_digest \
        == scalar_result.manifest.spec_digest
    assert numpy_result.manifest.result_digest \
        == scalar_result.manifest.result_digest, \
        f"kernel/reference divergence on {name}"
    assert numpy_result.payload == scalar_result.payload


def test_backend_differential_not_masked_by_cache(tmp_path):
    """Sanity check on the methodology: with a shared cache the
    reference run would evaluate nothing, proving cache=None is
    load-bearing."""
    spec = ExperimentSpec.from_file(SPECS / "linecard_softfail.json")
    cache = tmp_path / "cache"
    run_experiment(spec, RunContext(workers=1, cache=cache), persist=False)
    ctx = RunContext(workers=1, cache=cache)
    with scalar_kernels():
        run_experiment(spec, ctx, persist=False)
    assert ctx.stats().get("exec.runner.evaluated", 0) == 0


FEDERATION_SPECS = sorted(
    p.name for p in SPECS.glob("*.json")
    if p.name != "golden.json"
    and json.loads(p.read_text()).get("kind") == "federation")


def test_federation_spec_is_committed():
    assert "federation_quick.json" in FEDERATION_SPECS


@pytest.mark.parametrize("name", FEDERATION_SPECS)
def test_federation_serial_pooled_and_warm_agree(name, tmp_path):
    """Federation specs honor the full exec contract: serial, 4-worker
    pooled, and cache-warm runs produce byte-identical manifests, and
    the warm run evaluates nothing."""
    spec = ExperimentSpec.from_file(SPECS / name)
    cache = tmp_path / "cache"

    serial = run_experiment(spec, RunContext(workers=1, cache=cache),
                            persist=False)
    pooled = run_experiment(spec, RunContext(workers=4, cache=None),
                            persist=False)
    warm_ctx = RunContext(workers=1, cache=cache)
    warm = run_experiment(spec, warm_ctx, persist=False)

    assert serial.manifest.result_digest == pooled.manifest.result_digest
    assert serial.manifest.result_digest == warm.manifest.result_digest
    assert serial.payload == pooled.payload == warm.payload
    assert warm_ctx.stats().get("exec.runner.evaluated", 0) == 0


def test_golden_entries_cover_committed_specs():
    """Every golden.json entry points at a committed spec whose digest
    still matches — the differential test and the golden gate stay in
    lockstep."""
    golden = json.loads((SPECS / "golden.json").read_text())
    by_name = {}
    for name in SPEC_FILES:
        spec = ExperimentSpec.from_file(SPECS / name)
        by_name[spec.name] = spec
    for entry, digests in golden.items():
        assert entry in by_name, f"golden entry {entry} has no spec file"
        assert by_name[entry].digest() == digests["spec_digest"], entry
