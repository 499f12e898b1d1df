"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's figures/tables/case-study
results.  Output discipline:

* each bench writes its rendered table/figure to
  ``benchmarks/results/<name>.txt`` (so results survive pytest's stdout
  capture and EXPERIMENTS.md can be assembled from them);
* each bench asserts its experiment's *shape checks* — who wins, by
  roughly what factor — via :class:`repro.analysis.report.ExperimentRecord`;
* the timed portion (the ``benchmark`` fixture) is the experiment's core
  computation, so ``--benchmark-only`` runs double as a performance
  regression harness for the simulator itself.

Environment knobs (all read at call time, so tests can monkeypatch).
The run settings ``REPRO_WORKERS``, ``REPRO_CACHE`` and
``REPRO_BACKEND`` are not read here: the benches that run specs
(``bench_fig1_tcp_loss.py``, ``bench_linecard_softfail.py``) take them
through :meth:`repro.experiment.RunContext.from_env`.  This module
reads two of its own:

``REPRO_BENCH_QUICK``
    Smoke mode: benches shrink their grids/durations via
    :func:`quick` and shape checks are rendered but not asserted
    (tiny grids aren't statistically meaningful).  Used by
    ``tests/test_benchmarks_smoke.py`` so a broken bench fails tier-1
    instead of rotting silently.
``REPRO_RESULTS_DIR``
    Redirect ``emit()`` output (the smoke tests point it at a temp
    dir so quick-mode tables never clobber the real results).
"""

from __future__ import annotations

import os
import pathlib
from typing import TypeVar

from repro.analysis.report import ExperimentRecord

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

T = TypeVar("T")


def quick_mode() -> bool:
    """True when the harness runs in smoke mode (tiny grids)."""
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def quick(full: T, tiny: T) -> T:
    """``tiny`` in smoke mode, ``full`` otherwise.

    Benches wrap their grid/duration constants in this so the smoke
    suite exercises the whole code path in a fraction of the time.
    """
    return tiny if quick_mode() else full


def results_dir() -> pathlib.Path:
    override = os.environ.get("REPRO_RESULTS_DIR", "")
    return pathlib.Path(override) if override else RESULTS_DIR


def emit(name: str, text: str) -> pathlib.Path:
    """Write a bench's rendered output to benchmarks/results/<name>.txt.

    Returns the written path so callers can chain further processing
    (e.g. attach it to a report or diff it against a golden file).
    """
    out_dir = results_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.txt"
    path.write_text(text.rstrip() + "\n")
    print(text)
    return path


def assert_record(record: ExperimentRecord) -> None:
    """Evaluate a record's shape checks; fail with the full report text.

    In ``REPRO_BENCH_QUICK`` smoke mode the checks still run (so they
    can't crash unnoticed) but their outcome is not asserted — shrunk
    grids legitimately change who-wins-by-how-much.
    """
    ok = record.evaluate()
    if quick_mode():
        return
    assert ok, "shape checks failed:\n" + record.render_text()
