"""docs/api.md must be exactly what docs/make_api_reference.py renders.

A public name added, removed or re-documented without regenerating the
reference fails here; regenerate with
``PYTHONPATH=src python docs/make_api_reference.py``.
"""

from __future__ import annotations

import importlib.util
import pathlib

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"


def _generator():
    spec = importlib.util.spec_from_file_location(
        "make_api_reference", DOCS / "make_api_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_api_reference_matches_render():
    committed = (DOCS / "api.md").read_text(encoding="utf-8")
    assert committed == _generator().render(), (
        "docs/api.md is stale; regenerate it with "
        "`PYTHONPATH=src python docs/make_api_reference.py`")


def test_render_has_no_memory_addresses():
    assert " at 0x" not in _generator().render()
