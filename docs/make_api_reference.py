#!/usr/bin/env python
"""Generate docs/api.md — the public API reference.

Walks every subpackage's ``__all__``, collects signatures and first
docstring lines, and writes a markdown reference.  Run after changing
any public surface:

    PYTHONPATH=src python docs/make_api_reference.py

The output is a pure function of the code, so regenerating an
unchanged tree rewrites the same bytes; ``tests/test_docs_api_reference``
fails when the committed file drifts from :func:`render`.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import re
import sys

TARGET = pathlib.Path(__file__).parent / "api.md"

MODULES = [
    "repro",
    "repro.units",
    "repro.errors",
    "repro.vectorize",
    "repro.netsim",
    "repro.netsim.packetsim",
    "repro.netsim.routing",
    "repro.tcp",
    "repro.fluid",
    "repro.devices",
    "repro.perfsonar",
    "repro.dtn",
    "repro.circuits",
    "repro.workloads",
    "repro.analysis",
    "repro.exec",
    "repro.experiment",
    "repro.chaos",
    "repro.federation",
    "repro.serve",
    "repro.bench",
    "repro.telemetry",
    "repro.core",
    "repro.scenario",
    "repro.cli",
]


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.split("\n", 1)[0].strip()


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def describe(name: str, obj) -> list:
    lines = []
    if inspect.isclass(obj):
        lines.append(f"### `{name}{signature_of(obj)}`\n")
        lines.append(f"{first_line(obj)}\n")
        methods = [
            (m_name, m)
            for m_name, m in inspect.getmembers(obj)
            if not m_name.startswith("_")
            and (inspect.isfunction(m) or isinstance(
                inspect.getattr_static(obj, m_name, None), property))
        ]
        for m_name, m in sorted(methods):
            static = inspect.getattr_static(obj, m_name, None)
            if isinstance(static, property):
                lines.append(f"- `.{m_name}` (property) — "
                             f"{first_line(static)}")
            elif inspect.isfunction(m):
                lines.append(f"- `.{m_name}{signature_of(m)}` — "
                             f"{first_line(m)}")
        lines.append("")
    elif inspect.isfunction(obj):
        lines.append(f"### `{name}{signature_of(obj)}`\n")
        lines.append(f"{first_line(obj)}\n")
    else:
        lines.append(f"### `{name}`\n")
        lines.append(f"Constant: `{constant_repr(obj)}`\n")
    return lines


def constant_repr(obj) -> str:
    """``repr(obj)`` with every function shown by its qualified name
    alone, and set members sorted.  The default ``<function f at
    0x7f...>`` carries a memory address, and set order follows string
    hashing; both change from one process to the next."""
    if isinstance(obj, (set, frozenset)) and obj:
        items = "{" + ", ".join(sorted(map(constant_repr, obj))) + "}"
        return items if type(obj) is set else f"{type(obj).__name__}({items})"
    return re.sub(r"<function (.+?) at 0x[0-9a-f]+>", r"<function \1>",
                  repr(obj))


def render() -> str:
    """The reference as markdown."""
    out = ["# API reference",
           "",
           "Generated by `python docs/make_api_reference.py`; "
           "do not edit by hand.",
           ""]
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        out.append(f"## `{module_name}`")
        out.append("")
        out.append(first_line(module))
        out.append("")
        names = getattr(module, "__all__", None)
        if not names:
            continue
        seen = set()
        for name in names:
            if name in seen:
                continue
            seen.add(name)
            obj = getattr(module, name)
            if inspect.ismodule(obj):
                continue
            out.extend(describe(name, obj))
    return "\n".join(out) + "\n"


def main() -> int:
    text = render()
    TARGET.write_text(text, encoding="utf-8")
    print(f"wrote {TARGET} ({text.count(chr(10))} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
