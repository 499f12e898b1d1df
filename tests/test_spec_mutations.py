"""One-leaf mutations of the committed specs: bad input is exit 2, never
a traceback.

Each case takes a spec under ``specs/``, replaces one leaf (a scalar,
or an empty list or object) with one of :data:`VALUES`, and drives the
result through the three front doors: the parser, the service's HTTP
handler and ``repro run``.  A mutation may still be a valid spec; what
must never happen is a builtin exception escaping the parser, an HTTP
5xx for a spec body, or ``repro run`` raising instead of returning its
documented exit code.
"""

from __future__ import annotations

import contextlib
import copy
import http.client
import io
import json
import pathlib
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiment import ExperimentSpec
from repro.serve import ExperimentService

from .test_serve_http import ServerFixture

SPECS = pathlib.Path(__file__).parent.parent / "specs"
VALUES = (-1, "x", None, [], 1e308, True, 1.5, {})


def committed_docs():
    docs = {}
    for path in sorted(SPECS.glob("**/*.json")):
        data = json.loads(path.read_text())
        if isinstance(data, dict) and "kind" in data:
            docs[path.relative_to(SPECS).as_posix()] = data
    return docs


DOCS = committed_docs()
#: Runs stay bounded: no full Figure 1 grid, no 1e308 horizons.
QUICK_DOCS = {name: doc for name, doc in DOCS.items()
              if name != "fig1_tcp_loss.json"}
RUN_VALUES = tuple(v for v in VALUES if v != 1e308)


def leaves(node, path=()):
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from leaves(value, path + (key,))
    elif isinstance(node, list) and node:
        for index, value in enumerate(node):
            yield from leaves(value, path + (index,))
    else:
        yield path


def mutated(doc, path, value):
    out = copy.deepcopy(doc)
    node = out
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = copy.deepcopy(value)
    return out


def mutations(docs, values):
    sites = [(name, path) for name, doc in docs.items()
             for path in leaves(doc)]
    return st.builds(lambda site, value: mutated(docs[site[0]], site[1],
                                                 value),
                     st.sampled_from(sites), st.sampled_from(values))


def test_every_mutation_parses_or_raises_configuration_error():
    checked = 0
    for name, doc in DOCS.items():
        for path in leaves(doc):
            for value in VALUES:
                try:
                    ExperimentSpec.from_dict(mutated(doc, path, value))
                except ConfigurationError:
                    pass
                checked += 1
    assert checked > 1000


@pytest.fixture(scope="module")
def idle_server():
    """A workerless service: accepted specs queue and never run."""
    fixture = ServerFixture(ExperimentService(workers=0, capacity=100_000))
    yield fixture
    fixture.loop.call_soon_threadsafe(fixture.loop.stop)
    fixture.thread.join(timeout=10)
    fixture.loop.close()


def post_spec(address: str, doc) -> int:
    parts = urlsplit(address)
    conn = http.client.HTTPConnection(parts.hostname, parts.port,
                                      timeout=30)
    try:
        conn.request("POST", "/v1/jobs", body=json.dumps({"spec": doc}),
                     headers={"Content-Type": "application/json"})
        return conn.getresponse().status
    finally:
        conn.close()


@settings(max_examples=150, deadline=None)
@given(doc=mutations(DOCS, VALUES))
def test_service_never_answers_5xx(idle_server, doc):
    status = post_spec(idle_server.server.address, doc)
    assert status < 500, (status, doc)


@settings(max_examples=100, deadline=None)
@given(doc=mutations(QUICK_DOCS, RUN_VALUES))
def test_repro_run_returns_an_exit_code(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("mutated") / "spec.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["run", str(path), "--no-persist"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
