"""Client ↔ server integration over real HTTP.

One in-process asyncio server (own event-loop thread) serves a
threaded client, exactly the deployment shape minus the network.  The
centerpiece: every committed spec under ``specs/`` is submitted
through the service and must come back with the *same* manifest digest
an offline ``run_experiment`` produces — the service multiplexes, it
never changes results.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import threading

import pytest

from repro.errors import (AdmissionError, ConfigurationError,
                          DrainingError, ServeError)
from repro.experiment import ExperimentSpec, RunContext, run_experiment
from repro.serve import ExperimentServer, ExperimentService, ServiceClient

SPECS_DIR = pathlib.Path(__file__).parent.parent / "specs"


def committed_specs():
    """Every real spec file committed under specs/ (sidecars like
    golden.json carry no "kind")."""
    out = []
    for path in sorted(SPECS_DIR.glob("*.json")):
        data = json.loads(path.read_text())
        if isinstance(data, dict) and "kind" in data:
            out.append(path)
    return out


class ServerFixture:
    """An ExperimentServer on its own event-loop thread."""

    def __init__(self, service: ExperimentService) -> None:
        self.service = service
        self.server = ExperimentServer(service, port=0)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert started.wait(10), "server failed to start"

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient(self.server.address, **kwargs)

    def stop(self) -> None:
        self.service.drain(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve-http")
    fixture = ServerFixture(
        ExperimentService(workers=2, cache=tmp / "cache"))
    yield fixture
    fixture.stop()


@pytest.fixture(scope="module")
def offline_manifests():
    """Offline run_experiment results, computed once per spec."""
    memo = {}

    def get(path: pathlib.Path):
        if path not in memo:
            spec = ExperimentSpec.from_file(path)
            memo[path] = run_experiment(spec, RunContext(),
                                        persist=False).manifest
        return memo[path]

    return get


class TestEndToEnd:
    def test_health(self, server):
        doc = server.client().health()
        assert doc == {"ok": True, "draining": False}

    @pytest.mark.parametrize(
        "spec_path", committed_specs(), ids=lambda p: p.stem)
    def test_every_committed_spec_matches_offline_digests(
            self, server, offline_manifests, spec_path):
        spec_doc = json.loads(spec_path.read_text())
        result = server.client().run(spec_doc, tenant="integration",
                                     timeout=120)
        offline = offline_manifests(spec_path)
        assert result["state"] == "done"
        manifest = result["manifest"]
        assert manifest["digest"] == offline.digest()
        assert manifest["result_digest"] == offline.result_digest
        assert manifest["spec_digest"] == offline.spec_digest
        assert result["payload"] is not None

    def test_resubmitting_every_spec_dedupes(self, server):
        """Ordered after the parametrized pass: every digest is now
        memoized, so resubmission is answered without execution."""
        client = server.client()
        for path in committed_specs():
            job = client.submit(json.loads(path.read_text()),
                                tenant="rerun")
            assert job["state"] == "done", path.name
            assert job["deduped"] == "memo", path.name
        snap = client.metrics()
        assert snap["jobs"]["deduped_memo"] >= len(committed_specs())

    def test_service_digests_match_committed_golden(self, server):
        """The committed golden ledger gates `repro run`; the service
        must satisfy the very same ledger."""
        golden = json.loads((SPECS_DIR / "golden.json").read_text())
        client = server.client()
        by_name = {j["name"]: j for j in client.jobs(tenant="integration")}
        checked = 0
        for name, entry in golden.items():
            job = by_name.get(name)
            if job is None or job["state"] != "done":
                continue
            assert job["manifest"]["spec_digest"] == entry["spec_digest"]
            assert (job["manifest"]["result_digest"]
                    == entry["result_digest"])
            checked += 1
        assert checked > 0

    def test_events_stream_replays_lifecycle(self, server):
        client = server.client()
        spec = json.loads((SPECS_DIR / "fig1_tcp_loss_quick.json")
                          .read_text())
        job = client.submit(spec, tenant="events")
        events = list(client.events(job["id"]))
        kinds = [e["event"] for e in events]
        assert kinds[-1] == "done"
        assert all(e["seq"] == i for i, e in enumerate(events))
        # Cursor resume: asking from the midpoint replays only the tail.
        tail = list(client.events(job["id"], since=len(events) - 1))
        assert [e["event"] for e in tail] == ["done"]

    def test_job_listing_and_payload_flag(self, server):
        client = server.client()
        rows = client.jobs(tenant="integration")
        assert rows and all(r["tenant"] == "integration" for r in rows)
        full = client.job(rows[0]["id"], payload=True)
        assert "payload" in full


class TestProtocolErrors:
    def test_unknown_job_404(self, server):
        with pytest.raises(ServeError, match="job-424242"):
            server.client().job("job-424242")

    def test_bad_spec_400(self, server):
        with pytest.raises(ConfigurationError, match="unknown spec kind"):
            server.client().submit({"schema": 1, "kind": "warp",
                                    "name": "x", "seed": 1})

    @pytest.mark.parametrize("limit", ["x", "-2", "1.5"])
    def test_bad_jobs_limit_400(self, server, limit):
        with pytest.raises(ConfigurationError, match="limit"):
            server.client().jobs(limit=limit)

    def test_jobs_limit_counts_from_the_newest(self, server):
        client = server.client()
        for i in range(2):
            client.submit({"schema": 1, "kind": "sweep", "seed": 1,
                           "name": f"limit-{i}", "target": "mathis",
                           "grid": {"rtt_ms": [1.0], "loss": [1e-4],
                                    "mss_bytes": [9000]}})
        ids = [row["id"] for row in client.jobs()]
        assert client.jobs(limit=0) == []
        assert [row["id"] for row in client.jobs(limit=1)] == ids[-1:]
        assert [row["id"] for row in
                client.jobs(limit=len(ids) + 5)] == ids

    def test_malformed_spec_field_400(self, server):
        spec = json.loads((SPECS_DIR / "fig1_tcp_loss_quick.json")
                          .read_text())
        with pytest.raises(ConfigurationError,
                           match="seed: expected an integer"):
            server.client().submit(dict(spec, seed="x"))

    def test_unbounded_mesh_cadence_400(self, server):
        spec = json.loads((SPECS_DIR / "chaos_quick.json").read_text())
        spec["mesh"]["bwctl_interval_s"] = 1.5
        with pytest.raises(ConfigurationError,
                           match="mesh: bwctl_interval_s 1.5 is shorter"):
            server.client().submit(spec)

    def test_unknown_bench_scenario_400(self, server):
        with pytest.raises(ConfigurationError,
                           match="unknown bench scenario 'nope'"):
            server.client().submit({"schema": 1, "kind": "bench",
                                    "name": "x", "scenarios": ["nope"]})

    def test_bad_priority_400(self, server):
        spec = json.loads((SPECS_DIR / "fig1_tcp_loss_quick.json")
                          .read_text())
        with pytest.raises(ConfigurationError, match="unknown priority"):
            server.client().submit(spec, priority="urgent")

    def test_failed_job_surfaces_as_serve_error(self, server):
        bad = {"schema": 1, "kind": "sweep", "name": "http-bad",
               "seed": 1, "target": "no-such-target",
               "grid": {"rtt_ms": [1.0], "loss": [1e-4],
                        "mss_bytes": [9000]}}
        with pytest.raises(ServeError, match="no-such-target"):
            server.client().run(bad, timeout=60)


class TestBackpressureOverHttp:
    """A dedicated workerless server whose queue can be held full."""

    @pytest.fixture()
    def stalled(self):
        fixture = ServerFixture(
            ExperimentService(workers=0, capacity=1))
        yield fixture
        fixture.loop.call_soon_threadsafe(fixture.loop.stop)
        fixture.thread.join(timeout=10)
        fixture.loop.close()

    def spec(self, name):
        return {"schema": 1, "kind": "sweep", "name": name, "seed": 1,
                "target": "mathis",
                "grid": {"rtt_ms": [1.0], "loss": [1e-4],
                         "mss_bytes": [9000]}}

    def test_full_queue_is_429_with_retry_after(self, stalled):
        client = stalled.client()
        first = client.submit(self.spec("bp-1"))
        assert first["state"] == "queued"
        with pytest.raises(AdmissionError) as exc:
            client.submit(self.spec("bp-2"), retry=False)
        assert exc.value.retry_after_s > 0

    def test_client_retry_succeeds_after_capacity_frees(self, stalled):
        client = stalled.client(max_retries=20)
        client.submit(self.spec("bp-3"))
        freed = threading.Timer(
            0.3, lambda: stalled.service.step(timeout=1))
        freed.start()
        try:
            job = client.submit(self.spec("bp-4"))  # retries until free
            assert job["state"] == "queued"
        finally:
            freed.join()

    def test_draining_server_answers_503(self, stalled):
        stalled.service.drain(timeout=5)
        with pytest.raises(DrainingError):
            stalled.client().submit(self.spec("bp-5"))
