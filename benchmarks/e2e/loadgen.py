"""The ``serve`` workload: an open loop against a real ``repro serve``.

The server is started as its own process (``repro serve --port 0
--workers 2``, no cache, wrapped by ``probe.py`` so that it samples its
own interpreter speed) and driven over HTTP from this one
process with two threads: the submit thread sends each job at its
scheduled time whatever happened to the previous one (an open loop, so
a stall shows up as queueing rather than as a lower offered rate), and
a collector thread samples ``/v1/metrics`` about once a second.  Both
use :class:`repro.serve.ServiceClient` with ``retry=False`` and one
connection per request, so at most two connections are ever open.

Arrivals are Poisson at :data:`RATE` per second, conditioned on their
expected count.  The seed draws the send times, the order of the mix
and the specs: unique Mathis sweeps (a couple of milliseconds of work),
repeats of a recent Mathis spec (answered by the service's dedupe) and
``fig1_tcp_loss_quick`` with a fresh seed (about a tenth of a second of
execution), in the fixed proportions of :data:`MIX`.

A submission's latency runs from its *scheduled* send time to the
job's ``finished_at``; like the POST round trip, it is corrected by the
server's speed samples around it.  Every job's result digest is checked
against an offline ``run_experiment`` of the same spec after the
window.  The run
is invalid — so a throttled generator never passes for a fast server —
when the generator's p95 lag behind schedule exceeds
:data:`LAG_LIMIT_MS` or the sampled backlog still grows over the last
:data:`BACKLOG_WINDOW_S` seconds.
"""

from __future__ import annotations

import json
import os
import pathlib
import select
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro.errors import AdmissionError, DrainingError, ReproError
from repro.experiment import ExperimentSpec, RunContext, run_experiment
from repro.serve import ServiceClient

from probe import SpeedProbe
from summary import percentile
from workloads import SPECS_DIR, Workload, sha256_json

HERE = pathlib.Path(__file__).resolve().parent

#: Offered load, submissions per second.
RATE = 4.0
#: Share of unique Mathis sweeps, repeats and fig. 1 sweeps.  With
#: fig. 1 at a fifth, the median lands inside the Mathis jobs and the
#: p90 inside the fig. 1 jobs, never on the gap between the two.
MIX = (("mathis", 0.6), ("repeat", 0.2), ("fig1", 0.2))
#: A refused or failed submission counts as missing this limit.
LATENCY_LIMIT_MS = 500.0
LAG_LIMIT_MS = 10.0
BACKLOG_WINDOW_S = 10.0
#: The backlog counts as growing when its least-squares trend over the
#: last window adds more than this many jobs.
BACKLOG_GROWTH_JOBS = 2.0
SERVER_WORKERS = 2
SERVER_START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0


def _mathis_spec(index: int, rng: np.random.Generator) -> Dict[str, object]:
    rtts = sorted(round(float(x), 3) for x in rng.uniform(1.0, 150.0, 3))
    return {
        "schema": 1, "kind": "sweep", "name": f"e2e-mathis-{index:04d}",
        "seed": index, "target": "mathis", "value_label": "gbps",
        "grid": {"rtt_ms": rtts,
                 "loss": [float(rng.choice([1e-5, 4.5e-5, 1e-4]))],
                 "mss_bytes": [int(rng.choice([1500, 9000]))]},
    }


def plan(seed: int, seconds: float) -> List[Dict[str, object]]:
    """The seed's arrivals in ``[0, seconds)``: offset, kind and spec.

    A Poisson process at :data:`RATE` conditioned on its expected
    count: the ``RATE * seconds`` send times are sorted uniform draws,
    and the kinds come in exact :data:`MIX` proportions in a seeded
    order.  Two seeds differ in timing and content, not in how many
    jobs of each kind they send.
    """
    rng = np.random.default_rng(seed)
    n = max(len(MIX), round(RATE * seconds))
    offsets = np.sort(rng.uniform(0.0, seconds, n))
    counts = [round(share * n) for _, share in MIX[1:]]
    kinds = ["mathis"] * (n - sum(counts))
    for (kind, _), count in zip(MIX[1:], counts):
        kinds += [kind] * count
    kinds = [kinds[i] for i in rng.permutation(n)]
    # A repeat needs an earlier unique sweep to repeat.
    first_unique = kinds.index("mathis")
    if "repeat" in kinds[:first_unique]:
        first_repeat = kinds.index("repeat")
        kinds[first_repeat], kinds[first_unique] = "mathis", "repeat"

    fig1 = json.loads((SPECS_DIR / "fig1_tcp_loss_quick.json")
                      .read_text(encoding="utf-8"))
    arrivals: List[Dict[str, object]] = []
    recent: List[Dict[str, object]] = []
    for i, (offset, kind) in enumerate(zip(offsets, kinds)):
        if kind == "repeat":
            spec = recent[int(rng.integers(len(recent)))]
        elif kind == "fig1":
            spec = dict(fig1, seed=int(rng.integers(1, 2**31 - 1)))
        else:
            spec = _mathis_spec(i, rng)
            recent = (recent + [spec])[-5:]
        arrivals.append({"offset_s": float(offset), "kind": kind,
                         "spec": spec})
    return arrivals


def _trend(samples: List[tuple]) -> float:
    """Least-squares slope of ``(t, value)`` samples, per second."""
    if len(samples) < 3:
        return 0.0
    t = np.array([s[0] for s in samples])
    y = np.array([s[1] for s in samples], dtype=float)
    if np.ptp(t) == 0:
        return 0.0
    return float(np.polyfit(t, y, 1)[0])


class ServeWorkload(Workload):
    """Open-loop Poisson load on a ``repro serve`` subprocess."""

    name = "serve"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.server: Optional[subprocess.Popen] = None
        self.url = ""
        self.server_rss_mb: Optional[float] = None
        self.layers: Dict[str, float] = {}
        self.submissions: List[Dict[str, object]] = []
        self.jobs: Dict[str, Dict[str, object]] = {}
        self.backlog: List[tuple] = []
        self.backlog_growth = 0.0
        self.last_metrics: Dict[str, object] = {}
        self._probe_file = self.workdir / "server-speed.json"

    # -- server lifecycle -----------------------------------------------------
    def setup(self) -> None:
        """Spawn the server, wrapped so it probes its own speed, and
        wait for ``/v1/health``."""
        started, started_wall = time.monotonic(), time.time()
        self._log = open(self.workdir / "serve.log", "wb")
        self.server = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(self._probe_file),
             "serve", "--port", "0", "--workers", str(SERVER_WORKERS)],
            cwd=self.workdir, stdout=subprocess.PIPE,
            stderr=self._log)
        self.url = self._read_banner(started + SERVER_START_TIMEOUT_S)
        client = ServiceClient(self.url, timeout=5.0)
        while True:
            try:
                client.health()
                break
            except ReproError:
                if time.monotonic() > started + SERVER_START_TIMEOUT_S:
                    raise
                time.sleep(0.01)
        self.setup_wall = time.monotonic() - started
        self.setup_span = (started_wall, time.time())

    def _read_banner(self, deadline: float) -> str:
        """The URL from the server's ``serving on <url>`` line."""
        fd = self.server.stdout.fileno()
        buffer = b""
        while b"\n" not in buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.server.poll() is not None:
                log = (self.workdir / "serve.log").read_text(errors="replace")
                raise RuntimeError(f"repro serve did not start: {log[-500:]}")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError("repro serve closed its output")
                buffer += chunk
        line = buffer.split(b"\n", 1)[0].decode("utf-8", "replace")
        if not line.startswith("serving on "):
            raise RuntimeError(f"unexpected banner from repro serve: {line!r}")
        return line[len("serving on "):].strip()

    def _server_hwm_mb(self) -> Optional[float]:
        try:
            status = pathlib.Path(f"/proc/{self.server.pid}/status")
            for line in status.read_text().splitlines():
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        except OSError:
            return None
        return None

    def close(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs.  From
        then on, times are corrected by the server's speed samples."""
        if self.server is None:
            return
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.communicate(timeout=DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.communicate()
        self.server.stdout.close()
        self._log.close()
        self.server = None
        try:
            self.speed = SpeedProbe.load(str(self._probe_file))
        except (OSError, ValueError, KeyError) as exc:
            self.fail(f"repro serve left no speed samples: {exc}")
            self.speed = SpeedProbe(clock=time.time)

    # -- load -----------------------------------------------------------------
    def measure(self, seconds: float) -> None:
        arrivals = plan(self.seed, seconds)
        self.inputs_digest = sha256_json(arrivals)
        client = ServiceClient(self.url, timeout=60.0)
        stop = threading.Event()
        lock = threading.Lock()

        def collect() -> None:
            collector = ServiceClient(self.url, timeout=60.0)
            while not stop.is_set():
                try:
                    doc = collector.metrics()
                except ReproError as exc:
                    with lock:
                        self.fail(f"/v1/metrics: {exc}")
                    break
                with lock:
                    self.backlog.append((time.monotonic(),
                                         doc["queue"]["depth"]
                                         + doc["jobs"]["running"]))
                stop.wait(1.0)

        collector = threading.Thread(target=collect, name="e2e-collector")
        start_mono = time.monotonic() + 0.05
        start_wall = time.time() + (start_mono - time.monotonic())
        collector.start()
        try:
            for arrival in arrivals:
                due = start_mono + arrival["offset_s"]
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                sent, sent_wall = time.monotonic(), time.time()
                record = {"kind": arrival["kind"], "spec": arrival["spec"],
                          "due_wall": start_wall + arrival["offset_s"],
                          "sent_wall": sent_wall, "lag_s": sent - due,
                          "job": None, "error": None, "refused": False}
                self.attempted += 1
                try:
                    record["job"] = client.submit(
                        arrival["spec"], tenant="e2e", retry=False)["id"]
                except (AdmissionError, DrainingError) as exc:
                    record["error"] = f"refused: {exc}"
                    record["refused"] = True
                except ReproError as exc:
                    record["error"] = f"{type(exc).__name__}: {exc}"
                record["rtt_s"] = time.monotonic() - sent
                self.submissions.append(record)
            window_end = time.monotonic()
            self._wait_terminal(client, deadline=window_end + 60.0)
        finally:
            stop.set()
            collector.join()
        self.jobs = {job["id"]: job for job in client.jobs()}
        self.last_metrics = client.metrics()
        self.server_rss_mb = self._server_hwm_mb()
        recent = [(t, v) for t, v in self.backlog
                  if window_end - BACKLOG_WINDOW_S <= t <= window_end]
        self.backlog_growth = _trend(recent) * BACKLOG_WINDOW_S

    def _wait_terminal(self, client: ServiceClient, *,
                       deadline: float) -> None:
        """Poll ``/v1/metrics`` until every accepted job is terminal."""
        accepted = sum(1 for s in self.submissions if s["job"] is not None)
        while time.monotonic() < deadline:
            jobs = client.metrics()["jobs"]
            terminal = (jobs["completed"] + jobs["failed"]
                        + jobs["deduped_memo"])
            if terminal >= accepted and jobs["running"] == 0:
                return
            time.sleep(0.05)

    def peak_rss_mb(self) -> Optional[float]:
        """The server's peak resident memory, not this process's."""
        return self.server_rss_mb

    def layer_metrics(self) -> Dict[str, float]:
        """Read from job timestamps and /v1/metrics, so no spans: the
        trace costs nothing."""
        return self.layers

    # -- checks ---------------------------------------------------------------
    def finish(self) -> None:
        self.close()
        latencies, executed, queue_wait = [], [], []
        rtts = [record["rtt_s"] for record in self.submissions]
        offline: Dict[str, str] = {}
        for record in self.submissions:
            sent, rtt = record["sent_wall"], record["rtt_s"]
            self.record(False, "pipeline_s", 0, sent, sent + rtt)
            job = self.jobs.get(record["job"]) if record["job"] else None
            if job is None or job["state"] != "done":
                state = record["error"] or (job or {}).get("state", "lost")
                self.fail(f"{record['kind']} submission: {state}")
                latencies.append(max(LATENCY_LIMIT_MS / 1000.0, rtt))
                self.record(False, "latency_s", 0, sent, sent + rtt,
                            seconds=latencies[-1])
                continue
            latencies.append(job["finished_at"] - record["due_wall"])
            self.record(False, "latency_s", 0, record["due_wall"],
                        job["finished_at"])
            if job["deduped"] is None:
                executed.append(job["finished_at"] - job["started_at"])
                queue_wait.append(job["started_at"] - job["submitted_at"])
            digest = job["spec_digest"]
            if digest not in offline:
                spec = ExperimentSpec.from_dict(record["spec"])
                offline[digest] = run_experiment(
                    spec, RunContext(), persist=False).manifest.result_digest
                if self.inject_mismatch and len(offline) == 1:
                    offline[digest] = "0" * 64
            got = job["manifest"]["result_digest"]
            if got != offline[digest]:
                self.fail(f"{record['kind']} job {job['id']}: result digest "
                          f"{got[:12]} != offline {offline[digest][:12]}")
        self.outputs_digest = sha256_json(sorted(offline.items()))

        lags_ms = [r["lag_s"] * 1000.0 for r in self.submissions]
        lag_p95 = percentile(lags_ms, 0.95) if lags_ms else 0.0
        if lag_p95 > LAG_LIMIT_MS:
            self.valid = False
            self.fail(f"invalid run: load generator p95 lag {lag_p95:.1f} ms "
                      f"> {LAG_LIMIT_MS:g} ms")
        if self.backlog_growth > BACKLOG_GROWTH_JOBS:
            self.valid = False
            self.fail(f"invalid run: backlog grew by {self.backlog_growth:.1f}"
                      f" jobs over the last {BACKLOG_WINDOW_S:g} s")
        p90 = percentile(latencies, 0.9) * 1000.0 if latencies else 0.0
        self.info["latency_limit_ms"] = LATENCY_LIMIT_MS
        self.info["latency_limit_met"] = p90 <= LATENCY_LIMIT_MS
        self.info["submissions"] = {
            kind: sum(1 for r in self.submissions if r["kind"] == kind)
            for kind, _ in MIX}

        def ms(values: List[float], q: float) -> float:
            return percentile(values, q) * 1000.0 if values else 0.0

        refused = sum(1 for r in self.submissions if r["refused"])
        self.layers = {
            "serve.latency_ms.p90": ms(latencies, 0.9),
            "serve.submit_rtt_ms.p50": ms(rtts, 0.5),
            "serve.queue_wait_ms.p50": ms(queue_wait, 0.5),
            "serve.queue_wait_ms.p90": ms(queue_wait, 0.9),
            "serve.exec_ms.p50": ms(executed, 0.5),
            "serve.exec_ms.p90": ms(executed, 0.9),
            "serve.dedupe_ratio": float(
                self.last_metrics.get("dedupe_ratio", 0.0)),
            "serve.backlog_max": float(max((v for _, v in self.backlog),
                                           default=0)),
            "serve.refused": float(refused),
            "loadgen.lag_ms.p95": lag_p95,
            "trace.overhead_frac": 0.0,
        }
