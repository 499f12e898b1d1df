"""ExperimentService: the multi-tenant scheduler behind ``repro serve``.

This is the service core, HTTP-free and fully testable in-process: a
bounded :class:`~repro.serve.queue.FairQueue` in front of a pool of
scheduler threads, each executing accepted jobs through the very same
:func:`repro.experiment.run_experiment` door the offline CLI uses —
which is the whole reproducibility argument: a manifest produced by
the service is byte-for-byte the manifest ``repro run`` produces,
because both are the same pure function of (spec, code, seed).

Three layers of deduplication make identical submissions near-free,
in the order a submission meets them:

1. **result memo** — a completed digest is answered immediately from
   an in-memory LRU of ``(manifest, payload)``; the job is born done;
2. **in-flight coalescing** — a digest currently queued or running
   attaches to the primary job and completes when it does (a thundering
   herd of identical submissions costs one execution);
3. **result cache** — all jobs share one concurrency-safe
   :class:`~repro.exec.cache.ResultCache`, so even a memo-evicted or
   post-restart resubmission re-executes into cache hits.

Graceful drain (``SIGTERM`` → :meth:`drain`): admissions stop
(:class:`~repro.errors.DrainingError` → HTTP 503), queued jobs are
persisted to ``state_dir/queue.json`` in fair order (reloaded on the
next start), in-flight jobs run to completion, and a final
``jobs.json`` snapshot records every job's terminal state.

Telemetry: counters/gauges under the ``serve`` component in a
:class:`~repro.telemetry.MetricsRegistry` (submitted/admitted/
rejected/deduped/completed/failed, queue depth, running), plus exact
queue-latency samples for the p50/p99 the load bench reports.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import ConfigurationError, DrainingError, ServeError
from ..exec.cache import ResultCache
from ..experiment import ExperimentSpec, RunContext, run_experiment
from ..telemetry import MetricsRegistry
from .job import (DEFAULT_PRIORITY, DONE, FAILED, PERSISTED,
                  PRIORITY_CLASSES, QUEUED, RUNNING, Job)
from .queue import FairQueue

__all__ = ["ExperimentService"]

#: Schema of the persisted queue file.
STATE_SCHEMA_VERSION = 1

QUEUE_STATE_FILE = "queue.json"
JOBS_STATE_FILE = "jobs.json"


def _atomic_write_json(path: pathlib.Path, data: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


class ExperimentService:
    """Accept, schedule, deduplicate and execute experiment specs.

    Parameters
    ----------
    workers:
        Scheduler threads executing jobs concurrently.  ``0`` creates
        no threads — jobs queue until :meth:`step` runs them, which is
        how the backpressure/fairness tests hold the queue still.
    capacity:
        Queue bound; submissions beyond it are rejected with an
        :class:`~repro.errors.AdmissionError` (HTTP 429).
    cache:
        Shared :class:`ResultCache`, a directory path for one, or None.
    state_dir:
        Where drain persists the queue and restart restores it from;
        None disables persistence.
    inner_workers:
        Process-pool size *within* one job's sweep (default 1: the
        scheduler threads are the parallelism; a mostly-idle service
        can instead run few jobs with big pools).
    tenant_weights:
        ``{tenant: weight}`` for the fair queue (default weight 1).
    """

    COMPONENT = "serve"

    def __init__(self, *, workers: int = 2, capacity: int = 1024,
                 cache: Optional[ResultCache | str | os.PathLike] = None,
                 state_dir: Optional[os.PathLike | str] = None,
                 inner_workers: int = 1,
                 tenant_weights: Optional[Dict[str, float]] = None,
                 memo_limit: int = 4096,
                 latency_sample_limit: int = 100_000,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if workers < 0:
            raise ConfigurationError(
                f"service workers must be >= 0, got {workers}")
        self.workers = int(workers)
        self.inner_workers = max(1, int(inner_workers))
        if isinstance(cache, (str, os.PathLike)):
            cache = ResultCache(cache)
        self.cache = cache
        self.state_dir = (pathlib.Path(state_dir)
                          if state_dir is not None else None)
        self.queue = FairQueue(capacity, tenant_weights=tenant_weights)
        self.metrics = metrics if metrics is not None else MetricsRegistry()

        self._lock = threading.Lock()
        self._completion = threading.Condition(self._lock)
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._inflight: Dict[str, str] = {}      # digest -> primary job id
        self._memo: "OrderedDict[str, Tuple[Dict, Dict]]" = OrderedDict()
        self._memo_limit = int(memo_limit)
        self._latencies: List[float] = []
        self._latency_limit = int(latency_sample_limit)
        self._next_id = 1
        self._threads: List[threading.Thread] = []
        self._draining = False
        self._started = False

        counter = self.metrics.counter
        self._c_submitted = counter("submitted", component=self.COMPONENT)
        self._c_admitted = counter("admitted", component=self.COMPONENT)
        self._c_rejected = counter("rejected", component=self.COMPONENT)
        self._c_memo = counter("deduped_memo", component=self.COMPONENT)
        self._c_inflight = counter("deduped_inflight",
                                   component=self.COMPONENT)
        self._c_completed = counter("completed", component=self.COMPONENT)
        self._c_failed = counter("failed", component=self.COMPONENT)
        self._c_restored = counter("restored", component=self.COMPONENT)
        self._c_persisted = counter("persisted", component=self.COMPONENT)
        self._g_depth = self.metrics.gauge("queue_depth",
                                           component=self.COMPONENT)
        self._g_running = self.metrics.gauge("running",
                                             component=self.COMPONENT)
        self._h_latency = self.metrics.histogram("queue_latency_s",
                                                 component=self.COMPONENT)
        self._g_depth.set(0)
        self._g_running.set(0)
        self._running_count = 0

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "ExperimentService":
        """Restore persisted queue state and launch the worker threads."""
        if self._started:
            return self
        self._started = True
        self.restore_state()
        for n in range(self.workers):
            thread = threading.Thread(target=self._worker_loop,
                                      name=f"serve-worker-{n}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    @property
    def draining(self) -> bool:
        return self._draining

    # -- submission -----------------------------------------------------------
    def submit(self, spec: "ExperimentSpec | str | Mapping", *,
               tenant: str = "anonymous",
               priority: str = DEFAULT_PRIORITY) -> Job:
        """Validate, canonicalize, dedupe and (maybe) enqueue one spec.

        Raises :class:`~repro.errors.ConfigurationError` for a bad
        spec or priority (HTTP 400), :class:`AdmissionError` when the
        queue is full (429), :class:`DrainingError` while draining
        (503).  Returns the job record — possibly already ``done``
        when the digest was memoized.
        """
        if priority not in PRIORITY_CLASSES:
            known = ", ".join(sorted(PRIORITY_CLASSES))
            raise ConfigurationError(
                f"unknown priority class {priority!r}; "
                f"known classes: {known}")
        if isinstance(spec, str):
            spec = ExperimentSpec.from_json(spec)
        elif isinstance(spec, Mapping):
            spec = ExperimentSpec.from_dict(spec)
        canonical = spec.to_json()
        digest = spec.digest()
        points_total = spec.points()

        with self._lock:
            self._c_submitted.inc()
            if self._draining:
                raise DrainingError(
                    "service is draining; submissions are closed")
            job = Job(
                id=self._new_id(),
                tenant=str(tenant),
                priority=priority,
                spec_kind=spec.kind,
                spec_name=spec.name,
                spec_digest=digest,
                spec_json=canonical,
                points_total=points_total,
            )

            memo = self._memo.get(digest)
            if memo is not None:
                self._memo.move_to_end(digest)
                manifest, payload = memo
                now = time.time()
                job.state = DONE
                job.deduped = "memo"
                job.started_at = now
                job.finished_at = now
                job.manifest = manifest
                job.payload = payload
                job.points_done = points_total or 0
                job.add_event("done", deduped="memo",
                              result_digest=manifest.get("result_digest"))
                self._jobs[job.id] = job
                self._c_memo.inc()
                self._record_latency(job)
                self._completion.notify_all()
                return job

            primary_id = self._inflight.get(digest)
            if primary_id is not None:
                primary = self._jobs[primary_id]
                job.deduped = "inflight"
                job.primary_id = primary_id
                job.state = primary.state if primary.state in (
                    QUEUED, RUNNING) else QUEUED
                primary.attached.append(job.id)
                self._jobs[job.id] = job
                job.add_event("attached", primary=primary_id)
                self._c_inflight.inc()
                return job

            # Full admission: the job owns an execution slot.
            try:
                self.queue.push(job, tenant=job.tenant,
                                priority=job.priority,
                                workers=max(1, self.workers))
            except ConfigurationError:
                raise
            except ServeError:
                self._c_rejected.inc()
                raise
            self._jobs[job.id] = job
            self._inflight[digest] = job.id
            self._c_admitted.inc()
            self._g_depth.set(len(self.queue))
            job.add_event("queued", priority=job.priority,
                          tenant=job.tenant)
            return job

    def _new_id(self) -> str:
        job_id = f"job-{self._next_id:06d}"
        self._next_id += 1
        return job_id

    # -- execution ------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self.queue.pop(timeout=0.2)
            if job is None:
                if self._draining:
                    return
                continue
            with self._lock:
                self._g_depth.set(len(self.queue))
            self._execute(job)

    def step(self, timeout: float = 0.0) -> Optional[Job]:
        """Pop and execute one queued job inline (the ``workers=0``
        test mode and a handy REPL tool).  None when the queue is
        empty."""
        job = self.queue.pop(timeout=timeout)
        if job is None:
            return None
        with self._lock:
            self._g_depth.set(len(self.queue))
        self._execute(job)
        return job

    def _execute(self, job: Job) -> None:
        spec = ExperimentSpec.from_json(job.spec_json)
        with self._lock:
            job.state = RUNNING
            job.started_at = time.time()
            self._running_count += 1
            self._g_running.set(self._running_count)
            job.add_event("running")
            for attached_id in job.attached:
                self._jobs[attached_id].state = RUNNING

        def progress(event: str, fields: Mapping[str, object]) -> None:
            if event != "point":
                return
            with self._lock:
                job.add_point_event(index=fields.get("index"),
                                    cached=fields.get("cached"))

        started = time.perf_counter()
        ctx = RunContext(workers=self.inner_workers, cache=self.cache,
                         progress=progress)
        try:
            result = run_experiment(spec, ctx, persist=False)
        except Exception as exc:  # noqa: BLE001 - job-level isolation
            self._finish(job, error=f"{type(exc).__name__}: {exc}")
        else:
            self._finish(job, manifest=result.manifest.to_dict(),
                         payload=result.payload)
        finally:
            self.queue.observe_service_time(time.perf_counter() - started)
            with self._lock:
                self._running_count -= 1
                self._g_running.set(self._running_count)

    def _finish(self, job: Job, *, manifest: Optional[Dict] = None,
                payload: Optional[Dict] = None,
                error: Optional[str] = None) -> None:
        now = time.time()
        with self._lock:
            members = [job] + [self._jobs[a] for a in job.attached]
            for member in members:
                member.finished_at = now
                if member is not job:
                    member.started_at = (member.started_at
                                         or job.started_at or now)
                if error is None:
                    member.state = DONE
                    member.manifest = manifest
                    member.payload = payload
                    member.points_done = (job.points_total
                                          or job.points_done)
                    member.add_event(
                        "done",
                        result_digest=manifest.get("result_digest"))
                    self._c_completed.inc()
                else:
                    member.state = FAILED
                    member.error = error
                    member.add_event("failed", error=error)
                    self._c_failed.inc()
                self._record_latency(member)
            if error is None:
                self._memo[job.spec_digest] = (manifest, payload)
                while len(self._memo) > self._memo_limit:
                    self._memo.popitem(last=False)
            if self._inflight.get(job.spec_digest) == job.id:
                del self._inflight[job.spec_digest]
            self._completion.notify_all()

    def _record_latency(self, job: Job) -> None:
        latency = job.queue_latency_s
        if latency is None:
            return
        self._h_latency.observe(latency)
        if len(self._latencies) < self._latency_limit:
            self._latencies.append(latency)

    # -- queries --------------------------------------------------------------
    def job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def job_snapshot(self, job_id: str, *,
                     with_payload: bool = False) -> Optional[Dict]:
        with self._lock:
            job = self._jobs.get(job_id)
            return None if job is None else job.to_dict(
                with_payload=with_payload)

    def job_events(self, job_id: str, since: int = 0) -> List[Dict]:
        """Events past ``since`` (their ``seq`` is the next cursor)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return []
            return [dict(e) for e in job.events[since:]]

    def jobs(self, *, tenant: Optional[str] = None,
             limit: Optional[int] = None) -> List[Dict]:
        with self._lock:
            rows = [j.to_dict() for j in self._jobs.values()
                    if tenant is None or j.tenant == tenant]
        if limit is not None:
            rows = rows[max(len(rows) - limit, 0):]
        return rows

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> Job:
        """Block until the job reaches a terminal state; returns it.

        Raises :class:`ServeError` on unknown id or timeout.
        """
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._lock:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    raise ServeError(f"unknown job {job_id!r}")
                if job.terminal:
                    return job
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    raise ServeError(
                        f"job {job_id!r} still {job.state!r} after "
                        f"{timeout}s")
                self._completion.wait(timeout=remaining)

    def latency_quantiles(self) -> Dict[str, object]:
        with self._lock:
            samples = sorted(self._latencies)
        if not samples:
            return {"count": 0, "p50_s": None, "p90_s": None,
                    "p99_s": None, "max_s": None}

        def q(p: float) -> float:
            idx = min(len(samples) - 1,
                      max(0, int(round(p * (len(samples) - 1)))))
            return round(samples[idx], 6)

        return {"count": len(samples), "p50_s": q(0.50),
                "p90_s": q(0.90), "p99_s": q(0.99),
                "max_s": round(samples[-1], 6)}

    def metrics_snapshot(self) -> Dict[str, object]:
        """The ``/v1/metrics`` document: queue, jobs, dedupe, cache,
        latency quantiles."""
        with self._lock:
            admitted = int(self._c_admitted.value)
            memo = int(self._c_memo.value)
            inflight = int(self._c_inflight.value)
            submitted = int(self._c_submitted.value)
            accepted = admitted + memo + inflight
            snapshot: Dict[str, object] = {
                "draining": self._draining,
                "queue": {
                    "depth": len(self.queue),
                    "capacity": self.queue.capacity,
                },
                "jobs": {
                    "submitted": submitted,
                    "admitted": admitted,
                    "rejected": int(self._c_rejected.value),
                    "accepted": accepted,
                    "deduped_memo": memo,
                    "deduped_inflight": inflight,
                    "completed": int(self._c_completed.value),
                    "failed": int(self._c_failed.value),
                    "running": self._running_count,
                    "restored": int(self._c_restored.value),
                    "persisted": int(self._c_persisted.value),
                },
                "dedupe_ratio": (round((memo + inflight) / accepted, 4)
                                 if accepted else 0.0),
            }
        snapshot["cache"] = (self.cache.stats()
                             if self.cache is not None else None)
        snapshot["queue_latency"] = self.latency_quantiles()
        return snapshot

    # -- drain / persistence --------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> Dict[str, int]:
        """Stop admissions, persist the backlog, finish in-flight jobs.

        Returns ``{"persisted": n, "completed_in_flight": m}``.  Safe
        to call twice (the second call is a no-op summary).
        """
        with self._lock:
            already = self._draining
            self._draining = True
        if already:
            return {"persisted": 0, "completed_in_flight": 0}

        backlog = self.queue.drain()
        persisted = 0
        with self._lock:
            for job in backlog:
                job.state = PERSISTED
                job.add_event("persisted")
                self._c_persisted.inc()
                persisted += 1
                if self._inflight.get(job.spec_digest) == job.id:
                    del self._inflight[job.spec_digest]
            self._g_depth.set(0)
            self._completion.notify_all()
        self._persist_backlog(backlog)

        with self._lock:
            in_flight = self._running_count
        self.queue.close()
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        for thread in self._threads:
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            thread.join(timeout=remaining)
        with self._lock:
            self._completion.notify_all()
        self._persist_jobs_index()
        return {"persisted": persisted, "completed_in_flight": in_flight}

    def _persist_backlog(self, backlog: List[Job]) -> None:
        if self.state_dir is None:
            return
        entries = [{
            "id": job.id,
            "tenant": job.tenant,
            "priority": job.priority,
            "spec": json.loads(job.spec_json),
            "submitted_at": job.submitted_at,
        } for job in backlog]
        _atomic_write_json(self.state_dir / QUEUE_STATE_FILE,
                           {"schema": STATE_SCHEMA_VERSION,
                            "jobs": entries})

    def _persist_jobs_index(self) -> None:
        if self.state_dir is None:
            return
        with self._lock:
            rows = [j.to_dict() for j in self._jobs.values()]
        _atomic_write_json(self.state_dir / JOBS_STATE_FILE,
                           {"schema": STATE_SCHEMA_VERSION, "jobs": rows})

    def restore_state(self) -> int:
        """Re-enqueue jobs a previous drain persisted; returns count."""
        if self.state_dir is None:
            return 0
        path = self.state_dir / QUEUE_STATE_FILE
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return 0
        if data.get("schema") != STATE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"persisted queue {path} has schema "
                f"{data.get('schema')!r}; this service speaks "
                f"{STATE_SCHEMA_VERSION}")
        restored = 0
        for entry in data.get("jobs") or ():
            spec = ExperimentSpec.from_dict(entry["spec"])
            with self._lock:
                job = Job(
                    id=str(entry.get("id") or self._new_id()),
                    tenant=str(entry.get("tenant", "anonymous")),
                    priority=str(entry.get("priority", DEFAULT_PRIORITY)),
                    spec_kind=spec.kind,
                    spec_name=spec.name,
                    spec_digest=spec.digest(),
                    spec_json=spec.to_json(),
                    submitted_at=float(entry.get("submitted_at", 0.0)
                                       or time.time()),
                    points_total=spec.points(),
                )
                self.queue.push(job, tenant=job.tenant,
                                priority=job.priority,
                                workers=max(1, self.workers))
                self._jobs[job.id] = job
                if job.spec_digest not in self._inflight:
                    self._inflight[job.spec_digest] = job.id
                self._c_restored.inc()
                self._g_depth.set(len(self.queue))
                job.add_event("restored")
                self._bump_id_counter(job.id)
                restored += 1
        if restored:
            path.unlink(missing_ok=True)
        return restored

    def _bump_id_counter(self, job_id: str) -> None:
        try:
            n = int(job_id.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            return
        self._next_id = max(self._next_id, n + 1)
