"""HTTP JSON API for the experiment service — stdlib asyncio only.

A deliberately small HTTP/1.1 server on :mod:`asyncio` streams (no
framework, no new dependency — the same stance as the rest of the
repo): every request is parsed from the raw stream, answered, and the
connection closed.  The service core stays synchronous; blocking calls
(waiting for a job, draining) hop onto the default executor so the
event loop keeps accepting connections while experiments run.

Endpoints (all JSON unless noted)::

    GET  /v1/health               liveness + draining flag
    GET  /v1/metrics              queue/jobs/cache/latency snapshot
    POST /v1/jobs                 submit {"spec": {...}, "tenant", "priority"}
                                    202 queued | 200 deduped-done
                                    400 bad spec/priority
                                    429 queue full (+ Retry-After)
                                    503 draining
    GET  /v1/jobs                 list jobs (?tenant=&limit=)
    GET  /v1/jobs/<id>            one job (?payload=1)
    GET  /v1/jobs/<id>/result     block until terminal (?timeout=s),
                                    202 + snapshot if still running
    GET  /v1/jobs/<id>/events     NDJSON event stream (?since=seq),
                                    follows the job live until terminal

Backpressure is *explicit*: a full queue is a 429 with a computed
``Retry-After`` (queue depth over observed service rate), and a
draining server answers 503 — clients are told to go away rather than
silently buffered, the failure mode the Science DMZ paper's
"engineered for the load" stance warns against.

Shutdown: ``SIGTERM``/``SIGINT`` triggers
:meth:`~repro.serve.scheduler.ExperimentService.drain` — admissions
stop, the backlog persists to ``state_dir``, in-flight jobs finish —
then the listener closes and ``drained`` is printed (the line the CI
smoke job and the drain test grep for).
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..errors import (AdmissionError, ConfigurationError, DrainingError,
                      ReproError, ServeError)
from .scheduler import ExperimentService

__all__ = ["ExperimentServer", "serve_forever", "DEFAULT_HOST",
           "DEFAULT_PORT"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8351

#: Upper bound on request bodies; a spec JSON is a few KiB.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Poll interval for the NDJSON event stream and result waits.
POLL_S = 0.05

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            408: "Request Timeout", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}


class _HttpError(Exception):
    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


class ExperimentServer:
    """Asyncio HTTP front end over one :class:`ExperimentService`."""

    def __init__(self, service: ExperimentService, *,
                 host: str = DEFAULT_HOST,
                 port: int = DEFAULT_PORT) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop = asyncio.Event()

    # -- lifecycle ------------------------------------------------------------
    async def start(self) -> "ExperimentServer":
        """Start the service workers and the listener; resolves
        ``self.port`` when 0 was requested."""
        self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        return self

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def request_stop(self) -> None:
        self._stop.set()

    async def serve_until_stopped(self, *,
                                  install_signals: bool = True) -> None:
        """Serve until SIGTERM/SIGINT (or :meth:`request_stop`), then
        drain gracefully and close."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self._stop.set)
                except (NotImplementedError, RuntimeError):
                    pass
        print(f"serving on {self.address}", flush=True)
        await self._stop.wait()
        print("draining", flush=True)
        summary = await loop.run_in_executor(None, self.service.drain)
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        print(f"drained (persisted={summary['persisted']} "
              f"in_flight={summary['completed_in_flight']})", flush=True)

    # -- request plumbing -----------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, headers = await self._read_head(reader)
                body = await self._read_body(reader, headers)
                await self._dispatch(writer, method, path, body)
            except _HttpError as exc:
                await self._send_json(writer, exc.status,
                                      {"error": str(exc)},
                                      extra_headers=exc.headers)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            except Exception as exc:  # noqa: BLE001 - last-ditch 500
                await self._send_json(
                    writer, 500,
                    {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_head(self, reader: asyncio.StreamReader
                         ) -> Tuple[str, str, Dict[str, str]]:
        raw = await reader.readuntil(b"\r\n\r\n")
        head = raw.decode("latin-1").split("\r\n")
        try:
            method, path, _version = head[0].split(" ", 2)
        except ValueError:
            raise _HttpError(400, f"malformed request line {head[0]!r}")
        headers: Dict[str, str] = {}
        for line in head[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), path, headers

    async def _read_body(self, reader: asyncio.StreamReader,
                         headers: Dict[str, str]) -> bytes:
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "bad Content-Length")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        if length <= 0:
            return b""
        return await reader.readexactly(length)

    async def _send_json(self, writer: asyncio.StreamWriter, status: int,
                         payload: object, *,
                         extra_headers: Optional[Dict[str, str]] = None
                         ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        await self._send_raw(writer, status, "application/json", body,
                             extra_headers)

    async def _send_raw(self, writer: asyncio.StreamWriter, status: int,
                        content_type: str, body: bytes,
                        extra_headers: Optional[Dict[str, str]] = None
                        ) -> None:
        reason = _REASONS.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}",
                 f"Content-Type: {content_type}",
                 f"Content-Length: {len(body)}",
                 "Connection: close"]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    # -- routing --------------------------------------------------------------
    async def _dispatch(self, writer: asyncio.StreamWriter, method: str,
                        raw_path: str, body: bytes) -> None:
        split = urlsplit(raw_path)
        path = split.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        parts = [p for p in path.split("/") if p]

        if parts == ["v1", "health"] and method == "GET":
            await self._send_json(writer, 200, {
                "ok": True, "draining": self.service.draining})
            return
        if parts == ["v1", "metrics"] and method == "GET":
            await self._send_json(writer, 200,
                                  self.service.metrics_snapshot())
            return
        if parts == ["v1", "jobs"]:
            if method == "POST":
                await self._submit(writer, body)
                return
            if method == "GET":
                limit = query.get("limit")
                if limit is not None and not limit.isdecimal():
                    raise _HttpError(
                        400, "limit must be a non-negative integer")
                rows = self.service.jobs(
                    tenant=query.get("tenant"),
                    limit=None if limit is None else int(limit))
                await self._send_json(writer, 200, {"jobs": rows})
                return
            raise _HttpError(405, f"{method} not allowed on /v1/jobs")
        if len(parts) >= 3 and parts[:2] == ["v1", "jobs"]:
            job_id = parts[2]
            tail = parts[3:]
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed here")
            if not tail:
                await self._job_snapshot(writer, job_id, query)
                return
            if tail == ["result"]:
                await self._job_result(writer, job_id, query)
                return
            if tail == ["events"]:
                await self._job_events(writer, job_id, query)
                return
        raise _HttpError(404, f"no route for {method} {path}")

    # -- handlers -------------------------------------------------------------
    async def _submit(self, writer: asyncio.StreamWriter,
                      body: bytes) -> None:
        try:
            doc = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}")
        if not isinstance(doc, dict) or "spec" not in doc:
            raise _HttpError(400, 'body must be {"spec": {...}, ...}')
        try:
            job = self.service.submit(
                doc["spec"],
                tenant=str(doc.get("tenant", "anonymous")),
                priority=str(doc.get("priority", "normal")))
        except AdmissionError as exc:
            raise _HttpError(429, str(exc), headers={
                "Retry-After": f"{exc.retry_after_s:g}"})
        except DrainingError as exc:
            raise _HttpError(503, str(exc))
        except (ConfigurationError, ReproError) as exc:
            raise _HttpError(400, f"{type(exc).__name__}: {exc}")
        status = 200 if job.terminal else 202
        await self._send_json(writer, status,
                              self.service.job_snapshot(job.id))

    async def _job_snapshot(self, writer: asyncio.StreamWriter,
                            job_id: str, query: Dict[str, str]) -> None:
        snapshot = self.service.job_snapshot(
            job_id, with_payload=query.get("payload") in ("1", "true"))
        if snapshot is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        await self._send_json(writer, 200, snapshot)

    async def _job_result(self, writer: asyncio.StreamWriter,
                          job_id: str, query: Dict[str, str]) -> None:
        try:
            timeout = float(query.get("timeout", "300"))
        except ValueError:
            raise _HttpError(400, "timeout must be a number")
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(
                None, lambda: self.service.wait(job_id, timeout=timeout))
        except ServeError as exc:
            snapshot = self.service.job_snapshot(job_id)
            if snapshot is None:
                raise _HttpError(404, f"unknown job {job_id!r}")
            # Known but not terminal in time: 202 + snapshot, client
            # may poll again.
            await self._send_json(writer, 202, dict(
                snapshot, wait_error=str(exc)))
            return
        snapshot = self.service.job_snapshot(job_id, with_payload=True)
        await self._send_json(writer, 200, snapshot)

    async def _job_events(self, writer: asyncio.StreamWriter,
                          job_id: str, query: Dict[str, str]) -> None:
        if self.service.job(job_id) is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        try:
            cursor = int(query.get("since", "0"))
        except ValueError:
            raise _HttpError(400, "since must be an integer")
        writer.write((
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n\r\n").encode("latin-1"))
        while True:
            events = self.service.job_events(job_id, since=cursor)
            for event in events:
                writer.write(
                    (json.dumps(event, sort_keys=True) + "\n"
                     ).encode("utf-8"))
                cursor = int(event["seq"]) + 1
            await writer.drain()
            job = self.service.job(job_id)
            if job is None or (job.terminal
                               and not self.service.job_events(
                                   job_id, since=cursor)):
                break
            await asyncio.sleep(POLL_S)


def serve_forever(service: ExperimentService, *, host: str = DEFAULT_HOST,
                  port: int = DEFAULT_PORT) -> None:
    """Blocking entry point for ``repro serve``: run until a signal
    triggers the graceful drain."""

    async def _main() -> None:
        server = ExperimentServer(service, host=host, port=port)
        await server.start()
        await server.serve_until_stopped()

    asyncio.run(_main())
