"""Blocking client for the experiment service (stdlib ``http.client``).

The client is what ``repro submit`` and ``repro jobs`` use and what
the load bench hammers the server with.  It speaks the small JSON API
of :mod:`repro.serve.api` and encodes the protocol's etiquette:

* **429 Too Many Requests** — honored: the client sleeps for the
  server's ``Retry-After`` hint (capped) and retries, up to
  ``max_retries`` times before surfacing the
  :class:`~repro.errors.AdmissionError`.  Backpressure only works when
  clients cooperate.
* **503 draining** — surfaced immediately as
  :class:`~repro.errors.DrainingError`; a draining server will not
  come back for this connection, retrying is pointless.
* **400** — surfaced as :class:`~repro.errors.ConfigurationError`
  (bad input, CLI exit code 2); other failures raise
  :class:`~repro.errors.ServeError` (operational, exit code 1).

Every request uses ``Connection: close`` — one TCP connection per
call, matching the server — so the client is trivially thread-safe:
the load bench runs one instance from many threads.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Iterator, List, Optional
from urllib.parse import urlencode, urlsplit

from ..errors import (AdmissionError, ConfigurationError, DrainingError,
                      ServeError)

__all__ = ["ServiceClient"]

#: Never sleep longer than this on one 429, whatever the server hints.
MAX_RETRY_SLEEP_S = 5.0


class ServiceClient:
    """Talk to one experiment service at ``base_url``."""

    def __init__(self, base_url: str, *, timeout: float = 60.0,
                 max_retries: int = 8) -> None:
        try:
            split = urlsplit(base_url if "//" in base_url
                             else f"http://{base_url}")
            port = split.port
        except ValueError as exc:
            raise ConfigurationError(
                f"bad service URL {base_url!r}: {exc}")
        if split.scheme not in ("", "http"):
            raise ConfigurationError(
                f"only http:// service URLs are supported, got {base_url!r}")
        self.host = split.hostname or "127.0.0.1"
        self.port = port or 80
        self.timeout = float(timeout)
        self.max_retries = int(max_retries)

    # -- transport ------------------------------------------------------------
    def _request(self, method: str, path: str, *,
                 body: Optional[Dict] = None,
                 query: Optional[Dict[str, object]] = None):
        """One request → ``(status, headers, parsed-JSON body)``."""
        if query:
            pairs = {k: v for k, v in query.items() if v is not None}
            if pairs:
                path = f"{path}?{urlencode(pairs)}"
        payload = (None if body is None
                   else json.dumps(body).encode("utf-8"))
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            headers = {"Connection": "close"}
            if payload is not None:
                headers["Content-Type"] = "application/json"
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException) as exc:
                raise ServeError(
                    f"cannot reach service at {self.host}:{self.port}: "
                    f"{exc}")
            try:
                doc = json.loads(raw.decode("utf-8")) if raw else None
            except ValueError:
                doc = {"error": raw.decode("utf-8", "replace")}
            return response.status, dict(response.getheaders()), doc
        finally:
            conn.close()

    @staticmethod
    def _error_text(doc: object, fallback: str) -> str:
        if isinstance(doc, dict) and doc.get("error"):
            return str(doc["error"])
        return fallback

    def _raise_for(self, status: int, headers: Dict[str, str],
                   doc: object, context: str) -> None:
        message = self._error_text(doc, f"{context}: HTTP {status}")
        if status == 429:
            raise AdmissionError(message, retry_after_s=float(
                headers.get("Retry-After", 1.0)))
        if status == 503:
            raise DrainingError(message)
        if status == 400:
            raise ConfigurationError(message)
        if status == 404:
            raise ServeError(message)
        raise ServeError(f"{context}: HTTP {status}: {message}")

    # -- API ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        status, headers, doc = self._request("GET", "/v1/health")
        if status != 200:
            self._raise_for(status, headers, doc, "health")
        return doc

    def metrics(self) -> Dict[str, object]:
        status, headers, doc = self._request("GET", "/v1/metrics")
        if status != 200:
            self._raise_for(status, headers, doc, "metrics")
        return doc

    def submit(self, spec: Dict, *, tenant: str = "anonymous",
               priority: str = "normal",
               retry: bool = True) -> Dict[str, object]:
        """Submit a spec document; returns the job snapshot.

        With ``retry`` (default), 429 responses are retried after the
        server's ``Retry-After`` hint, up to ``max_retries`` attempts.
        """
        body = {"spec": spec, "tenant": tenant, "priority": priority}
        attempts = 0
        while True:
            status, headers, doc = self._request("POST", "/v1/jobs",
                                                 body=body)
            if status in (200, 202):
                return doc
            if status == 429 and retry and attempts < self.max_retries:
                attempts += 1
                hint = float(headers.get("Retry-After", 1.0))
                time.sleep(min(MAX_RETRY_SLEEP_S, max(0.05, hint)))
                continue
            self._raise_for(status, headers, doc, "submit")

    def job(self, job_id: str, *,
            payload: bool = False) -> Dict[str, object]:
        status, headers, doc = self._request(
            "GET", f"/v1/jobs/{job_id}",
            query={"payload": 1 if payload else None})
        if status != 200:
            self._raise_for(status, headers, doc, f"job {job_id}")
        return doc

    def jobs(self, *, tenant: Optional[str] = None,
             limit: Optional[int] = None) -> List[Dict[str, object]]:
        status, headers, doc = self._request(
            "GET", "/v1/jobs", query={"tenant": tenant, "limit": limit})
        if status != 200:
            self._raise_for(status, headers, doc, "jobs")
        return list(doc["jobs"])

    def result(self, job_id: str, *,
               timeout: float = 300.0) -> Dict[str, object]:
        """Block until the job is terminal; returns the full snapshot
        (manifest + payload).  Raises :class:`ServeError` on a failed
        job or when the wait times out."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServeError(
                    f"job {job_id} not finished after {timeout}s")
            status, headers, doc = self._request(
                "GET", f"/v1/jobs/{job_id}/result",
                query={"timeout": round(max(0.05, remaining), 3)})
            if status == 200:
                if doc.get("state") == "failed":
                    raise ServeError(
                        f"job {job_id} failed: {doc.get('error')}")
                return doc
            if status == 202:
                continue
            self._raise_for(status, headers, doc, f"result {job_id}")

    def run(self, spec: Dict, *, tenant: str = "anonymous",
            priority: str = "normal",
            timeout: float = 300.0) -> Dict[str, object]:
        """Submit and wait: the one-call path ``repro submit`` uses."""
        job = self.submit(spec, tenant=tenant, priority=priority)
        return self.result(job["id"], timeout=timeout)

    def events(self, job_id: str, *,
               since: int = 0) -> Iterator[Dict[str, object]]:
        """Stream the job's NDJSON events; yields dicts until the
        server ends the stream (job terminal)."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            try:
                conn.request("GET", f"/v1/jobs/{job_id}/events?since={since}",
                             headers={"Connection": "close"})
                response = conn.getresponse()
            except (OSError, http.client.HTTPException) as exc:
                raise ServeError(
                    f"cannot reach service at {self.host}:{self.port}: "
                    f"{exc}")
            if response.status != 200:
                raw = response.read()
                try:
                    doc = json.loads(raw.decode("utf-8"))
                except ValueError:
                    doc = None
                self._raise_for(response.status,
                                dict(response.getheaders()), doc,
                                f"events {job_id}")
            buffer = b""
            while True:
                chunk = response.read(4096)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        yield json.loads(line.decode("utf-8"))
        finally:
            conn.close()
