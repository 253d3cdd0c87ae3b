"""The HTTP/JSON transport over :class:`~repro.serve.service.CampaignService`.

Stdlib-only (``http.server.ThreadingHTTPServer``): the daemon adds no
dependencies, matching the repo's contract.  The surface is small and
boring on purpose -- every hard problem (admission, durability,
byte-identity) lives in the service layer:

* ``POST /jobs`` -- submit ``{"grid": {...}}`` or ``{"spec(s)": ...}``;
  201 on a fresh job, 200 when the digest-deduped job already exists,
  429/503 + ``Retry-After`` when admission refuses.
* ``GET /jobs`` / ``GET /jobs/<id>`` -- manifests with live journal
  counts (``landed`` is how the chaos suite watches mid-sweep progress).
* ``GET /jobs/<id>/result`` -- the canonical result document, exactly
  the bytes ``repro sweep --json`` writes for the same grid; 409 +
  ``Retry-After`` while the job is still queued/running.
* ``DELETE /jobs/<id>`` -- cancel.
* ``GET /healthz`` (liveness, always 200 while the process serves),
  ``GET /readyz`` (503 once draining), ``GET /stats`` (operational
  state), ``GET /metrics`` (the standard obs snapshot shape --
  ``repro top http://host:port/metrics`` renders it; ``?format=prom``
  serves Prometheus text exposition).

The bound endpoint is advertised in ``STATE/http.json`` (atomic write)
so tests and scripts can use ``--port 0`` without parsing logs.
"""

from __future__ import annotations

import json
import os
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.serve.service import AdmissionError, CampaignService, UnknownJob
from repro.utils.atomic import write_atomic

#: Maximum accepted request body (a grid description is tiny; anything
#: bigger is a mistake or abuse).
MAX_BODY_BYTES = 1 << 20


class ServeHandler(BaseHTTPRequestHandler):
    """One request; the service owns all state.  Every response is
    JSON except a result fetch (canonical result bytes verbatim) and
    ``/metrics?format=prom``."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def service(self) -> CampaignService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is obs's job, not stderr noise

    def _client_id(self) -> str:
        header = self.headers.get("X-Repro-Client")
        if header:
            return header.strip()[:64]
        return self.client_address[0] if self.client_address else "anon"

    def _send(self, status: int, body: bytes, content_type: str,
              headers: "dict | None" = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up

    def _json(self, status: int, doc: dict,
              headers: "dict | None" = None) -> None:
        body = (
            json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        self._send(status, body, "application/json", headers)

    def _error(self, status: int, message: str,
               headers: "dict | None" = None) -> None:
        self._json(status, {"error": message}, headers)

    def _read_body(self) -> "dict | None":
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > MAX_BODY_BYTES:
            return None
        try:
            return json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._guarded(self._get)

    def do_POST(self) -> None:  # noqa: N802
        self._guarded(self._post)

    def do_DELETE(self) -> None:  # noqa: N802
        self._guarded(self._delete)

    def _guarded(self, handler) -> None:
        try:
            handler()
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # one bad request must not kill serving
            try:
                self._error(500, f"{type(exc).__name__}: {exc}")
            except Exception:
                pass

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    def _get(self) -> None:
        path, _, query = self.path.partition("?")
        service = self.service
        if path == "/healthz":
            self._json(200, {"ok": True, "pid": os.getpid()})
        elif path == "/readyz":
            if service.draining:
                self._json(
                    503, {"ready": False, "draining": True},
                    headers={"Retry-After": 5},
                )
            else:
                self._json(200, {"ready": True})
        elif path == "/stats":
            self._json(200, service.stats())
        elif path == "/metrics":
            from repro import obs

            service.update_registry()
            doc = obs.snapshot()
            if "format=prom" in query:
                self._send(
                    200, obs.render_prometheus(doc).encode("utf-8"),
                    "text/plain; version=0.0.4",
                )
            else:
                self._json(200, doc)
        elif path == "/jobs":
            views = [
                service.job_view(job)
                for job in sorted(
                    service.store.jobs.values(), key=lambda j: j.created
                )
            ]
            self._json(200, {"jobs": views})
        elif path.startswith("/jobs/"):
            parts = path[len("/jobs/"):].split("/")
            try:
                job = service.job(parts[0])
            except UnknownJob:
                self._error(404, f"no job {parts[0]!r}")
                return
            if len(parts) == 1:
                self._json(200, service.job_view(job))
            elif len(parts) == 2 and parts[1] == "result":
                payload = service.result_payload(job.id)
                if payload is not None:
                    self._send(200, payload, "application/json")
                elif job.status in ("queued", "running"):
                    self._json(
                        409,
                        {"status": job.status, "error": "job not done"},
                        headers={"Retry-After": 1},
                    )
                else:
                    self._json(
                        409,
                        {
                            "status": job.status,
                            "error": job.error or f"job {job.status}",
                        },
                    )
            else:
                self._error(404, f"unknown path {path!r}")
        else:
            self._error(404, f"unknown path {path!r}")

    def _post(self) -> None:
        if self.path.partition("?")[0] != "/jobs":
            self._error(404, f"unknown path {self.path!r}")
            return
        request = self._read_body()
        if request is None:
            self._error(400, "request body must be a JSON object")
            return
        try:
            job, created = self.service.submit(
                request, client=self._client_id()
            )
        except AdmissionError as exc:
            self._json(
                exc.status,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": exc.retry_after},
            )
            return
        except ValueError as exc:
            self._error(400, str(exc))
            return
        view = self.service.job_view(job)
        view["created"] = created
        self._json(201 if created else 200, view)

    def _delete(self) -> None:
        path = self.path.partition("?")[0]
        if not path.startswith("/jobs/"):
            self._error(404, f"unknown path {path!r}")
            return
        job_id = path[len("/jobs/"):]
        try:
            job = self.service.cancel(job_id)
        except UnknownJob:
            self._error(404, f"no job {job_id!r}")
            return
        self._json(200, self.service.job_view(job))


def make_server(
    service: CampaignService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind the HTTP front end (``port=0`` picks an ephemeral port;
    read it back from ``server.server_address``)."""
    server = ThreadingHTTPServer((host, port), ServeHandler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    return server


def endpoint_path(state_dir: "str | Path") -> Path:
    return Path(state_dir) / "http.json"


def write_endpoint_file(
    state_dir: "str | Path", host: str, port: int
) -> Path:
    """Advertise the bound endpoint atomically (``--port 0`` discovery
    for tests, CI, and scripts)."""
    doc = {
        "url": f"http://{host}:{port}",
        "host": host,
        "port": port,
        "pid": os.getpid(),
        "started": round(time.time(), 6),
    }
    return write_atomic(
        endpoint_path(state_dir),
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
    )
