"""REST/JSON API over :class:`~repro.daemon.daemon.ReplayDaemon`.

Stdlib only (``http.server``) — the daemon must run wherever the replayer
runs, with no framework dependency.  The handler is a thin translation
layer: parse the route, call the daemon method, serialise the outcome via
:mod:`repro.service.serialize` (the same builders the CLI's ``--json``
mode uses, so payload shapes stay in one place).

Routes::

    GET  /health                 daemon + queue + cache + telemetry stats
    GET  /metrics                Prometheus text exposition (not JSON)
    GET  /jobs                   the caller's jobs (``?all=1``: everyone's)
    POST /jobs                   submit {"spec": {...}, "priority": n}
    GET  /jobs/<id>              job status
    GET  /jobs/<id>/result       completed job's result body
    GET  /jobs/<id>/analysis     insights diagnosis of a completed job
    GET  /jobs/<id>/snapshot     paused job's resume snapshot
    POST /jobs/<id>/pause        request a checkpoint-boundary pause
    POST /jobs/<id>/resume       requeue a paused job
    POST /jobs/<id>/cancel       cancel (cooperative when running)

The caller identifies itself with the ``X-Repro-Client`` header; every
job-specific route enforces ownership (403 on someone else's job).
Errors map onto status codes: 400 malformed request / illegal state, 403
not the owner, 404 unknown job or route, 413 a request body larger than
:data:`MAX_BODY_BYTES`, always with a JSON body
``{"error": ..., "error_type": ...}``.  A client that stalls for
:attr:`DaemonRequestHandler.timeout` seconds, or closes its connection
before the declared body arrives, is dropped without a reply.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.daemon.daemon import JobAccessError, ReplayDaemon, UnknownJobError
from repro.daemon.jobs import JobSpec, JobStateError
from repro.service import serialize
from repro.telemetry import get_logger

#: Name of the structured access-log logger — request it via
#: ``get_logger(ACCESS_LOGGER_NAME, stream=...)`` to redirect it.
ACCESS_LOGGER_NAME = "repro.daemon.http"

#: Default bind for ``python -m repro serve`` and the client CLI.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

#: Header carrying the client (owner) identity.
CLIENT_HEADER = "X-Repro-Client"

#: Job actions POST /jobs/<id>/<action> may name.
_ACTIONS = ("pause", "resume", "cancel")

#: Largest request body the API reads.  A job spec is well under 1 KiB; a
#: larger declared ``Content-Length`` is refused before any byte is read.
MAX_BODY_BYTES = 1 << 20


class BadContentLengthError(ValueError):
    """``Content-Length`` is not a non-negative integer (HTTP 400)."""


class BodyTooLargeError(Exception):
    """``Content-Length`` exceeds :data:`MAX_BODY_BYTES` (HTTP 413)."""


class DaemonRequestHandler(BaseHTTPRequestHandler):
    """One HTTP request -> one daemon call."""

    server_version = "repro-daemon"
    protocol_version = "HTTP/1.1"
    #: Seconds the socket may wait for a client's next bytes before the
    #: connection is dropped (``StreamRequestHandler`` applies it), so a
    #: stalled client cannot hold a handler thread while it stays
    #: connected.  A job spec is well under 1 KiB.
    timeout = 30.0

    # The ThreadingHTTPServer subclass below attaches the daemon here.
    @property
    def daemon_obj(self) -> ReplayDaemon:
        return self.server.replay_daemon  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        # JSON-lines via repro.telemetry, not the stdlib access-log
        # format: one parseable object per request, stamped with any
        # tracer correlation active on this thread.
        if getattr(self.server, "verbose", False):
            get_logger(ACCESS_LOGGER_NAME).info(
                format % args,
                extra={
                    "fields": {
                        "client": self.address_string(),
                        "owner": self._owner(),
                        "method": getattr(self, "command", None),
                        "path": getattr(self, "path", None),
                    }
                },
            )

    # ------------------------------------------------------------------
    def _owner(self) -> str:
        return self.headers.get(CLIENT_HEADER, "").strip() or "anonymous"

    def _reply(self, status: int, payload: Any) -> None:
        body = serialize.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _reply_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, error: BaseException) -> None:
        self._reply(
            status, {"error": str(error), "error_type": type(error).__name__}
        )

    def _read_body(self) -> Dict[str, Any]:
        raw_length = (self.headers.get("Content-Length") or "0").strip()
        if not raw_length.isdigit():
            # The body was not read, so the stream cannot carry another
            # request.
            self.close_connection = True
            raise BadContentLengthError(f"invalid Content-Length {raw_length!r}")
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise BodyTooLargeError(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        if len(raw) < length:
            # The client closed the connection mid-body.
            raise ConnectionAbortedError(
                f"request body ended after {len(raw)} of {length} bytes"
            )
        data = json.loads(raw.decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    def _route(self) -> Tuple[str, Optional[str], Optional[str]]:
        """Split the path into (head, job_id, action)."""
        path = self.path.split("?", 1)[0]
        parts = [part for part in path.split("/") if part]
        head = parts[0] if parts else ""
        job_id = parts[1] if len(parts) > 1 else None
        action = parts[2] if len(parts) > 2 else None
        return head, job_id, action

    def _wants_all(self) -> bool:
        query = self.path.split("?", 1)[1] if "?" in self.path else ""
        return any(part in ("all=1", "all=true") for part in query.split("&"))

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        head, job_id, action = self._route()
        try:
            if head == "health" and job_id is None:
                self._reply(200, self.daemon_obj.health())
            elif head == "metrics" and job_id is None:
                # Prometheus exposition format, not JSON.
                self._reply_text(
                    200,
                    self.daemon_obj.metrics_text(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif head == "jobs" and job_id is None:
                owner = None if self._wants_all() else self._owner()
                self._reply(
                    200, serialize.job_list_payload(self.daemon_obj.list_jobs(owner))
                )
            elif head == "jobs" and action is None:
                record = self.daemon_obj.get(job_id, self._owner())
                self._reply(200, serialize.job_payload(record))
            elif head == "jobs" and action == "result":
                record = self.daemon_obj.get(job_id, self._owner())
                self.daemon_obj.result(job_id)  # state check
                self._reply(200, serialize.job_result_payload(record))
            elif head == "jobs" and action == "snapshot":
                record = self.daemon_obj.get(job_id, self._owner())
                self.daemon_obj.snapshot_of(job_id)  # state check
                self._reply(200, serialize.snapshot_payload(record))
            elif head == "jobs" and action == "analysis":
                record = self.daemon_obj.get(job_id, self._owner())
                analysis = self.daemon_obj.analysis(job_id)
                self._reply(200, serialize.job_analysis_payload(record, analysis))
            else:
                self._reply(404, {"error": f"no route {self.path!r}", "error_type": "LookupError"})
        except UnknownJobError as error:
            self._error(404, error)
        except JobAccessError as error:
            self._error(403, error)
        except (JobStateError, ValueError) as error:
            self._error(400, error)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        head, job_id, action = self._route()
        try:
            if head == "jobs" and job_id is None:
                body = self._read_body()
                spec = JobSpec.from_dict(body.get("spec") or {})
                record = self.daemon_obj.submit(
                    self._owner(), spec, priority=int(body.get("priority") or 0)
                )
                self._reply(201, serialize.job_payload(record))
            elif head == "jobs" and action in _ACTIONS:
                method = getattr(self.daemon_obj, action)
                record = method(job_id, self._owner())
                self._reply(200, serialize.job_payload(record))
            else:
                self._reply(404, {"error": f"no route {self.path!r}", "error_type": "LookupError"})
        except ConnectionError:
            # The client went away mid-request: nobody is left to answer.
            self.close_connection = True
        except BodyTooLargeError as error:
            self._error(413, error)
        except UnknownJobError as error:
            self._error(404, error)
        except JobAccessError as error:
            self._error(403, error)
        except (JobStateError, KeyError, TypeError, ValueError, json.JSONDecodeError) as error:
            self._error(400, error)


class DaemonServer:
    """The daemon plus its HTTP front-end, as one start/stoppable unit.

    ``port=0`` binds an ephemeral port (tests); the bound address is
    available as :attr:`address` after construction.
    """

    def __init__(
        self,
        daemon: ReplayDaemon,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        verbose: bool = False,
    ) -> None:
        self.daemon = daemon
        # Bind the access logger to the daemon's tracer so any
        # correlation scope active on the handling thread is stamped
        # onto the JSON log records.
        get_logger(ACCESS_LOGGER_NAME, tracer=getattr(daemon, "tracer", None))
        self.httpd = ThreadingHTTPServer((host, port), DaemonRequestHandler)
        self.httpd.replay_daemon = daemon  # type: ignore[attr-defined]
        self.httpd.verbose = verbose  # type: ignore[attr-defined]
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.daemon.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-daemon-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.daemon.stop()

    def __enter__(self) -> "DaemonServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def serve_forever(self) -> None:
        """Foreground mode for ``python -m repro serve``."""
        self.daemon.start()
        try:
            self.httpd.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.httpd.server_close()
            self.daemon.stop()
