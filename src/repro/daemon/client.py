"""HTTP client for the replay daemon (stdlib ``http.client`` only).

:class:`DaemonClient` is what the ``repro submit/status/result/...``
subcommands use, and what scripts can import directly.  Every method
mirrors one route of :mod:`repro.daemon.server` and returns the parsed
JSON payload; API errors surface as :class:`DaemonClientError` with the
HTTP status and the server's ``error`` message (status 0 when the daemon
cannot be reached).

Connections are kept alive: each calling thread holds one HTTP/1.1
connection and sends all its requests over it, so a request costs one
round trip, not a TCP handshake plus a new handler thread on the server.
An idle connection the server has closed (its 30 s idle timeout, a
``Connection: close`` reply, a stopped daemon) is noticed before reuse
and replaced.  A request is never resent once any of its bytes went out —
a submit that may have reached the daemon is reported as an error rather
than risked twice.  :meth:`DaemonClient.close` (or a ``with`` block)
closes the connections; a client that is garbage-collected closes them
too.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import threading
import time
import urllib.parse
import weakref
from typing import Any, Dict, Iterable, Optional

from repro.daemon.server import CLIENT_HEADER, DEFAULT_HOST, DEFAULT_PORT

#: Default daemon URL the client CLI talks to.
DEFAULT_URL = f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"


class DaemonClientError(RuntimeError):
    """An API call failed; carries the HTTP status and server message."""

    def __init__(self, status: int, message: str, error_type: Optional[str] = None) -> None:
        super().__init__(f"daemon returned {status}: {message}")
        self.status = status
        self.message = message
        self.error_type = error_type


def _dropped(sock: socket.socket) -> bool:
    """True when an idle connection is readable: the server closed it (or
    sent bytes nobody asked for), so it cannot carry another request."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _close_all(connections: Iterable[http.client.HTTPConnection]) -> None:
    for connection in list(connections):
        connection.close()


class DaemonClient:
    """A client identity talking to one daemon over kept-alive connections
    (one per calling thread)."""

    def __init__(self, url: str = DEFAULT_URL, client_id: str = "anonymous", timeout: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.client_id = client_id
        self.timeout = timeout
        parts = urllib.parse.urlsplit(self.url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"daemon URL must be http://host[:port][/prefix], got {url!r}")
        self._netloc = parts.netloc
        self._prefix = parts.path
        self._local = threading.local()
        #: Every thread's connection, for close(); a thread's connection
        #: leaves it when the thread ends.
        self._connections: "weakref.WeakSet[http.client.HTTPConnection]" = weakref.WeakSet()
        weakref.finalize(self, _close_all, self._connections)

    def close(self) -> None:
        """Close every thread's connection (the next request reconnects)."""
        _close_all(self._connections)

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection, reconnected if the server closed it
        while it sat idle."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(self._netloc, timeout=self.timeout)
            self._local.connection = connection
            self._connections.add(connection)
        elif connection.sock is not None and _dropped(connection.sock):
            connection.close()  # the request below opens a new one
        return connection

    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        data = json.dumps(body, separators=(",", ":")).encode("utf-8") if body is not None else None
        headers = {CLIENT_HEADER: self.client_id, "Content-Type": "application/json"}
        connection = self._connection()
        try:
            connection.request(method, self._prefix + path, body=data, headers=headers)
            # A reply with ``Connection: close`` closes the connection
            # here, and the next request opens a new one.
            response = connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            # Some of the request may have gone out: never resend it.
            connection.close()
            raise DaemonClientError(
                0, f"cannot reach daemon at {self.url}: {str(error) or type(error).__name__}"
            ) from None
        try:
            payload = json.loads(raw)
        except ValueError:
            raise DaemonClientError(response.status, f"reply is not JSON: {raw[:80]!r}") from None
        if response.status >= 400:
            error = payload if isinstance(payload, dict) else {}
            raise DaemonClientError(
                response.status,
                str(error.get("error") or response.reason),
                error.get("error_type"),
            )
        return payload

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/health")

    def submit(
        self, kind: str, payload: Dict[str, Any], priority: int = 0
    ) -> Dict[str, Any]:
        body = {"spec": {"kind": kind, "payload": payload}, "priority": priority}
        return self._request("POST", "/jobs", body)

    def list_jobs(self, all_owners: bool = False) -> Dict[str, Any]:
        return self._request("GET", "/jobs?all=1" if all_owners else "/jobs")

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}/result")

    def snapshot(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}/snapshot")

    def pause(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/jobs/{job_id}/pause")

    def resume(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/jobs/{job_id}/resume")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    # ------------------------------------------------------------------
    def wait(
        self,
        job_id: str,
        timeout: float = 120.0,
        poll_s: float = 0.2,
        until: tuple = ("completed", "failed", "cancelled", "paused"),
    ) -> Dict[str, Any]:
        """Poll ``status`` until the job reaches a resting state."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in until:
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']!r} after {timeout}s"
                )
            time.sleep(poll_s)
