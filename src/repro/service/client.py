"""A retrying stdlib HTTP client for the campaign service.

The client embodies the protocol the server's durability is designed
around: every request is safe to retry because submission is idempotent
(content-hash job ids) and reads are stateless.  ``ServiceClient``
therefore retries connection errors, 5xx responses, and 429 load-shed
responses (honouring ``Retry-After``) on a deterministic backoff
schedule, and — when pointed at a service *root* rather than a fixed
URL — re-reads ``server.json`` before each attempt so it transparently
follows the server across a kill/restart onto a new ephemeral port.
That behaviour is exactly what the chaos harness exercises.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from .server import HOLD_S, read_server_info


class ServiceUnavailable(RuntimeError):
    """The service could not be reached within the retry budget."""


class ClientError(RuntimeError):
    """The service rejected the request (4xx other than 429)."""

    def __init__(self, status: int, payload: Any):
        self.status = status
        self.payload = payload
        message = payload.get("error") if isinstance(payload, dict) else payload
        super().__init__(f"HTTP {status}: {message}")


class ServiceClient:
    """Talk to one campaign service.

    ``target`` is either a base URL (``http://host:port``) or a service
    root directory, in which case the bound address is (re-)discovered
    from ``<root>/server.json`` on every attempt — surviving restarts
    onto new ports.
    """

    def __init__(
        self,
        target: Union[str, Path],
        *,
        attempts: int = 10,
        backoff_base: float = 0.2,
        backoff_cap: float = 3.0,
        timeout: float = 30.0,
    ):
        target = str(target)
        if target.startswith("http://") or target.startswith("https://"):
            self.base_url: Optional[str] = target.rstrip("/")
            self.root: Optional[Path] = None
        else:
            self.base_url = None
            self.root = Path(target)
        self.attempts = attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.timeout = timeout

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _url(self, path: str) -> Optional[str]:
        if self.base_url is not None:
            return f"{self.base_url}{path}"
        info = read_server_info(self.root) if self.root is not None else None
        if info is None or not info.get("url"):
            return None
        return f"{str(info['url']).rstrip('/')}{path}"

    def _backoff(self, attempt: int) -> float:
        return min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))

    def request(
        self, method: str, path: str, body: Optional[Any] = None
    ) -> Tuple[int, Any]:
        """One logical request with retries; returns ``(status, payload)``.

        Retried: connection failures (server dead or mid-restart), 5xx,
        and 429 (sleeping ``Retry-After`` capped by the backoff cap).
        Returned to the caller: 2xx and non-429 4xx.  Raises
        :class:`ServiceUnavailable` when the budget runs out.
        """
        last_error: Optional[str] = None
        for attempt in range(1, self.attempts + 1):
            url = self._url(path)
            if url is None:
                last_error = f"no server.json under {self.root}"
            else:
                data = (
                    json.dumps(body).encode("utf-8") if body is not None else None
                )
                request = urllib.request.Request(
                    url,
                    data=data,
                    method=method,
                    headers={"Content-Type": "application/json"}
                    if data is not None
                    else {},
                )
                try:
                    with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                        return resp.status, json.loads(resp.read().decode("utf-8"))
                except urllib.error.HTTPError as exc:
                    payload = self._json_body(exc)
                    if exc.code == 429 or exc.code == 503:
                        retry_after = _retry_after(exc, payload)
                        last_error = f"HTTP {exc.code} (retry-after {retry_after}s)"
                        time.sleep(min(retry_after, self.backoff_cap))
                        continue
                    if exc.code >= 500:
                        last_error = f"HTTP {exc.code}"
                    else:
                        return exc.code, payload
                except (urllib.error.URLError, ConnectionError, OSError) as exc:
                    last_error = f"{type(exc).__name__}: {exc}"
            if attempt < self.attempts:
                time.sleep(self._backoff(attempt))
        raise ServiceUnavailable(
            f"{method} {path} failed after {self.attempts} attempt(s): {last_error}"
        )

    @staticmethod
    def _json_body(exc: urllib.error.HTTPError) -> Any:
        try:
            return json.loads(exc.read().decode("utf-8"))
        except (ValueError, OSError):
            return {"error": str(exc)}

    # ------------------------------------------------------------------
    # the API
    # ------------------------------------------------------------------
    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """POST the spec; returns the job summary (existing or created).
        Raises :class:`ClientError` on a 400 (bad spec)."""
        status, payload = self.request("POST", "/jobs", spec)
        if status >= 400:
            raise ClientError(status, payload)
        return payload

    def status(self) -> Dict[str, Any]:
        status, payload = self.request("GET", "/status")
        if status >= 400:
            raise ClientError(status, payload)
        return payload

    def jobs(self) -> List[Dict[str, Any]]:
        status, payload = self.request("GET", "/jobs")
        if status >= 400:
            raise ClientError(status, payload)
        return payload["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        status, payload = self.request("GET", f"/jobs/{job_id}")
        if status >= 400:
            raise ClientError(status, payload)
        return payload

    def result(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The terminal payload, or None while the job is still live."""
        status, payload = self.request("GET", f"/jobs/{job_id}/result")
        if status == 409:
            return None
        if status >= 400:
            raise ClientError(status, payload)
        return payload

    def drain(self) -> None:
        self.request("POST", "/drain")

    def wait(
        self, job_id: str, *, timeout: float = 600.0, poll: float = 0.3
    ) -> Dict[str, Any]:
        """Block until the job is terminal; returns its result payload
        (the job summary for a failed job that left none).

        Each request is one bounded hold, ``GET /jobs/<id>?wait=S``,
        which the server answers the moment the job is terminal, with
        the result in the summary.  ``S`` stays below both the server's
        cap (:data:`~repro.service.server.HOLD_S`) and half this
        client's socket timeout, so a held request never reads as a dead
        server; a server killed mid-hold drops the connection, which
        :meth:`request` retries, re-reading ``server.json`` to follow a
        restart.  ``poll`` is the pause before asking again after a
        non-terminal answer that came back early: a server that ignores
        ``?wait=``, or a queued job on a draining server."""
        deadline = time.monotonic() + timeout
        while True:
            asked = time.monotonic()
            hold = max(0.0, min(deadline - asked, self.timeout / 2, HOLD_S))
            status, summary = self.request("GET", f"/jobs/{job_id}?wait={hold:.3f}")
            if status >= 400:
                raise ClientError(status, summary)
            if summary.get("state") in ("done", "failed"):
                result = summary.get("result")
                return summary if result is None else result
            now = time.monotonic()
            if now >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {summary.get('state')!r} "
                    f"after {timeout:.0f}s"
                )
            if now - asked < hold:
                time.sleep(poll)

    def events(self, job_id: str, *, since: int = 0) -> Iterator[Dict[str, Any]]:
        """Yield NDJSON progress events from the streaming endpoint, then
        the job's summary.  One-shot (no restart-following): intended for
        live tailing.  A quiet job costs nothing here: the server writes
        a blank keep-alive line (skipped) after every
        :data:`~repro.service.server.HOLD_S` without an event, so this
        client's socket timeout must exceed that (the default does)."""
        url = self._url(f"/jobs/{job_id}/events?since={since}")
        if url is None:
            raise ServiceUnavailable(f"no server.json under {self.root}")
        with urllib.request.urlopen(url, timeout=self.timeout) as resp:
            for line in resp:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))


def _retry_after(exc: urllib.error.HTTPError, payload: Any) -> float:
    header = exc.headers.get("Retry-After") if exc.headers else None
    if header:
        try:
            return float(header)
        except ValueError:
            pass
    if isinstance(payload, dict) and "retry_after" in payload:
        try:
            return float(payload["retry_after"])
        except (TypeError, ValueError):
            pass
    return 1.0
