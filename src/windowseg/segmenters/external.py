"""HTTP client for an external generative segmenter.

The remote model receives one window of plain text and returns delimited
text.  Whatever comes back, the client produces a valid labeling: strict
decoding when the model copied the input exactly, Levenshtein projection
when it paraphrased, a local fallback segmenter (or an error) when the
endpoint stays unreachable through the retry budget or rejects the
request outright (a 4xx answer other than 408 and 429, not retried).

Requests go over persistent HTTP/1.1 connections (stdlib ``http.client``),
so a document's windows do not each pay a TCP (and TLS) handshake.
"""

from __future__ import annotations

import http.client
import json
import math
import selectors
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence
from urllib.parse import urlsplit

from ..align import project_boundaries
from ..core import Malformed, SPLIT, SegmentationLabels, decode_delimited
from .base import WindowInfo, WindowSegmenter


class EndpointError(RuntimeError):
    """Raised when the endpoint fails past the retry budget, or answers with a
    client error that retrying cannot fix, and no fallback is set."""

    def __init__(self, url: str, attempts: int, cause: Exception):
        super().__init__(f"endpoint {url} failed after {attempts} attempts: {cause}")
        self.url = url
        self.attempts = attempts
        self.cause = cause


class EndpointStatusError(Exception):
    """The endpoint answered with a status outside 2xx (``.status``)."""

    def __init__(self, status: int, reason: str):
        super().__init__(f"HTTP {status} {reason}".rstrip())
        self.status = status


class EndpointAddress(NamedTuple):
    """Where an endpoint URL points: scheme, host, port and request target."""

    scheme: str
    host: str
    port: Optional[int]
    target: str


def parse_endpoint_url(url: str) -> EndpointAddress:
    """Split an ``http``/``https`` URL with a host; ValueError otherwise.

    The request target keeps the URL's query string.
    """
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https"):
        raise ValueError(f"endpoint url {url!r} needs an http:// or https:// scheme")
    if not parts.hostname:
        raise ValueError(f"endpoint url {url!r} has no host")
    if parts.username is not None:
        raise ValueError(f"endpoint url {url!r} carries credentials, which are not sent")
    port = parts.port  # ValueError for a port that is not a number in range
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    return EndpointAddress(parts.scheme, parts.hostname, port, target)


@dataclass(frozen=True)
class EndpointConfig:
    """Connection policy for the external segmenter."""

    url: str
    timeout: float = 10.0
    max_retries: int = 3
    backoff: float = 0.25

    def __post_init__(self) -> None:
        parse_endpoint_url(self.url)
        if not 0 < self.timeout < math.inf:  # also rejects NaN
            raise ValueError("timeout must be positive and finite")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0 <= self.backoff < math.inf:
            raise ValueError("backoff must be >= 0 and finite")


# What one attempt can raise short of a programming error: socket errors and
# timeouts (OSError), protocol errors, a bad status, or a body that is not
# JSON with a string "text" field.
_ATTEMPT_ERRORS = (
    OSError, http.client.HTTPException, EndpointStatusError, ValueError, KeyError, TypeError
)


def _client_error(exc: Exception) -> bool:
    """A 4xx answer that the same request would get again.

    408 (request timeout) and 429 (too many requests) say "try later",
    so they are retried like 5xx answers and connection errors.
    """
    if not isinstance(exc, EndpointStatusError):
        return False
    return 400 <= exc.status < 500 and exc.status not in (408, 429)


def _closed_by_server(conn: http.client.HTTPConnection) -> bool:
    """Whether an idle connection can no longer carry an exchange.

    An idle socket that polls readable has seen the server's FIN (or stray
    bytes).  A selector, unlike ``select.select``, takes descriptors past
    FD_SETSIZE.
    """
    with selectors.DefaultSelector() as sel:
        sel.register(conn.sock, selectors.EVENT_READ)
        return bool(sel.select(0))


def _response_text(status: int, reason: str, body: bytes) -> str:
    if not 200 <= status < 300:
        raise EndpointStatusError(status, reason)
    text = json.loads(body)["text"]
    if not isinstance(text, str):
        raise ValueError(f"endpoint returned non-string text: {text!r}")
    return text


class ExternalSegmenter:
    """Window segmenter backed by a remote model over HTTP POST JSON.

    Safe to share between threads.  A call holds one connection at a
    time and opens a new one only when no idle one is left, so the threads
    calling it bound both the requests in flight and the idle keep-alive
    connections.  Those are kept on the segmenter, not per thread, so they
    outlive the thread pool of each document.  In a pipeline the callers
    are the window threads of ``segment_tokens``, whose auto count
    ``PipelineConfig`` caps at 4, since the client is CPU-bound on
    projection (measured in ``PipelineConfig.__post_init__``).  ``close``
    ends the idle connections.
    """

    def __init__(
        self,
        config: EndpointConfig,
        fallback: Optional[WindowSegmenter] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.config = config
        self.fallback = fallback
        self._sleep = sleep
        self._address = parse_endpoint_url(config.url)
        self._idle: list[http.client.HTTPConnection] = []

    def close(self) -> None:
        """Close the idle keep-alive connections.

        The segmenter stays usable: a later request opens a new connection.
        """
        while True:
            try:
                conn = self._idle.pop()
            except IndexError:
                return
            conn.close()

    def _connection(self) -> http.client.HTTPConnection:
        """An idle connection the server has not closed, else a new one."""
        while True:
            try:
                conn = self._idle.pop()
            except IndexError:
                break
            if not _closed_by_server(conn):
                return conn
            conn.close()
        scheme, host, port, _ = self._address
        kind = http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
        return kind(host, port, timeout=self.config.timeout)

    def _post(self, body: bytes) -> str:
        conn = self._connection()
        try:
            conn.request("POST", self._address.target, body, {"Content-Type": "application/json"})
            resp = conn.getresponse()
            text = _response_text(resp.status, resp.reason, resp.read())
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            self._idle.append(conn)
        return text

    def generate(self, window: Sequence[str], info: WindowInfo = WindowInfo()) -> str:
        """The endpoint's raw generated text for one window, with retries."""
        body = json.dumps({
            "text": " ".join(window),
            "left_context": info.left_context,
            "right_context": info.right_context,
        }).encode("utf-8")
        attempts = self.config.max_retries + 1
        last: Exception = RuntimeError("no attempts made")
        for attempt in range(attempts):
            try:
                return self._post(body)
            except _ATTEMPT_ERRORS as exc:
                if _client_error(exc):
                    raise EndpointError(self.config.url, attempt + 1, exc) from exc
                last = exc
                if attempt + 1 < attempts:
                    self._sleep(self.config.backoff * (2 ** attempt))
        raise EndpointError(self.config.url, attempts, last)

    def segment(
        self, window: Sequence[str], info: WindowInfo = WindowInfo()
    ) -> SegmentationLabels:
        window = tuple(window)
        if not window:
            return SegmentationLabels(())
        try:
            generated = self.generate(window, info)
        except EndpointError:
            if self.fallback is None:
                raise
            return self.fallback.segment(window, info)
        decoded = decode_delimited(generated, window)
        if isinstance(decoded, Malformed):
            # Rendered text always implies a suppressed delimiter before the
            # first token, so the projected labeling opens a segment there
            # just as strict decoding does.
            projected = list(project_boundaries(window, generated))
            projected[0] = SPLIT
            return SegmentationLabels(tuple(projected))
        return decoded
