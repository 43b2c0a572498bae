"""HTTP client for an external generative segmenter.

The remote model receives one window of plain text and returns delimited
text.  Whatever comes back, the client produces a valid labeling: strict
decoding when the model copied the input exactly, Levenshtein projection
when it paraphrased, a local fallback segmenter (or an error) when the
endpoint stays unreachable through the retry budget or rejects the
request outright (a 4xx answer other than 408 and 429, not retried).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import requests

from ..align import project_boundaries
from ..core import DEFAULT_DELIMITER, Malformed, SPLIT, SegmentationLabels, decode_delimited
from .base import WindowInfo, WindowSegmenter


class EndpointError(RuntimeError):
    """Raised when the endpoint fails past the retry budget, or answers with a
    client error that retrying cannot fix, and no fallback is set."""

    def __init__(self, url: str, attempts: int, cause: Exception):
        super().__init__(f"endpoint {url} failed after {attempts} attempts: {cause}")
        self.url = url
        self.attempts = attempts
        self.cause = cause


@dataclass(frozen=True)
class EndpointConfig:
    """Connection policy for the external segmenter."""

    url: str
    timeout: float = 10.0
    max_retries: int = 3
    backoff: float = 0.25
    concurrency: int = 4

    def __post_init__(self) -> None:
        if not self.url:
            raise ValueError("endpoint url is required")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")


def _client_error(exc: Exception) -> bool:
    """A 4xx answer that the same request would get again.

    408 (request timeout) and 429 (too many requests) say "try later",
    so they are retried like 5xx answers and connection errors.
    """
    if not isinstance(exc, requests.HTTPError) or exc.response is None:
        return False
    status = exc.response.status_code
    return 400 <= status < 500 and status not in (408, 429)


class ExternalSegmenter:
    """Window segmenter backed by a remote model over HTTP POST JSON.

    In-flight requests are bounded by a semaphore so pipelines with many
    window workers cannot stampede the endpoint.
    """

    def __init__(
        self,
        config: EndpointConfig,
        fallback: Optional[WindowSegmenter] = None,
        delimiter: str = DEFAULT_DELIMITER,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.config = config
        self.fallback = fallback
        self.delimiter = delimiter
        self._sleep = sleep
        self._gate = threading.BoundedSemaphore(config.concurrency)
        self._local = threading.local()

    def _session(self) -> requests.Session:
        if not hasattr(self._local, "session"):
            self._local.session = requests.Session()
        return self._local.session

    def _post(self, payload: dict) -> str:
        with self._gate:
            resp = self._session().post(
                self.config.url, json=payload, timeout=self.config.timeout
            )
        resp.raise_for_status()
        data = resp.json()
        text = data["text"]
        if not isinstance(text, str):
            raise ValueError(f"endpoint returned non-string text: {text!r}")
        return text

    def generate(self, window: Sequence[str], info: WindowInfo = WindowInfo()) -> str:
        """The endpoint's raw generated text for one window, with retries."""
        payload = {
            "text": " ".join(window),
            "left_context": info.left_context,
            "right_context": info.right_context,
        }
        attempts = self.config.max_retries + 1
        last: Exception = RuntimeError("no attempts made")
        for attempt in range(attempts):
            try:
                return self._post(payload)
            except (requests.RequestException, ValueError, KeyError, TypeError) as exc:
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
        decoded = decode_delimited(generated, window, self.delimiter)
        if isinstance(decoded, Malformed):
            # Rendered text always implies a suppressed delimiter before the
            # first token, so the projected labeling opens a segment there
            # just as strict decoding does.
            projected = list(project_boundaries(window, generated, self.delimiter))
            projected[0] = SPLIT
            return SegmentationLabels(tuple(projected))
        return decoded
