"""A local HTTP stand-in for a remote generative segmenter.

Serves the same wire protocol as the real thing: POST JSON with "text",
"left_context", "right_context", answering {"text": generated}.  Three
behaviors cover the client's paths: echo (no delimiters), rule (delimiter
every few tokens, well-formed), corrupt (token edits and delimiter spam
that force the Levenshtein fallback).  Responses are a pure function of
(config, request text): the corruption RNG is re-seeded per request from
a content hash, so concurrent and repeated runs are byte-identical.
Failure injection flags exercise the retry and fallback policies.
"""

from __future__ import annotations

import json
import socket
import string
import threading
import zlib
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from random import Random

from .core import DEFAULT_DELIMITER

MODES = ("echo", "rule", "corrupt")


@dataclass(frozen=True)
class MockEndpointConfig:
    """Behavior flags for the mock server."""

    mode: str = "rule"
    period: int = 7
    corrupt_rate: float = 0.15
    seed: int = 13
    fail_first: int = 0
    fail_all: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if not 0.0 <= self.corrupt_rate <= 1.0:
            raise ValueError("corrupt_rate must be in [0, 1]")
        if self.fail_first < 0:
            raise ValueError("fail_first must be >= 0")


def generate_response(cfg: MockEndpointConfig, text: str) -> str:
    """The served text for one request body; pure and deterministic."""
    tokens = text.split()
    if cfg.mode == "echo":
        return " ".join(tokens)
    symbols: list[str] = []
    for i, tok in enumerate(tokens):
        if i > 0 and i % cfg.period == 0:
            symbols.append(DEFAULT_DELIMITER)
        symbols.append(tok)
    if cfg.mode == "rule":
        return " ".join(symbols)
    rng = Random(zlib.crc32(f"{cfg.seed}|{text}".encode("utf-8")))
    out: list[str] = []
    for sym in symbols:
        if rng.random() >= cfg.corrupt_rate:
            out.append(sym)
            continue
        op = rng.choice(("drop", "dup", "mutate", "spam_delim", "insert_tok"))
        if op == "drop":
            continue
        if op == "dup":
            out.extend((sym, sym))
        elif op == "mutate" and sym != DEFAULT_DELIMITER:
            out.append(sym + rng.choice(string.ascii_lowercase))
        elif op == "spam_delim":
            out.extend((DEFAULT_DELIMITER, sym))
        else:
            out.extend((rng.choice(("uh", "um", "hmm", "er")), sym))
    if rng.random() < cfg.corrupt_rate:
        out.append(DEFAULT_DELIMITER)
    return " ".join(out)


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, handler, config: MockEndpointConfig):
        # Set before binding: a failed bind calls server_close, which reads them.
        self.config = config
        self.failures_left = config.fail_first
        self.lock = threading.Lock()
        self.open_requests: set[socket.socket] = set()
        super().__init__(address, handler)

    def process_request(self, request, client_address) -> None:
        with self.lock:
            self.open_requests.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self.lock:
            self.open_requests.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Also end kept-alive connections, so a stopped endpoint answers no one."""
        super().server_close()
        with self.lock:
            for request in self.open_requests:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:  # the client closed it already
                    pass

    def take_failure(self) -> bool:
        """True when this request should fail (500)."""
        if self.config.fail_all:
            return True
        with self.lock:
            if self.failures_left > 0:
                self.failures_left -= 1
                return True
        return False


class _Handler(BaseHTTPRequestHandler):
    # Keep-alive, so a client's windows share one connection.  Without
    # TCP_NODELAY the body write, sent after the headers, waits on the
    # client's delayed ACK (Nagle) for tens of milliseconds per request.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: _Server

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802 - http.server API name
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:  # rfile.read(-1) would wait for EOF, not answer
                raise ValueError("negative Content-Length")
            data = json.loads(self.rfile.read(length).decode("utf-8"))
            text = data["text"]
            if not isinstance(text, str):
                raise ValueError("text must be a string")
        except (ValueError, KeyError, json.JSONDecodeError):
            self._send(400, {"error": "expected JSON with a string 'text' field"})
            return
        if self.server.take_failure():
            self._send(500, {"error": "injected failure"})
            return
        self._send(200, {"text": generate_response(self.server.config, text)})

    def log_message(self, fmt: str, *args) -> None:  # quiet by default
        pass


class MockEndpoint:
    """Owns a mock server on an ephemeral (or fixed) port.

    Usable as a context manager in tests; `serve_forever` runs it in the
    foreground for the CLI.
    """

    def __init__(
        self,
        config: MockEndpointConfig = MockEndpointConfig(),
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.config = config
        self._server = _Server((host, port), _Handler, config)
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/"

    def start(self) -> "MockEndpoint":
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def serve_forever(self) -> None:
        try:
            self._server.serve_forever()
        finally:
            self._server.server_close()

    def __enter__(self) -> "MockEndpoint":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
