"""External segmenter client against the mock HTTP endpoint."""

import fcntl
import http.client
import json
import math
import random
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from synth import make_document
from windowseg.core import (
    CONTINUE,
    DEFAULT_DELIMITER as D,
    SPLIT,
    SegmentationLabels,
    Transcript,
    encode_delimited,
)
from windowseg import mock_endpoint
from windowseg.mock_endpoint import MockEndpoint, MockEndpointConfig, generate_response
from windowseg.pipeline import segment_tokens
from windowseg.segmenters import (
    EndpointConfig,
    EndpointError,
    EndpointStatusError,
    ExternalSegmenter,
    FixedLengthSegmenter,
)
from windowseg.windowing import WindowConfig, plan_windows

TOKENS = tuple(f"tok{i}" for i in range(20))


def make_client(url, sleeps=None, **kw):
    kw.setdefault("max_retries", 2)
    kw.setdefault("backoff", 0.01)
    cfg = EndpointConfig(url, **kw)
    sleep = sleeps.append if sleeps is not None else (lambda s: None)
    return cfg, sleep


class TestGenerateResponse:
    def test_echo_strips_formatting(self):
        cfg = MockEndpointConfig(mode="echo")
        assert generate_response(cfg, "a  b   c") == "a b c"

    def test_rule_is_well_formed(self):
        cfg = MockEndpointConfig(mode="rule", period=3)
        got = generate_response(cfg, " ".join(TOKENS[:7]))
        assert got == "tok0 tok1 tok2 ■ tok3 tok4 tok5 ■ tok6"

    def test_corrupt_is_deterministic_per_text(self):
        cfg = MockEndpointConfig(mode="corrupt", corrupt_rate=0.4, seed=5)
        text = " ".join(TOKENS)
        assert generate_response(cfg, text) == generate_response(cfg, text)
        assert generate_response(cfg, text + " extra") != generate_response(cfg, text)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MockEndpointConfig(mode="nope")
        with pytest.raises(ValueError):
            MockEndpointConfig(period=0)
        with pytest.raises(ValueError):
            MockEndpointConfig(corrupt_rate=1.5)

    def test_negative_fail_first_rejected(self):
        with pytest.raises(ValueError, match="fail_first"):
            MockEndpointConfig(fail_first=-1)


class TestEndpointConfig:
    def test_requires_url(self):
        with pytest.raises(ValueError):
            EndpointConfig("")

    def test_bounds(self):
        with pytest.raises(ValueError):
            EndpointConfig("http://x/", timeout=0)
        with pytest.raises(ValueError):
            EndpointConfig("http://x/", max_retries=-1)

    @pytest.mark.parametrize("key", ["timeout", "backoff"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be .* finite"):
            EndpointConfig("http://x/", **{key: value})

    def test_url_needs_http_scheme_and_host(self):
        for url in ("localhost:8080/", "ftp://x/", "http://"):
            with pytest.raises(ValueError):
                EndpointConfig(url)


class TestSegmentPaths:
    def test_rule_mode_decodes_strictly(self):
        with MockEndpoint(MockEndpointConfig(mode="rule", period=4)) as ep:
            cfg, sleep = make_client(ep.url)
            with closing(ExternalSegmenter(cfg, sleep=sleep)) as seg:
                labels = seg.segment(TOKENS[:10])
        assert labels.split_positions() == (0, 4, 8)

    def test_echo_mode_yields_single_segment(self):
        with MockEndpoint(MockEndpointConfig(mode="echo")) as ep:
            cfg, sleep = make_client(ep.url)
            with closing(ExternalSegmenter(cfg, sleep=sleep)) as seg:
                labels = seg.segment(TOKENS[:6])
        assert labels.split_positions() == (0,)

    def test_corrupt_mode_still_valid_and_deterministic(self):
        config = MockEndpointConfig(mode="corrupt", corrupt_rate=0.5, seed=3)
        rng = random.Random(0)
        doc, _ = make_document(rng, "d", n_sentences=(3, 4))
        with MockEndpoint(config) as ep:
            cfg, sleep = make_client(ep.url)
            with closing(ExternalSegmenter(cfg, sleep=sleep)) as seg:
                first = seg.segment(doc.tokens)
                second = seg.segment(doc.tokens)
        assert first == second
        assert len(first) == len(doc)
        assert first[0] is SPLIT

    def test_empty_window_skips_network(self):
        cfg, sleep = make_client("http://127.0.0.1:1/")  # nothing listens here
        with closing(ExternalSegmenter(cfg, sleep=sleep)) as seg:
            assert seg.segment(()) == SegmentationLabels(())

    def test_projection_recovers_boundaries_from_paraphrase(self):
        # A response that renames tokens but keeps delimiters in place
        # cannot decode strictly; projection keeps the boundary structure.
        labels = SegmentationLabels((SPLIT, CONTINUE, SPLIT, CONTINUE, CONTINUE))
        rendered = encode_delimited(Transcript(TOKENS[:5]), labels).render()
        paraphrase = rendered.replace("tok3", "tokX") + " uh"
        with closing(ExternalSegmenter(make_client("http://x/")[0])) as seg:
            seg.generate = lambda window, info=None: paraphrase
            assert seg.segment(TOKENS[:5]) == labels


    def test_glued_delimiters_are_projected(self):
        # A generator may glue the delimiter to a neighbouring word.
        with closing(ExternalSegmenter(make_client("http://x/")[0])) as seg:
            seg.generate = lambda window, info=None: f"tok0 tok1{D} tok2 tok3 {D}tok4"
            assert seg.segment(TOKENS[:5]) == SegmentationLabels.from_split_positions(5, [2, 4])


class TestRetries:
    def test_recovers_after_transient_failures(self):
        sleeps = []
        with MockEndpoint(MockEndpointConfig(mode="rule", period=5, fail_first=2)) as ep:
            cfg, sleep = make_client(ep.url, sleeps=sleeps, max_retries=3, backoff=0.5)
            with closing(ExternalSegmenter(cfg, sleep=sleep)) as seg:
                labels = seg.segment(TOKENS[:10])
        assert labels.split_positions() == (0, 5)
        assert sleeps == [0.5, 1.0]  # exponential backoff, one per failure

    def test_exhausted_budget_raises_with_attempt_count(self):
        with MockEndpoint(MockEndpointConfig(fail_all=True)) as ep:
            cfg, sleep = make_client(ep.url, max_retries=2)
            with closing(ExternalSegmenter(cfg, sleep=sleep)) as seg:
                with pytest.raises(EndpointError) as exc:
                    seg.segment(TOKENS[:4])
        assert exc.value.attempts == 3
        assert exc.value.url == cfg.url

    def test_fallback_takes_over(self):
        with MockEndpoint(MockEndpointConfig(fail_all=True)) as ep:
            cfg, sleep = make_client(ep.url, max_retries=0)
            with closing(
                ExternalSegmenter(cfg, fallback=FixedLengthSegmenter(2), sleep=sleep)
            ) as seg:
                labels = seg.segment(TOKENS[:5])
        assert labels.split_positions() == (0, 2, 4)

    def test_unreachable_host_raises(self):
        cfg, sleep = make_client("http://127.0.0.1:1/", max_retries=1, timeout=0.5)
        with closing(ExternalSegmenter(cfg, sleep=sleep)) as seg:
            with pytest.raises(EndpointError):
                seg.segment(TOKENS[:3])


class ScriptedServer:
    """An in-test HTTP server answering each POST with the next status code
    in turn (the last one repeats) and ``body``; counts calls and records
    request paths.

    ``close_each`` advertises HTTP/1.1 keep-alive but closes the connection
    after every response, as a server dropping idle connections does.
    """

    def __init__(
        self, *statuses, protocol="HTTP/1.1", close_each=False,
        body=b'{"text": "tok0 tok1 tok2"}',
    ):
        self.statuses = statuses or (200,)
        self.calls = 0
        self.paths = []
        self.closed = threading.Semaphore(0)  # released once per closed connection
        script = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = protocol
            disable_nagle_algorithm = True

            def do_POST(self):  # noqa: N802 - http.server API name
                self.rfile.read(int(self.headers["Content-Length"]))
                status = script.statuses[min(script.calls, len(script.statuses) - 1)]
                script.calls += 1
                script.paths.append(self.path)
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                if close_each:
                    self.close_connection = True

            def log_message(self, fmt, *args):
                pass

        class Server(ThreadingHTTPServer):
            daemon_threads = True

            def shutdown_request(self, request):
                super().shutdown_request(request)
                script.closed.release()

        self._server = Server(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}/"

    def __enter__(self):
        threading.Thread(target=self._server.serve_forever, args=(0.01,), daemon=True).start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()


@contextmanager
def scripted(server, **kw):
    """A segmenter for ``server`` and the backoffs it slept, closed on exit."""
    sleeps = []
    cfg, sleep = make_client(server.url, sleeps=sleeps, max_retries=3, **kw)
    with closing(ExternalSegmenter(cfg, sleep=sleep)) as seg:
        yield seg, sleeps


class TestClientErrors:
    @pytest.mark.parametrize("status", [400, 401, 404, 422])
    def test_client_error_is_final(self, status):
        with ScriptedServer(status) as server, scripted(server) as (seg, sleeps):
            with pytest.raises(EndpointError) as exc:
                seg.generate(TOKENS[:3])
        assert server.calls == 1
        assert sleeps == []
        assert exc.value.attempts == 1
        assert isinstance(exc.value.cause, EndpointStatusError)
        assert exc.value.cause.status == status

    @pytest.mark.parametrize("status", [408, 429, 500, 503])
    def test_retryable_status_uses_the_budget(self, status):
        with ScriptedServer(status) as server, scripted(server) as (seg, sleeps):
            with pytest.raises(EndpointError) as exc:
                seg.generate(TOKENS[:3])
        assert server.calls == 4
        assert exc.value.attempts == 4
        assert exc.value.cause.status == status
        assert len(sleeps) == 3

    def test_retry_then_success(self):
        with ScriptedServer(429, 503, 200) as server, scripted(server) as (seg, sleeps):
            assert seg.generate(TOKENS[:3]) == "tok0 tok1 tok2"
        assert server.calls == 3
        assert sleeps == [0.01, 0.02]

    def test_client_error_after_retries_stops_there(self):
        with ScriptedServer(503, 404) as server, scripted(server) as (seg, sleeps):
            with pytest.raises(EndpointError) as exc:
                seg.generate(TOKENS[:3])
        assert server.calls == 2
        assert exc.value.attempts == 2

    def test_client_error_goes_to_fallback(self):
        with ScriptedServer(400) as server, scripted(server) as (seg, sleeps):
            seg.fallback = FixedLengthSegmenter(2)
            assert seg.segment(TOKENS[:5]).split_positions() == (0, 2, 4)
        assert server.calls == 1
        assert sleeps == []


class TestBadBodies:
    def test_non_string_text_is_retried_like_any_bad_body(self):
        with ScriptedServer(body=b'{"text": 5}') as server, scripted(server) as (seg, sleeps):
            with pytest.raises(EndpointError) as exc:
                seg.segment(TOKENS[:5])
            assert server.calls == 4
            assert exc.value.attempts == 4
            assert "non-string text" in str(exc.value.cause)
            seg.fallback = FixedLengthSegmenter(2)
            assert seg.segment(TOKENS[:5]).split_positions() == (0, 2, 4)
        assert server.calls == 8
        assert len(sleeps) == 6


class TestConnections:
    def test_query_string_reaches_the_server(self):
        with ScriptedServer() as server:
            with closing(ExternalSegmenter(EndpointConfig(server.url + "gen?q=1"))) as seg:
                assert seg.generate(TOKENS[:3]) == "tok0 tok1 tok2"
        assert server.paths == ["/gen?q=1"]

    def test_windows_share_one_connection(self):
        with ScriptedServer() as server, scripted(server) as (seg, _):
            for _ in range(3):
                seg.generate(TOKENS[:3])
            assert server.closed.acquire(timeout=0.2) is False
        assert server.calls == 3

    def test_close_ends_idle_connections(self):
        with ScriptedServer() as server, scripted(server) as (seg, _):
            seg.generate(TOKENS[:3])
            assert len(seg._idle) == 1
            seg.close()
            assert seg._idle == []
            assert server.closed.acquire(timeout=5)
            # Still usable: the next request opens a new connection.
            assert seg.generate(TOKENS[:3]) == "tok0 tok1 tok2"
        assert server.calls == 2

    def test_stale_keep_alive_reconnects_without_retrying(self):
        # The server closes every connection after its response although it
        # advertised keep-alive; reusing it would fail and cost a backoff.
        with ScriptedServer(close_each=True) as server, scripted(server) as (seg, sleeps):
            for _ in range(3):
                assert seg.generate(TOKENS[:3]) == "tok0 tok1 tok2"
                assert server.closed.acquire(timeout=5)
        assert server.calls == 3
        assert sleeps == []

    def test_idle_check_takes_descriptors_past_fd_setsize(self):
        # select.select raises ValueError for a descriptor >= FD_SETSIZE
        # (1024), which would cost every window a retry.
        with ScriptedServer() as server, scripted(server) as (seg, sleeps):
            seg.generate(TOKENS[:3])
            conn = seg._idle[0]
            high = socket.socket(fileno=fcntl.fcntl(conn.sock.fileno(), fcntl.F_DUPFD, 1500))
            high.settimeout(conn.sock.gettimeout())
            conn.sock.close()
            conn.sock = high
            assert seg.generate(TOKENS[:3]) == "tok0 tok1 tok2"
            assert seg._idle == [conn] and conn.sock is high
        assert sleeps == []

    def test_http10_server_closes_each_connection(self):
        with ScriptedServer(protocol="HTTP/1.0") as server, scripted(server) as (seg, sleeps):
            for _ in range(3):
                assert seg.generate(TOKENS[:3]) == "tok0 tok1 tok2"
        assert server.calls == 3
        assert sleeps == []
        assert seg._idle == []

    def test_stopped_mock_ends_kept_alive_connections(self):
        ep = MockEndpoint(MockEndpointConfig(mode="echo")).start()
        cfg, sleep = make_client(ep.url, max_retries=0, timeout=1)
        with closing(ExternalSegmenter(cfg, sleep=sleep)) as seg:
            assert seg.generate(TOKENS[:3]) == "tok0 tok1 tok2"
            ep.stop()
            with pytest.raises(EndpointError):
                seg.generate(TOKENS[:3])

    @pytest.mark.parametrize("length", [b"-1", b"abc"])
    def test_mock_answers_a_bad_content_length_with_400(self, length):
        # read(-1) would wait for EOF, which a keep-alive client never sends.
        with MockEndpoint() as ep:
            with socket.create_connection(ep._server.server_address[:2], timeout=1) as sock:
                sock.sendall(b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: " + length + b"\r\n\r\n")
                assert sock.recv(64).startswith(b"HTTP/1.1 400 ")

    def test_mock_answers_non_string_text_with_400(self):
        with MockEndpoint() as ep:
            conn = http.client.HTTPConnection(*ep._server.server_address[:2], timeout=5)
            with closing(conn):
                conn.request("POST", "/", b'{"text": 5}', {"Content-Type": "application/json"})
                resp = conn.getresponse()
                assert resp.status == 400
                assert "string 'text'" in json.loads(resp.read())["error"]

    def test_mock_keeps_alive_without_nagle_stall(self):
        # Under the Nagle/delayed-ACK stall each exchange takes ~40 ms.
        body = json.dumps({"text": " ".join(TOKENS)}).encode()
        with MockEndpoint(MockEndpointConfig(mode="rule")) as ep:
            conn = http.client.HTTPConnection(*ep._server.server_address[:2], timeout=5)
            try:
                t0 = time.perf_counter()
                socks = []
                for _ in range(20):
                    conn.request("POST", "/", body, {"Content-Type": "application/json"})
                    resp = conn.getresponse()
                    assert resp.status == 200 and json.loads(resp.read())["text"]
                    socks.append(conn.sock)
                elapsed = time.perf_counter() - t0
            finally:
                conn.close()
        assert socks[0] is not None and all(sock is socks[0] for sock in socks)
        assert elapsed < 0.4


class TestConcurrency:
    def test_parallel_windows_match_serial(self):
        config = MockEndpointConfig(mode="corrupt", corrupt_rate=0.3, seed=11)
        rng = random.Random(1)
        windows = [make_document(rng, f"w{i}", n_sentences=(1, 2))[0].tokens for i in range(8)]
        with MockEndpoint(config) as ep:
            cfg, sleep = make_client(ep.url)
            with closing(ExternalSegmenter(cfg, sleep=sleep)) as seg:
                serial = [seg.segment(w) for w in windows]
                with ThreadPoolExecutor(max_workers=4) as pool:
                    parallel = list(pool.map(seg.segment, windows))
        assert parallel == serial

    def test_window_threads_bound_requests_in_flight(self, monkeypatch):
        lock = threading.Lock()
        in_flight = [0, 0]  # now, peak

        def slow_response(config, text):
            with lock:
                in_flight[0] += 1
                in_flight[1] = max(in_flight)
            time.sleep(0.02)
            with lock:
                in_flight[0] -= 1
            return generate_response(config, text)

        monkeypatch.setattr(mock_endpoint, "generate_response", slow_response)
        tokens = [f"tok{i}" for i in range(400)]
        window = WindowConfig(40, 5, 5)
        assert len(plan_windows(len(tokens), window)) >= 12
        with MockEndpoint(MockEndpointConfig(mode="rule")) as ep:
            with closing(ExternalSegmenter(EndpointConfig(ep.url))) as seg:
                labels = segment_tokens(tokens, seg, window, workers=3)
                assert len(seg._idle) <= 3
        assert len(labels) == len(tokens)
        assert in_flight == [0, 3]
