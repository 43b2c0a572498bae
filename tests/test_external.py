"""External segmenter client against the mock HTTP endpoint."""

import random
from concurrent.futures import ThreadPoolExecutor

import pytest
import requests

from synth import make_document
from windowseg.core import CONTINUE, SPLIT, SegmentationLabels, Transcript, encode_delimited
from windowseg.mock_endpoint import MockEndpoint, MockEndpointConfig, generate_response
from windowseg.segmenters import (
    EndpointConfig,
    EndpointError,
    ExternalSegmenter,
    FixedLengthSegmenter,
)

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


class TestEndpointConfig:
    def test_requires_url(self):
        with pytest.raises(ValueError):
            EndpointConfig("")

    def test_bounds(self):
        with pytest.raises(ValueError):
            EndpointConfig("http://x/", timeout=0)
        with pytest.raises(ValueError):
            EndpointConfig("http://x/", max_retries=-1)
        with pytest.raises(ValueError):
            EndpointConfig("http://x/", concurrency=0)


class TestSegmentPaths:
    def test_rule_mode_decodes_strictly(self):
        with MockEndpoint(MockEndpointConfig(mode="rule", period=4)) as ep:
            cfg, sleep = make_client(ep.url)
            seg = ExternalSegmenter(cfg, sleep=sleep)
            labels = seg.segment(TOKENS[:10])
        assert labels.split_positions() == (0, 4, 8)

    def test_echo_mode_yields_single_segment(self):
        with MockEndpoint(MockEndpointConfig(mode="echo")) as ep:
            cfg, sleep = make_client(ep.url)
            seg = ExternalSegmenter(cfg, sleep=sleep)
            labels = seg.segment(TOKENS[:6])
        assert labels.split_positions() == (0,)

    def test_corrupt_mode_still_valid_and_deterministic(self):
        config = MockEndpointConfig(mode="corrupt", corrupt_rate=0.5, seed=3)
        rng = random.Random(0)
        doc, _ = make_document(rng, "d", n_sentences=(3, 4))
        with MockEndpoint(config) as ep:
            cfg, sleep = make_client(ep.url)
            seg = ExternalSegmenter(cfg, sleep=sleep)
            first = seg.segment(doc.tokens)
            second = seg.segment(doc.tokens)
        assert first == second
        assert len(first) == len(doc)
        assert first[0] is SPLIT

    def test_empty_window_skips_network(self):
        cfg, sleep = make_client("http://127.0.0.1:1/")  # nothing listens here
        seg = ExternalSegmenter(cfg, sleep=sleep)
        assert seg.segment(()) == SegmentationLabels(())

    def test_projection_recovers_boundaries_from_paraphrase(self):
        # A response that renames tokens but keeps delimiters in place
        # cannot decode strictly; projection keeps the boundary structure.
        labels = SegmentationLabels((SPLIT, CONTINUE, SPLIT, CONTINUE, CONTINUE))
        rendered = encode_delimited(Transcript(TOKENS[:5]), labels).render()
        paraphrase = rendered.replace("tok3", "tokX") + " uh"
        seg = ExternalSegmenter(make_client("http://x/")[0])
        seg.generate = lambda window, info=None: paraphrase
        assert seg.segment(TOKENS[:5]) == labels


class TestRetries:
    def test_recovers_after_transient_failures(self):
        sleeps = []
        with MockEndpoint(MockEndpointConfig(mode="rule", period=5, fail_first=2)) as ep:
            cfg, sleep = make_client(ep.url, sleeps=sleeps, max_retries=3, backoff=0.5)
            seg = ExternalSegmenter(cfg, sleep=sleep)
            labels = seg.segment(TOKENS[:10])
        assert labels.split_positions() == (0, 5)
        assert sleeps == [0.5, 1.0]  # exponential backoff, one per failure

    def test_exhausted_budget_raises_with_attempt_count(self):
        with MockEndpoint(MockEndpointConfig(fail_all=True)) as ep:
            cfg, sleep = make_client(ep.url, max_retries=2)
            seg = ExternalSegmenter(cfg, sleep=sleep)
            with pytest.raises(EndpointError) as exc:
                seg.segment(TOKENS[:4])
        assert exc.value.attempts == 3
        assert exc.value.url == cfg.url

    def test_fallback_takes_over(self):
        with MockEndpoint(MockEndpointConfig(fail_all=True)) as ep:
            cfg, sleep = make_client(ep.url, max_retries=0)
            seg = ExternalSegmenter(cfg, fallback=FixedLengthSegmenter(2), sleep=sleep)
            labels = seg.segment(TOKENS[:5])
        assert labels.split_positions() == (0, 2, 4)

    def test_unreachable_host_raises(self):
        cfg, sleep = make_client("http://127.0.0.1:1/", max_retries=1, timeout=0.5)
        seg = ExternalSegmenter(cfg, sleep=sleep)
        with pytest.raises(EndpointError):
            seg.segment(TOKENS[:3])


class StatusSession:
    """Stands in for ``requests.Session``: answers each POST with the next
    status code in turn (the last one repeats) and counts the calls."""

    def __init__(self, *statuses):
        self.statuses = statuses
        self.calls = 0

    def post(self, url, json, timeout):
        resp = requests.Response()
        resp.status_code = self.statuses[min(self.calls, len(self.statuses) - 1)]
        resp.url = url
        resp._content = b'{"text": "tok0 tok1 tok2"}'
        self.calls += 1
        return resp


def stubbed(session, **kw):
    sleeps = []
    cfg, sleep = make_client("http://stub/", sleeps=sleeps, max_retries=3, **kw)
    seg = ExternalSegmenter(cfg, sleep=sleep)
    seg._session = lambda: session
    return seg, sleeps


class TestClientErrors:
    @pytest.mark.parametrize("status", [400, 401, 404, 422])
    def test_client_error_is_final(self, status):
        session = StatusSession(status)
        seg, sleeps = stubbed(session)
        with pytest.raises(EndpointError) as exc:
            seg.generate(TOKENS[:3])
        assert session.calls == 1
        assert sleeps == []
        assert exc.value.attempts == 1
        assert isinstance(exc.value.cause, requests.HTTPError)

    @pytest.mark.parametrize("status", [408, 429, 500, 503])
    def test_retryable_status_uses_the_budget(self, status):
        session = StatusSession(status)
        seg, sleeps = stubbed(session)
        with pytest.raises(EndpointError) as exc:
            seg.generate(TOKENS[:3])
        assert session.calls == 4
        assert exc.value.attempts == 4
        assert len(sleeps) == 3

    def test_retry_then_success(self):
        session = StatusSession(429, 503, 200)
        seg, sleeps = stubbed(session)
        assert seg.generate(TOKENS[:3]) == "tok0 tok1 tok2"
        assert session.calls == 3
        assert sleeps == [0.01, 0.02]

    def test_client_error_after_retries_stops_there(self):
        session = StatusSession(503, 404)
        seg, sleeps = stubbed(session)
        with pytest.raises(EndpointError) as exc:
            seg.generate(TOKENS[:3])
        assert session.calls == 2
        assert exc.value.attempts == 2

    def test_client_error_goes_to_fallback(self):
        session = StatusSession(400)
        seg, sleeps = stubbed(session)
        seg.fallback = FixedLengthSegmenter(2)
        assert seg.segment(TOKENS[:5]).split_positions() == (0, 2, 4)
        assert session.calls == 1
        assert sleeps == []


class TestConcurrency:
    def test_parallel_windows_match_serial(self):
        config = MockEndpointConfig(mode="corrupt", corrupt_rate=0.3, seed=11)
        rng = random.Random(1)
        windows = [make_document(rng, f"w{i}", n_sentences=(1, 2))[0].tokens for i in range(8)]
        with MockEndpoint(config) as ep:
            cfg, sleep = make_client(ep.url, concurrency=3)
            seg = ExternalSegmenter(cfg, sleep=sleep)
            serial = [seg.segment(w) for w in windows]
            with ThreadPoolExecutor(max_workers=4) as pool:
                parallel = list(pool.map(seg.segment, windows))
        assert parallel == serial
