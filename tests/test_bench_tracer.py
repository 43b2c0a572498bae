"""The benchmark's tracer still finds every library function it wraps.

``bench/spans.py`` wraps library functions by name for a traced run and
raises ``MissingTarget`` when one is renamed or removed.  Instrumenting
and restoring here makes such drift fail the test suite, not only a
traced benchmark run.  A wrapped function the library stops calling
would still be found but read zero, so the scorer's counters are also
checked on one decoded window.
"""

import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

MODULES = (
    "windowseg.segmenters.autoregressive",
    "windowseg.segmenters.features",
    "windowseg.segmenters.external",
    "windowseg.pipeline",
    "windowseg.align",
    "windowseg.rules",
    "requests",
)


def namespaces():
    """Every module the tracer patches and every class it holds."""
    for name in MODULES:
        module = importlib.import_module(name)
        yield name, module
        for attr, value in vars(module).items():
            if inspect.isclass(value):
                yield f"{name}.{attr}", value


def snapshot():
    return {name: dict(vars(owner)) for name, owner in namespaces()}


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def test_instrument_finds_every_target_and_restore_undoes_it(spans):
    import requests

    from windowseg.segmenters import autoregressive, features

    before = snapshot()
    restore = spans.instrument(spans.Tracer())  # MissingTarget if one is gone
    try:
        assert autoregressive.static_features is not features.static_features
        assert (autoregressive.CachedConditionals.logprobs
                is not before["windowseg.segmenters.autoregressive.CachedConditionals"]["logprobs"])
        assert requests.Session.post is not before["requests.Session"]["post"]
    finally:
        restore()
    after = snapshot()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        for attr, value in attrs.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"


def test_decoding_a_window_counts_scorer_calls(spans):
    # The conditionals count only while the scorer calls its own
    # ``logprobs``, and the counter keys a weak dictionary on the scorer.
    # Greedy decoding decides on each position's logit without the
    # acceptor, so it makes neither call; both counters are read under beam.
    from windowseg.automaton import beam
    from windowseg.segmenters import AutoregressiveSegmenter, FeatureConfig, FeatureModel

    model = FeatureModel.zeros(FeatureConfig(hash_dims=64))
    window = [f"t{i}" for i in range(8)]
    counts = {}
    for segmenter in (AutoregressiveSegmenter(model), AutoregressiveSegmenter(model, beam(2))):
        tracer = spans.Tracer()
        restore = spans.instrument(tracer)
        try:
            segmenter.segment(window)
        finally:
            restore()
        counts[segmenter.strategy.kind] = tracer.counts
    assert counts["greedy"]["autoregressive.logprobs_calls"] == 0
    assert counts["greedy"]["automaton.score_calls"] == 0
    assert counts["beam"]["autoregressive.logprobs_calls"] > 0
    assert counts["beam"]["automaton.score_calls"] > 0


def test_oracle_projection_records_the_alignment(spans):
    # ``spans`` reads ``total_cost`` off every alignment and re-runs the
    # largest one for its memory peak; projection must go through the
    # wrapped ``levenshtein_align`` for either to read more than zero.
    from windowseg.align import levenshtein_align, project_oracle
    from windowseg.core import normalize_text

    reference = "The cat sat down. The dog stood up. Birds flew away."
    ref_tokens = normalize_text(reference)
    asr = ["the", "cat", "sad", "down", "the", "dog", "up", "birds", "flew", "away"]
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        project_oracle(reference, asr)
    finally:
        restore()
    assert tracer.values["align.cost"] == [levenshtein_align(asr, ref_tokens).total_cost]
    table = tracer.layer_table()
    assert "align.levenshtein" in table and "align.project" in table
    assert tracer.alignment_peak_mb() > 0
