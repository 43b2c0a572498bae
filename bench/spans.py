"""Spans and counters recorded around the calls into each windowseg layer.

Tracing wraps public functions of the library's modules for the length
of a traced run and restores them afterwards; the library itself carries
no tracing code.  Each span records its name, start, end, parent span and
the document it belongs to.  Spans stay in memory until the run writes
them out.  Calls too frequent to record one span each (per-position
log-probabilities, scorer calls) are counted instead.

Span times are wall time.  A span on a window worker thread also covers
the time it waited for the interpreter lock held by another worker, so
per-layer seconds summed over threads can exceed the run's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import statistics
import threading
import time
import tracemalloc
import weakref
from collections import defaultdict
from typing import Any, Callable, Iterator, Optional


class Tracer:
    """Collects spans and counters; safe to use from pool threads."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, Optional[int], str, int, float, float]] = []
        self._thread_counts: list[dict[str, float]] = []
        self.values: dict[str, list[float]] = defaultdict(list)
        self.seen_pairs: set[tuple[int, str]] = set()
        self.doc = -1
        self.pipeline_span: Optional[int] = None
        self.largest_alignment: tuple[int, Any, tuple] = (0, None, ())
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, fallback_parent: Optional[int] = None) -> Iterator[int]:
        """Time the enclosed block as one span.

        The parent is the innermost open span of this thread; a span
        opened on a pool thread, where none is open, takes
        ``fallback_parent`` (the span that submitted the work).
        """
        stack = self._stack()
        parent = stack[-1] if stack else fallback_parent
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, parent, name, self.doc, start, end))

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a counter; each thread keeps its own, so no lock is taken per call."""
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = defaultdict(float)
            with self._lock:
                self._thread_counts.append(counts)
        counts[name] += amount

    @property
    def counts(self) -> dict[str, float]:
        """Every counter summed over threads."""
        total: dict[str, float] = defaultdict(float)
        with self._lock:
            for counts in self._thread_counts:
                for name, value in counts.items():
                    total[name] += value
        return total

    def record(self, name: str, value: float) -> None:
        with self._lock:
            self.values[name].append(value)

    def alignment_peak_mb(self) -> float:
        """Peak memory allocated while re-running the largest alignment seen.

        Measured after the traced phase, because tracing allocations slows
        every allocation in the process.
        """
        _, fn, args = self.largest_alignment
        if fn is None:
            return 0.0
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    def write(self, path) -> None:
        """One JSON object per span: id, parent, name, doc, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, doc, start, end in self.spans:
                fh.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": name, "doc": doc,
                     "start": start, "end": end}) + "\n")

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, n, _, start, end in self.spans if n == name]

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Calls, total time and self time per span name.

        Self time is a span's duration minus the part of it covered by its
        children; children on pool threads may overlap, so their union is
        subtracted.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        table: dict[str, dict[str, float]] = {}
        for span_id, _, name, _, start, end in self.spans:
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        return table


def _spanned(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


class _CountingScorer:
    """Forwards a symbol scorer, counting score_symbol calls."""

    def __init__(self, inner: Any, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.locally_normalized = getattr(inner, "locally_normalized", False)

    def score_symbol(self, hypothesis, symbol):
        self._tracer.count("automaton.score_calls")
        return self._inner.score_symbol(hypothesis, symbol)


class MissingTarget(RuntimeError):
    """A function the tracer wraps is no longer in the library."""


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap the library's layer functions; returns a function undoing it.

    A target missing from the library (renamed or removed) raises
    MissingTarget, with nothing left wrapped, so a layer cannot silently
    read zero.
    """
    import requests

    from windowseg.core import Malformed
    from windowseg.segmenters.features import history_bits

    undo: list[tuple[Any, str, Any]] = []

    def patch(module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        owner: Any = importlib.import_module(module)
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, path[-1], None) if owner is not None else None
        if original is None:
            restore()
            raise MissingTarget(f"{module}.{attr} not found; update bench/spans.py")
        undo.append((owner, path[-1], original))
        setattr(owner, path[-1], make(original))

    def spanned(name: str) -> Callable[[Callable], Callable]:
        return lambda fn: _spanned(tracer, name, fn)

    def static_features(fn):
        @functools.wraps(fn)
        def wrapper(cfg, tokens, t):
            n = len(tokens)
            pairs = {(delta, tokens[t + delta] if 0 <= t + delta < n else "<pad>")
                     for delta in range(-cfg.context_radius, cfg.context_radius + 1)}
            with tracer._lock:
                new = len(pairs - tracer.seen_pairs)
                tracer.seen_pairs |= pairs
            tracer.count("features.pairs", len(pairs))
            tracer.count("features.new_pairs", new)
            with tracer.span("features.static_features"):
                return fn(cfg, tokens, t)
        return wrapper

    distinct: "weakref.WeakKeyDictionary[Any, set]" = weakref.WeakKeyDictionary()

    def logprobs(fn):
        @functools.wraps(fn)
        def wrapper(self, t, prefix):
            # One window's conditionals are used by one thread only.
            keys = distinct.get(self)
            if keys is None:
                keys = distinct[self] = set()
            before = len(keys)
            keys.add((t, history_bits(prefix, t, self.model.config.history)))
            tracer.count("autoregressive.logprobs_new", len(keys) - before)
            tracer.count("autoregressive.logprobs_calls")
            return fn(self, t, prefix)
        return wrapper

    def constrained_search(fn):
        @functools.wraps(fn)
        def wrapper(a, scorer, strategy):
            with tracer.span("automaton.search"):
                return fn(a, _CountingScorer(scorer, tracer), strategy)
        return wrapper

    def segment_tokens(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span("pipeline.segment_tokens") as span_id:
                tracer.pipeline_span = span_id
                return fn(*args, **kwargs)
        return wrapper

    def plan_windows(fn):
        @functools.wraps(fn)
        def wrapper(n, cfg):
            with tracer.span("windowing.plan_windows"):
                windows = fn(n, cfg)
            tracer.count("windowing.windows", len(windows))
            return windows
        return wrapper

    def generate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count("external.generate_calls")
            with tracer.span("external.generate"):
                return fn(*args, **kwargs)
        return wrapper

    def post(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                resp = fn(*args, **kwargs)
            except requests.RequestException:
                tracer.count("external.endpoint_errors")
                raise
            if resp.status_code >= 400:
                tracer.count("external.endpoint_errors")
            return resp
        return wrapper

    def decode_delimited(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.count("core.decode_calls")
            if not isinstance(result, Malformed):
                tracer.count("core.strict_decodes")
            return result
        return wrapper

    def levenshtein_align(fn):
        @functools.wraps(fn)
        def wrapper(reference, generated):
            with tracer.span("align.levenshtein"):
                alignment = fn(reference, generated)
            tracer.record("align.cost", alignment.total_cost)
            cells = len(reference) * len(generated)
            with tracer._lock:
                if cells > tracer.largest_alignment[0]:
                    tracer.largest_alignment = (cells, fn, (reference, generated))
            return alignment
        return wrapper

    def restore() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
        undo.clear()

    project = spanned("align.project")
    patch("windowseg.segmenters.autoregressive", "static_features", static_features)
    patch("windowseg.segmenters.autoregressive", "CachedConditionals.logprobs", logprobs)
    patch("windowseg.segmenters.autoregressive", "AutoregressiveSegmenter.scorer",
          spanned("autoregressive.scorer_init"))
    patch("windowseg.segmenters.autoregressive", "build_automaton", spanned("automaton.build"))
    patch("windowseg.segmenters.autoregressive", "constrained_search", constrained_search)
    patch("windowseg.segmenters.features", "train_feature_model", spanned("features.train"))
    patch("windowseg.pipeline", "load_model", spanned("features.load_model"))
    patch("windowseg.pipeline", "segment_tokens", segment_tokens)
    patch("windowseg.pipeline", "plan_windows", plan_windows)
    patch("windowseg.pipeline", "stitch", spanned("windowing.stitch"))
    patch("windowseg.segmenters.external", "ExternalSegmenter.generate", generate)
    patch("windowseg.segmenters.external", "decode_delimited", decode_delimited)
    patch("windowseg.segmenters.external", "project_boundaries", project)
    patch("windowseg.align", "project_boundaries", project)
    patch("windowseg.align", "levenshtein_align", levenshtein_align)
    patch("windowseg.align", "project_oracle", spanned("align.project_oracle"))
    patch("windowseg.rules", "RulePunctuation.derive_labels", spanned("rules.derive_labels"))
    patch("requests", "Session.post", post)
    return restore


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, tokens: int, workers: int, setups: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json from one traced phase.

    ``setups`` divides the set-up spans (training, model loading) so they
    read per set-up, like ``setup_s``.
    """
    table = tracer.layer_table()
    counts = tracer.counts

    def total(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    windows = counts["windowing.windows"]
    generate_ms = [d * 1000 for d in tracer.durations("external.generate")]
    window_time = sum(tracer.durations("window"))
    costs = tracer.values["align.cost"]
    return {
        "features.static_features_s": (total("features.static_features"), "s"),
        "features.static_features_calls_per_token": (
            ratio(table.get("features.static_features", {}).get("calls", 0), tokens), "1/token"),
        "features.token_reuse_share": (
            ratio(counts["features.pairs"] - counts["features.new_pairs"], counts["features.pairs"]),
            "ratio"),
        "features.train_s": (total("features.train") / setups, "s"),
        "features.load_model_s": (total("features.load_model") / setups, "s"),
        "autoregressive.scorer_init_s": (total("autoregressive.scorer_init"), "s"),
        "autoregressive.logprobs_calls": (
            ratio(counts["autoregressive.logprobs_calls"], windows), "1/window"),
        "autoregressive.logprobs_new_share": (
            ratio(counts["autoregressive.logprobs_new"], counts["autoregressive.logprobs_calls"]),
            "ratio"),
        "automaton.build_s": (total("automaton.build"), "s"),
        "automaton.search_s": (total("automaton.search"), "s"),
        "automaton.score_calls_per_window": (
            ratio(counts["automaton.score_calls"], windows), "1/window"),
        "pipeline.segment_tokens_s": (total("pipeline.segment_tokens"), "s"),
        "pipeline.self_s": (table.get("pipeline.segment_tokens", {}).get("self_s", 0.0), "s"),
        "pipeline.parallel_efficiency": (
            ratio(window_time, total("pipeline.segment_tokens") * workers), "ratio"),
        "windowing.plan_windows_s": (total("windowing.plan_windows"), "s"),
        "windowing.stitch_s": (total("windowing.stitch"), "s"),
        "windowing.windows": (windows, "count"),
        "external.generate_ms_p50": (percentile(generate_ms, 50) if generate_ms else 0.0, "ms"),
        "external.generate_ms_p99": (percentile(generate_ms, 99) if generate_ms else 0.0, "ms"),
        "external.generate_calls": (counts["external.generate_calls"], "count"),
        "external.endpoint_errors": (counts["external.endpoint_errors"], "count"),
        "core.strict_decode_share": (ratio(counts["core.strict_decodes"], counts["core.decode_calls"]), "ratio"),
        "align.project_s": (total("align.project"), "s"),
        "align.project_calls": (table.get("align.project", {}).get("calls", 0), "count"),
        "align.cost_mean": (statistics.fmean(costs) if costs else 0.0, "edits"),
        "align.levenshtein_s": (total("align.levenshtein"), "s"),
        "align.levenshtein_peak_mb": (tracer.alignment_peak_mb(), "MB"),
        "rules.derive_labels_s": (total("rules.derive_labels"), "s"),
    }
