"""The windowseg benchmark: one workload per run, closed loop, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload greedy-zipf --seed 1 --seconds 20 --trace 0

Workloads (one client processes documents one after another):

- ``greedy-zipf``: autoregressive segmenter, greedy search, on Zipfian
  documents of mixed length.  Feature extraction dominates.
- ``beam16-zipf``: the same documents with ``beam:16``.  Constrained search
  dominates; the feature cost is the same as in ``greedy-zipf``.
- ``external-corrupt``: external segmenter against ``windowseg
  mock-endpoint --mode corrupt`` in a separate process.  HTTP round trips,
  strict decoding and window-scale Levenshtein projection; no features,
  no search.
- ``oracle-long``: ``project_oracle`` on a punctuated reference and a
  corrupted ASR copy of 10k tokens.  Document-scale alignment; no windows.

Documents go through the same calls as ``windowseg segment``
(``load_config`` -> ``build_segmenter`` -> ``segment_tokens`` ->
``render_segments``) with the library defaults, ``workers=0`` included.
Set-up (generating the corpus, training, saving and loading the model,
starting the endpoint) is repeated and its median reported as
``setup_s``.  On ``oracle-long``, which has no windows, the window
latencies time each ``project_oracle`` call, one per document.

The window p99 is the median of the p99s of successive stretches of at
least 1,000 windows, so each has ten samples above it; a run of a
windowed workload segments for ``--seconds`` and at least 1,000 windows,
so that there is at least one stretch.  It is printed by every run, but
it is a per-layer metric (``pipeline.window_ms_p99``, from the untraced
half of a traced run), not an end-to-end one: on a shared 2-vCPU host the
window tail follows the load that other tenants put on the CPUs, which
the host-speed scaling does not undo, and runs of the same code spread by
more than the end-to-end bounds allow.

Times are reported at a reference host speed (see ``HostSpeed``): a fixed
loop is timed between documents, and every time metric of the documents
is scaled by the ratio of the loop's reference time to its mean time in
the run.  The loop is pure Python, except on ``oracle-long``, which spends
its time in numpy row operations and is scaled by a numpy row loop
(``ArrayHostSpeed``).  Each set-up is scaled by the pure-Python loop timed
just before and after it.  ``tok_per_s`` counts the time spent segmenting
and rendering documents, not the loops or the checks.  The unscaled
figures are kept under ``raw`` in the result file.

Every document is checked: one decision per token with SPLIT at position
0, the same output bytes as earlier passes and earlier runs of the same
code and seed, and, for the first document, the same bytes at
``workers=1``.  A document failing a check counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` processes
documents untraced for half the time, then the same documents again with
each layer wrapped in spans, and prints the per-layer metrics with the
tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
lines above it give the environment, the document and window counts,
``fail_share`` and the output digest; ``.bench_out/`` receives the full
result, the stored digests and the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence

import corpus
import spans as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("greedy-zipf", "beam16-zipf", "external-corrupt", "oracle-long")
ENDPOINT_START_TIMEOUT_S = 60.0
MAX_EXTRA_S = 40.0  # a loop short of its windows ends this long after --seconds


@dataclass(frozen=True)
class Size:
    """Corpus and set-up sizes; ``tiny`` exists for the self-check."""

    name: str
    train_docs: int
    train_len: tuple[int, int]
    docs: int              # for the feature-model workloads
    external_docs: int     # the external segmenter is several times faster
    doc_len: tuple[int, int]
    oracle_pairs: int
    oracle_tokens: int
    setups: int
    min_windows: int       # a run segments at least this many windows


# Corpora hold more than a run processes at the time of writing, so
# documents repeat only after a large speed-up.
SIZES = {
    "full": Size("full", 8, (400, 800), 80, 240, (400, 4000), 30, 10_000, 5, 1000),
    "tiny": Size("tiny", 2, (60, 120), 3, 3, (60, 300), 2, 300, 1, 10),
}


class SetupError(RuntimeError):
    """Set-up could not complete (the endpoint did not start)."""


@dataclass
class Outcome:
    """One processed document: what the checks and metrics need."""

    index: int
    tokens: int = 0
    digest: str = ""
    f1_counts: tuple[int, int, int] = (0, 0, 0)
    problems: list[str] = field(default_factory=list)
    seconds: float = 0.0  # time to segment and render


# ---------------------------------------------------------------------------
# Host speed


class HostSpeed:
    """A fixed pure-Python loop, timed between documents and between set-ups.

    On a shared virtual machine each CPU switches, every few seconds,
    between a fast state and one nearly twice as slow, and the share of
    slow time drifts over minutes; on a 2-vCPU VM, unscaled ``tok_per_s``
    of 20-second runs spread by a quarter between runs.  The loop calls no windowseg
    code, so its time moves only with the host, and its mean over a run
    tracks the run's throughput closely.  Wall times are scaled by
    ``REFERENCE_S`` over that mean: the reported times are those of a host
    on which the loop takes ``REFERENCE_S``.  The unscaled times are kept
    in the result file.
    """

    REFERENCE_S = 0.010  # near the loop's median time on a shared 2-vCPU x86-64 VM

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, after_s: float = 0.0) -> None:
        """Time the loop once, and once more per half second of ``after_s``."""
        for _ in range(1 + int(after_s / 0.5)):
            start = time.perf_counter()
            self.loop()
            self.samples.append(time.perf_counter() - start)

    @staticmethod
    def loop() -> None:
        table: dict[int, int] = {}
        for i in range(10_000):
            key = zlib.crc32(b"%d:%d:%d" % (i % 11, i % 7, i)) & 0xFFFFF
            table[key] = table.get(key, 0) + 1

    def scale(self, since: int = 0) -> float:
        """Factor turning wall times into reference-host times, from ``samples[since:]``."""
        return self.REFERENCE_S / statistics.fmean(self.samples[since:])


class ArrayHostSpeed(HostSpeed):
    """The host-speed scaling for ``oracle-long``: a numpy row-by-row DP loop.

    ``project_oracle`` spends its time in numpy operations on rows of
    10k entries, which slow down with the host less than interpreted code
    does.  Over six 20-second runs on a 2-vCPU VM the pure-Python loop's
    mean ranged over a factor of 1.5 and the oracle calls' median over 1.25;
    the median call time spread (quartile distance over median) by 0.15
    unscaled, 0.10 scaled by the pure-Python loop and 0.05 scaled by this
    loop.  Like the pure-Python loop, it calls no windowseg code.
    """

    REFERENCE_S = 0.025  # near the loop's median time on a shared 2-vCPU x86-64 VM

    @staticmethod
    def loop() -> None:
        import numpy

        rows, n = 400, 10_000
        grid = numpy.empty((rows, n + 1), dtype=numpy.int32)
        cols = numpy.arange(n + 1, dtype=numpy.int32)
        grid[0] = cols
        keys = numpy.arange(n, dtype=numpy.int64) % 97
        for i in range(1, rows):
            cand = numpy.empty(n + 1, dtype=numpy.int32)
            cand[0] = i
            cand[1:] = numpy.minimum(grid[i - 1, :-1] + (keys != i % 97), grid[i - 1, 1:] + 1)
            grid[i] = numpy.minimum.accumulate(cand - cols) + cols


# ---------------------------------------------------------------------------
# The program under test

def import_library() -> None:
    """Put this checkout's ``src`` first on the path; exit 2 if it is missing."""
    if not (SRC / "windowseg" / "__init__.py").is_file():
        print(f"error: {SRC / 'windowseg'} not found; run from a windowseg checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def source_digest() -> str:
    """sha256 over the library and benchmark sources: what 'the same code' means."""
    h = hashlib.sha256()
    files = sorted((SRC / "windowseg").rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# ---------------------------------------------------------------------------
# Endpoint process


class Endpoint:
    """``windowseg mock-endpoint --mode corrupt`` in a child process."""

    def __init__(self, seed: int):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "windowseg.cli", "mock-endpoint", "--mode", "corrupt",
             "--seed", str(seed)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        try:
            self.url = self._wait_serving()
        except BaseException:
            self.stop()
            raise

    def _wait_serving(self) -> str:
        """The URL from the endpoint's ``serving on`` line; SetupError if it never comes."""
        assert self.proc.stdout is not None
        deadline = time.monotonic() + ENDPOINT_START_TIMEOUT_S
        buf = b""
        while b"\n" not in buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
                raise SetupError(f"endpoint printed nothing within {ENDPOINT_START_TIMEOUT_S} s")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                raise SetupError(f"endpoint exited with code {self.proc.wait()} before serving")
            buf += chunk
        line = buf.split(b"\n", 1)[0].decode("utf-8", "replace")
        if not line.startswith("serving on "):
            raise SetupError(f"unexpected endpoint output: {line!r}")
        return line[len("serving on "):].strip()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Workloads


class WindowTimer:
    """Segmenter proxy timing each ``segment(window, info)`` call made by the pipeline."""

    def __init__(self, inner: Any, latencies: list[float], tracer: Any = None):
        self.inner = inner
        self.latencies = latencies
        self.tracer = tracer

    def segment(self, window, info):
        start = time.perf_counter()
        if self.tracer is None:
            labels = self.inner.segment(window, info)
        else:
            with self.tracer.span("window", fallback_parent=self.tracer.pipeline_span):
                labels = self.inner.segment(window, info)
        self.latencies.append(time.perf_counter() - start)
        return labels


class Segmenting:
    """Documents through ``segment_tokens`` with a configured segmenter."""

    def __init__(self, docs, overrides: dict, endpoint: Optional[Endpoint] = None):
        from windowseg import load_config, pipeline, validate

        self.items = docs
        self.endpoint = endpoint
        self.cfg = load_config(None, overrides)
        validate(self.cfg)
        self.segmenter = pipeline.build_segmenter(self.cfg)
        self.workers = self.cfg.workers or os.cpu_count() or 1

    def label(self, doc, latencies: list[float], tracer: Any, workers: Optional[int] = None):
        from windowseg import pipeline

        timer = WindowTimer(self.segmenter, latencies, tracer)
        return pipeline.segment_tokens(
            doc.tokens, timer, self.cfg.window, self.cfg.workers if workers is None else workers)

    def close(self) -> None:
        if self.endpoint is not None:
            self.endpoint.stop()


class Oracle:
    """Reference/ASR pairs through ``project_oracle``; one call per document."""

    workers = 1

    def __init__(self, pairs):
        from windowseg.rules import RulePunctuation

        self.items = pairs
        self.rule = RulePunctuation()

    def label(self, pair, latencies: list[float], tracer: Any, workers: Optional[int] = None):
        from windowseg import align

        start = time.perf_counter()
        labels = align.project_oracle(pair.reference, pair.tokens, self.rule)
        latencies.append(time.perf_counter() - start)
        return labels

    def close(self) -> None:
        pass


def set_up(workload: str, seed: int, size: Size, tmp: Path):
    """Everything a run needs before its first document; timed as ``setup_s``."""
    from windowseg import SegmentationLabels, Transcript
    from windowseg.segmenters import TrainConfig, features

    if workload == "oracle-long":
        return Oracle(corpus.make_oracle_pairs(seed, size.oracle_pairs, size.oracle_tokens))
    if workload == "external-corrupt":
        docs = corpus.make_documents(seed, size.external_docs, *size.doc_len)
        endpoint = Endpoint(seed)
        return Segmenting(docs, {"segmenter": "external", "constraint": "LEVENSHTEIN",
                                 "endpoint_url": endpoint.url}, endpoint)
    docs = corpus.make_documents(seed, size.docs, *size.doc_len)
    # The model is trained on the same documents for every seed, so decoding
    # cost and accuracy vary with the documents segmented, not with a model
    # that differs from seed to seed.
    train = [(Transcript(d.tokens), SegmentationLabels.from_split_positions(len(d.tokens), d.starts))
             for d in corpus.make_documents(0, size.train_docs, *size.train_len, stream="train")]
    result = features.train_feature_model(train, train_config=TrainConfig(epochs=1, learning_rate=0.5))
    model_path = tmp / "model.bin"
    features.save_model(result.model, model_path)
    strategy = "greedy" if workload == "greedy-zipf" else "beam:16"
    return Segmenting(docs, {"model_path": str(model_path), "strategy": strategy})


# ---------------------------------------------------------------------------
# Measurement and checks


def render(tokens, labels) -> bytes:
    """The bytes ``windowseg segment`` writes to ``<doc>.segments.txt``."""
    from windowseg import pipeline

    return "".join(f"{line}\n" for line in pipeline.render_segments(tokens, labels)).encode()


def closed_loop(prepared, seconds: float, latencies: list[float], host: HostSpeed,
                tracer: Any = None, limit: Optional[int] = None,
                min_windows: int = 0) -> tuple[list[Outcome], float]:
    """Process documents one after another; returns their outcomes.

    The loop runs ``limit`` documents, or else until ``seconds`` have passed
    and ``min_windows`` windows are done; if ``MAX_EXTRA_S`` more pass first,
    the last document is marked failed.  Each document is timed from the start
    of segmenting to the end of rendering; the host speed is sampled
    between documents.  The corpus is cycled if the run outlasts it.  A
    document that raises is recorded as failed and the loop goes on.
    """
    from windowseg import SPLIT, SegmentationLabels, boundary_f1

    outcomes: list[Outcome] = []
    start = time.perf_counter()
    def going() -> bool:
        if limit is not None:
            return len(outcomes) < limit
        elapsed = time.perf_counter() - start
        return (not outcomes or elapsed < seconds
                or (len(latencies) < min_windows and elapsed < seconds + MAX_EXTRA_S))

    while going():
        outcome = Outcome(len(outcomes))
        outcomes.append(outcome)
        item = prepared.items[outcome.index % len(prepared.items)]
        if tracer is not None:
            tracer.doc = outcome.index
        try:
            doc_start = time.perf_counter()
            labels = prepared.label(item, latencies, tracer)
            output = render(item.tokens, labels)
            outcome.seconds = time.perf_counter() - doc_start
        except Exception as exc:  # one failed document must not end the run
            traceback.print_exc(file=sys.stderr)
            outcome.problems.append(f"raised {type(exc).__name__}: {exc}")
            continue
        finally:
            host.sample(outcome.seconds)
        n = outcome.tokens = len(item.tokens)
        outcome.digest = hashlib.sha256(output).hexdigest()
        if len(labels) != n:
            outcome.problems.append(f"{len(labels)} decisions for {n} tokens")
        elif n and labels[0] is not SPLIT:
            outcome.problems.append("no SPLIT at position 0")
        else:
            r = boundary_f1(labels, SegmentationLabels.from_split_positions(n, item.starts))
            outcome.f1_counts = (r.true_positives, r.false_positives, r.false_negatives)
    if limit is None and len(latencies) < min_windows:
        outcomes[-1].problems.append(f"only {len(latencies)} windows in "
                                     f"{seconds + MAX_EXTRA_S:g} s; p99 needs {min_windows}")
    return outcomes


def check_repeats(outcomes: list[Outcome], corpus_size: int, stored: dict[int, str]) -> int:
    """Flag documents whose bytes differ from an earlier pass or an earlier run.

    ``stored`` maps corpus index to the digest from earlier runs of the
    same code and seed; this run's new digests are added to it.  Returns
    how many documents were compared.
    """
    compared = 0
    for outcome in outcomes:
        if not outcome.digest:
            continue
        key = outcome.index % corpus_size
        expected = stored.get(key)
        if expected is None:
            stored[key] = outcome.digest
            continue
        compared += 1
        if expected != outcome.digest:
            outcome.problems.append(f"output digest {outcome.digest[:12]} != "
                                    f"{expected[:12]} from an earlier pass or run")
    return compared


def load_digests(path: Path, code: str) -> dict[int, str]:
    """Digests stored by earlier runs of the same code; empty if none."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if data.get("code") != code:
        return {}
    return {int(k): v for k, v in data.get("docs", {}).items()}


def tail_ms(ms: list[float], chunk: int = 1000) -> float:
    """p99 of each stretch of ``chunk`` or more consecutive windows, median over them.

    Every stretch keeps ten samples above its p99.  A burst of load from
    elsewhere on the machine moves the p99 of the stretches it hits, not
    their median; with fewer than two stretches this is the plain p99.
    """
    k = max(1, len(ms) // chunk)
    return statistics.median(
        tracing.percentile(ms[i * len(ms) // k:(i + 1) * len(ms) // k], 99) for i in range(k))


def micro_f1(outcomes: list[Outcome]) -> float:
    tp, fp, fn = (sum(o.f1_counts[i] for o in outcomes) for i in range(3))
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def environment(args, size: Size, prepared, code: str) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size.name,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_count": os.cpu_count(),
        "workers": prepared.workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "source_sha256": code,
        "corpus_docs": len(prepared.items),
        "corpus_tokens": sum(len(item.tokens) for item in prepared.items),
    }


# ---------------------------------------------------------------------------
# Driver


def set_up_repeatedly(args, size: Size, tmp: Path, tracer: Any):
    """Set up ``size.setups`` times, keeping the last.

    Returns it, the wall times, and the times scaled by the host speed
    measured just before and after each set-up: the host's speed drifts
    within a run, and the set-ups come first.
    """
    prepared = None
    times = []
    scaled = []
    host = HostSpeed()
    restore = tracing.instrument(tracer) if tracer is not None else None
    try:
        for _ in range(size.setups):
            if prepared is not None:
                prepared.close()
            prepared = None
            first = len(host.samples)
            host.sample()
            start = time.perf_counter()
            prepared = set_up(args.workload, args.seed, size, tmp)
            times.append(time.perf_counter() - start)
            host.sample(times[-1])
            scaled.append(times[-1] * host.scale(first))
    except BaseException:
        if prepared is not None:
            prepared.close()
        raise
    finally:
        if restore is not None:
            restore()
    return prepared, times, scaled


def run(args) -> int:
    size = SIZES[args.size]
    code = source_digest()
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    host_speed = ArrayHostSpeed if args.workload == "oracle-long" else HostSpeed
    host = host_speed()
    try:
        prepared, setup_times, scaled_setup_times = set_up_repeatedly(args, size, tmp, tracer)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    try:
        env = environment(args, size, prepared, code)
        print("environment " + json.dumps(env, sort_keys=True))
        latencies: list[float] = []
        min_windows = size.min_windows if isinstance(prepared, Segmenting) else 0
        outcomes = closed_loop(prepared, args.seconds / (2 if tracer else 1), latencies,
                               host, min_windows=min_windows)
        traced: list[Outcome] = []
        if tracer is not None:
            restore = tracing.instrument(tracer)
            try:
                traced_host = host_speed()
                traced = closed_loop(prepared, 0, [], traced_host, tracer, limit=len(outcomes))
            finally:
                restore()
        first = outcomes[0]
        if isinstance(prepared, Segmenting) and first.digest:
            # The same bytes for any worker count.
            labels = prepared.label(prepared.items[0], [], None, workers=1)
            if hashlib.sha256(render(prepared.items[0].tokens, labels)).hexdigest() != first.digest:
                first.problems.append("workers=1 output differs")
    finally:
        prepared.close()

    digest_path = OUT / f"digests-{args.workload}-seed{args.seed}-{size.name}.json"
    stored = load_digests(digest_path, code)
    compared = check_repeats(outcomes + traced, len(prepared.items), stored)
    digest_path.write_text(json.dumps({"code": code, "docs": stored}, sort_keys=True))

    everything = outcomes + traced
    failed = [o for o in everything if o.problems]
    for o in failed:
        print(f"check failed: document {o.index}: {'; '.join(o.problems)}", file=sys.stderr)
    tokens = sum(o.tokens for o in outcomes)
    busy = sum(o.seconds for o in outcomes)
    report: dict[str, Any] = {
        "environment": env,
        "documents": len(outcomes),
        "tokens": tokens,
        "busy_s": busy,
        "host_scale": host.scale(),
        "host_samples_s": host.samples,
        "window_samples": len(latencies),
        "digests_compared": compared,
        "outputs_sha256": hashlib.sha256("".join(o.digest for o in outcomes).encode()).hexdigest(),
        "fail_share": len(failed) / len(everything),
        "setup_times_s": setup_times,
        "scaled_setup_times_s": scaled_setup_times,
    }
    if tracer is None:
        ms = [x * 1000 for x in latencies]
        raw = {"tok_per_s": tokens / busy,
               "window_ms_p50": tracing.percentile(ms, 50),
               "window_ms_p99": tail_ms(ms),
               "setup_s": statistics.median(setup_times)}
        report["raw"] = raw
        scale = host.scale()
        report["window_ms_p99"] = raw["window_ms_p99"] * scale
        metrics = {
            "tok_per_s": (raw["tok_per_s"] / scale, "tokens/s"),
            "window_ms_p50": (raw["window_ms_p50"] * scale, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(scaled_setup_times), "s"),
            "boundary_f1": (micro_f1(outcomes), "ratio"),
        }
    else:
        metrics = tracing.layer_metrics(tracer, sum(o.tokens for o in traced), prepared.workers,
                                        size.setups)
        traced_busy = sum(o.seconds for o in traced)
        metrics["trace.overhead_share"] = (
            traced_busy * traced_host.scale() / (busy * host.scale()) - 1, "ratio")
        # From the untraced phase, like the end-to-end metrics.
        report["window_ms_p99"] = tail_ms([x * 1000 for x in latencies]) * host.scale()
        metrics["pipeline.window_ms_p99"] = (report["window_ms_p99"], "ms")
        report["layers"] = tracer.layer_table()
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        for name, row in sorted(report["layers"].items()):
            print(f"layer {name:32s} calls {row['calls']:8d}  total {row['total_s']:9.4f} s"
                  f"  self {row['self_s']:9.4f} s")
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    for key in ("documents", "tokens", "window_samples", "window_ms_p99", "digests_compared",
                "outputs_sha256", "fail_share", "host_scale"):
        print(f"{key} {report[key]}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": report["metrics"],
    }))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="corpus size; 'tiny' is for the self-check")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_library()
    # Turn a termination request into SystemExit, so the endpoint is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
