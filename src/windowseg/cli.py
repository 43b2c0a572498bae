"""Command-line entry points for the segmentation toolkit.

Subcommands: ``segment`` (run the windowed pipeline over transcripts),
``train`` (fit a boundary model), ``derive-labels`` (punctuation to
labels), ``oracle`` (project reference boundaries onto ASR tokens),
``eval`` (boundary F1 between two labels files), and ``mock-endpoint``
(a local generator server for integration runs).

Exit codes: 0 success, 1 unexpected data errors, 2 missing inputs or
bad usage, 3 invalid configuration, 4 endpoint failure after retries,
5 unpaired documents.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .align import project_oracle
from .config import (
    CONSTRAINT_MODES,
    FALLBACK_KINDS,
    SEGMENTER_KINDS,
    _SCALAR_KEYS,
    _WINDOW_KEYS,
    ConfigError,
    PipelineConfig,
    load_config,
    validate,
)
from .core import SegmentationLabels
from .dataio import (
    check_source_id,
    format_labels,
    format_transcript,
    read_labels_file,
    read_text,
    read_transcript,
    write_files,
)
from .eval import PairingError, evaluate_corpus, format_report
from .mock_endpoint import MODES, MockEndpoint, MockEndpointConfig
from .pipeline import build_segmenter, render_segments, segment_tokens
from .rules import RulePunctuation, load_abbreviations
from .segmenters import (
    EndpointError,
    ExternalSegmenter,
    FeatureConfig,
    ReplaySegmenter,
    TrainConfig,
    WindowSegmenter,
    load_model,
    save_model,
    train_feature_model,
)
from .segmenters.features import FieldError

EXIT_DATA = 1
EXIT_MISSING_INPUT = 2
EXIT_BAD_CONFIG = 3
EXIT_ENDPOINT = 4
EXIT_UNPAIRED = 5


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


class MissingInputError(Exception):
    """Raised with each input path that is not a file."""


def _check_inputs(paths: Sequence[Optional[Path]]) -> None:
    """Raise MissingInputError naming each path that is not a file; ``None`` is skipped."""
    missing = [p for p in paths if p is not None and not p.is_file()]
    if missing:
        raise MissingInputError(*missing)


def _check_output(out: Path, inputs: Sequence[Optional[Path]], flag: str) -> None:
    """Refuse an output path that resolves to one of the inputs; ``None`` is skipped."""
    target = out.resolve()
    for path in inputs:
        if path is not None and path.resolve() == target:
            raise ValueError(f"refusing to overwrite input {path}; pick another {flag}")


def _check_stems(*groups: Sequence[Path]) -> None:
    """Outputs are named after input stems, so each group's must be distinct."""
    if any(len({p.stem for p in paths}) != len(paths) for paths in groups):
        raise ValueError("duplicate document stems in inputs")


# ---------------------------------------------------------------------------
# segment


def _segment_overrides(args: argparse.Namespace) -> dict[str, object]:
    """Config overrides from ``segment``'s flags, whose dests are the key names."""
    overrides: dict[str, object] = {key: getattr(args, key) for key in _SCALAR_KEYS}
    for key in _WINDOW_KEYS:
        overrides[f"window.{key}"] = getattr(args, f"window_{key}")
    return overrides


def cmd_segment(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _segment_overrides(args))
    validate(cfg)
    _check_inputs(args.inputs)
    _check_stems(args.inputs)
    inputs = [*args.inputs, args.config]
    inputs += [Path(p) for p in (cfg.model_path, cfg.replay_labels) if p]
    for path in args.inputs:  # every output, before the first is written
        check_source_id(path.stem)
        for suffix in (".segments.txt", ".labels.tsv"):
            _check_output(args.out_dir / f"{path.stem}{suffix}", inputs, "--out-dir")

    replay_map = None
    segmenter: Optional[WindowSegmenter] = None
    try:
        if cfg.segmenter == "replay":
            replay_map = read_labels_file(cfg.replay_labels or "")
        else:
            segmenter = build_segmenter(cfg)
    except ValueError as exc:  # an unreadable or corrupt model or labels file
        raise ConfigError(str(exc)) from None

    try:
        return _segment_inputs(args, cfg, segmenter, replay_map)
    finally:
        if isinstance(segmenter, ExternalSegmenter):
            segmenter.close()


def _segment_inputs(
    args: argparse.Namespace,
    cfg: PipelineConfig,
    segmenter: Optional[WindowSegmenter],
    replay_map: Optional[dict[str, SegmentationLabels]],
) -> int:
    """Segment and write each input in turn; the first failure ends the run."""
    for path in args.inputs:
        transcript = read_transcript(path, normalize=cfg.normalize)
        tokens, doc = transcript.tokens, transcript.source_id
        seg = segmenter
        if replay_map is not None:
            if doc not in replay_map:
                raise PairingError(f"no replay labels for document {doc!r}")
            if len(replay_map[doc]) != len(tokens):
                raise ValueError(
                    f"replay labels for {doc!r} cover {len(replay_map[doc])} tokens, "
                    f"transcript has {len(tokens)}"
                )
            seg = ReplaySegmenter(replay_map[doc])
        assert seg is not None
        try:
            labels = segment_tokens(tokens, seg, cfg.window, cfg.workers)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        lines = render_segments(tokens, labels)
        args.out_dir.mkdir(parents=True, exist_ok=True)
        write_files({
            args.out_dir / f"{doc}.segments.txt": "".join(f"{line}\n" for line in lines),
            args.out_dir / f"{doc}.labels.tsv": format_labels([(doc, labels)]),
        })
        print(f"{doc}: {len(tokens)} tokens, {len(lines)} segments")
    return 0


# ---------------------------------------------------------------------------
# train


def _orders(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated ``--orders`` value; empty items are skipped."""
    orders = []
    for item in filter(str.strip, text.split(",")):
        try:
            orders.append(int(item))
        except ValueError:
            raise ConfigError(f"--orders: {item.strip()!r} is not an integer") from None
    return tuple(orders)


def cmd_train(args: argparse.Namespace) -> int:
    _check_inputs([*args.inputs, args.labels, args.warm_start])
    _check_stems(args.inputs)
    _check_output(args.out, [*args.inputs, args.labels], "--out")  # --warm-start may be it
    labels_map = read_labels_file(args.labels)

    corpus = []
    unpaired = []
    for path in args.inputs:
        transcript = read_transcript(path)
        if transcript.source_id not in labels_map:
            unpaired.append(transcript.source_id)
        else:
            corpus.append((transcript, labels_map[transcript.source_id]))
    if unpaired:
        raise PairingError("no labels for: " + ", ".join(sorted(unpaired)))

    init = None if args.warm_start is None else load_model(args.warm_start)
    try:
        feature_config = None
        if init is None:
            feature_config = FeatureConfig(
                hash_dims=args.hash_dims,
                ngram_orders=_orders(args.orders),
                context_radius=args.radius,
                history=args.history,
                salt=args.salt,
            )
        train_config = TrainConfig(
            epochs=args.epochs,
            learning_rate=args.learning_rate,
            seed=args.seed,
        )
    except FieldError as exc:  # each flag's dest is its field's name, but for two
        dest = {"ngram_orders": "orders", "context_radius": "radius"}.get(exc.field, exc.field)
        flag = "--" + dest.replace("_", "-")
        raise ConfigError(f"{flag} {exc.rule}, got {getattr(args, dest)!r}") from None
    result = train_feature_model(corpus, feature_config, train_config, init=init)
    for epoch, loss in enumerate(result.epoch_losses, 1):
        print(f"epoch {epoch}: loss {loss:.6f}")
    save_model(result.model, args.out)
    print(f"wrote model: {args.out}")
    return 0


# ---------------------------------------------------------------------------
# derive-labels


def cmd_derive_labels(args: argparse.Namespace) -> int:
    inputs = [*args.inputs, args.abbreviations]
    _check_inputs(inputs)
    _check_stems(args.inputs)
    labels_path = (args.out_dir / args.labels_name).resolve()
    _check_output(labels_path, inputs, "--labels-name")
    rule = RulePunctuation(load_abbreviations(args.abbreviations))
    docs = []  # all derived before any is written, so a bad input writes nothing
    for path in args.inputs:
        check_source_id(path.stem)
        output = (args.out_dir / f"{path.stem}.txt").resolve()
        _check_output(output, inputs, "--out-dir")
        if output == labels_path:
            raise ValueError(
                f"--labels-name {args.labels_name} is the transcript output of {path}; "
                "pick another name"
            )
        text = read_text(path)
        try:
            transcript, labels = rule.derive_labels(text)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        docs.append((path.stem, transcript, labels))
    files: dict[Path, str] = {
        args.out_dir / f"{doc}.txt": format_transcript(transcript) for doc, transcript, _ in docs
    }
    files[args.out_dir / args.labels_name] = format_labels(
        [(doc, labels) for doc, _, labels in docs]
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_files(files)
    for doc, transcript, labels in docs:
        print(f"{doc}: {len(transcript)} tokens, {len(labels.split_positions())} segments")
    print(f"wrote labels: {args.out_dir / args.labels_name}")
    return 0


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args: argparse.Namespace) -> int:
    inputs = [*args.references, *args.asr, args.abbreviations]
    _check_inputs(inputs)
    _check_stems(args.references, args.asr)
    _check_output(args.out, inputs, "--out")
    refs = {p.stem: p for p in args.references}
    asrs = {p.stem: p for p in args.asr}
    unpaired = sorted(set(refs) ^ set(asrs))
    if unpaired:
        raise PairingError("unpaired documents: " + ", ".join(unpaired))
    for stem in refs:
        check_source_id(stem)

    rule = RulePunctuation(load_abbreviations(args.abbreviations))
    rows = []
    for stem in sorted(refs):
        reference = read_text(refs[stem])
        tokens = read_transcript(asrs[stem], normalize=args.normalize).tokens
        try:
            labels = project_oracle(reference, tokens, rule)
        except ValueError as exc:
            raise ValueError(f"{stem}: {exc}") from None
        rows.append((stem, labels))
        print(f"{stem}: {len(tokens)} tokens, {len(labels.split_positions())} segments")
    write_files({args.out: format_labels(rows)})
    print(f"wrote labels: {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval


def _read_labels_merged(paths: Sequence[Path]) -> dict:
    merged: dict = {}
    for path in paths:
        for doc, labels in read_labels_file(path).items():
            if doc in merged:
                raise ValueError(f"duplicate document {doc!r} across labels files")
            merged[doc] = labels
    return merged


def cmd_eval(args: argparse.Namespace) -> int:
    _check_inputs([*args.predicted, *args.reference])
    predicted = _read_labels_merged(args.predicted)
    reference = _read_labels_merged(args.reference)
    print(format_report(evaluate_corpus(predicted, reference), args.format))
    return 0


# ---------------------------------------------------------------------------
# mock-endpoint


def cmd_mock_endpoint(args: argparse.Namespace) -> int:
    try:
        config = MockEndpointConfig(
            mode=args.mode,
            period=args.period,
            corrupt_rate=args.corrupt_rate,
            seed=args.seed,
            fail_first=args.fail_first,
            fail_all=args.fail_all,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not 0 <= args.port <= 65535:
        raise ConfigError(f"--port must be in [0, 65535], got {args.port}")
    try:
        endpoint = MockEndpoint(config, host=args.host, port=args.port)
    except OSError as exc:  # the port is taken, the host is not an address, ...
        raise ValueError(f"cannot serve on {args.host}:{args.port}: {exc.strerror or exc}") from None
    print(f"serving on {endpoint.url}", flush=True)
    endpoint.serve_forever()
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windowseg",
        description="Sliding-window sentence segmentation for unpunctuated transcripts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="segment transcripts into sentence-like lines")
    p.add_argument("inputs", nargs="+", type=Path, help="transcript files, one per document")
    p.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
    p.add_argument("--config", type=Path, default=None, help="JSON config file")
    p.add_argument("--segmenter", choices=SEGMENTER_KINDS, default=None)
    p.add_argument("--model", dest="model_path", default=None, help="boundary model file")
    p.add_argument("--replay-labels", default=None, help="labels file for segmenter=replay")
    p.add_argument("--strategy", default=None, help="greedy, exact, or beam:K")
    p.add_argument(
        "--constraint",
        choices=CONSTRAINT_MODES,
        default=None,
        help="implied by --segmenter (LEVENSHTEIN for external, else FST); must agree",
    )
    p.add_argument("--segment-len", type=int, default=None, help="for segmenter=fixed")
    p.add_argument("--window-size", type=int, default=None)
    p.add_argument("--window-left", type=int, default=None)
    p.add_argument("--window-right", type=int, default=None)
    p.add_argument("--endpoint-url", default=None)
    p.add_argument("--endpoint-timeout", type=float, default=None)
    p.add_argument("--endpoint-retries", type=int, default=None)
    p.add_argument("--endpoint-backoff", type=float, default=None)
    p.add_argument("--endpoint-fallback", choices=FALLBACK_KINDS, default=None)
    p.add_argument(
        "--normalize",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="lowercase and strip punctuation before segmenting (default: on)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "window threads, which also bound the external segmenter's requests in "
            "flight; 0 = auto: 1 for local segmenters, one per CPU up to 4 for external "
            "(its projection is CPU-bound, so more threads than CPUs only add latency)"
        ),
    )
    p.set_defaults(func=cmd_segment)

    trained, features = TrainConfig(), FeatureConfig()  # the flags' defaults
    p = sub.add_parser("train", help="train a boundary model on labeled transcripts")
    p.add_argument("inputs", nargs="+", type=Path, help="normalized transcript files")
    p.add_argument("--labels", type=Path, required=True, help="labels file pairing by stem")
    p.add_argument("--out", type=Path, required=True, help="model file to write")
    p.add_argument("--epochs", type=int, default=trained.epochs)
    p.add_argument("--learning-rate", type=float, default=trained.learning_rate)
    p.add_argument("--seed", type=int, default=trained.seed)
    p.add_argument("--hash-dims", type=int, default=features.hash_dims)
    orders = ",".join(map(str, features.ngram_orders))
    p.add_argument("--orders", default=orders, help="comma-separated n-gram orders")
    p.add_argument("--radius", type=int, default=features.context_radius)
    p.add_argument("--history", type=int, default=features.history)
    p.add_argument("--salt", type=int, default=features.salt)
    p.add_argument(
        "--warm-start",
        type=Path,
        default=None,
        help="continue from this model; feature flags are then ignored",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "derive-labels", help="turn punctuated text into normalized transcripts + labels"
    )
    p.add_argument("inputs", nargs="+", type=Path, help="punctuated text files")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--labels-name", default="labels.tsv", help="combined labels filename")
    p.add_argument("--abbreviations", type=Path, default=None)
    p.set_defaults(func=cmd_derive_labels)

    p = sub.add_parser(
        "oracle", help="project reference boundaries onto ASR transcripts by alignment"
    )
    p.add_argument("--references", nargs="+", type=Path, required=True)
    p.add_argument("--asr", nargs="+", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="labels file to write")
    p.add_argument("--abbreviations", type=Path, default=None)
    p.add_argument(
        "--normalize",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="normalize ASR tokens before projecting (default: on)",
    )
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("eval", help="boundary precision/recall/F1 between labels files")
    p.add_argument("--predicted", nargs="+", type=Path, required=True)
    p.add_argument("--reference", nargs="+", type=Path, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_eval)

    mock = MockEndpointConfig()
    p = sub.add_parser("mock-endpoint", help="serve a local mock generator endpoint")
    p.add_argument("--mode", choices=MODES, default=mock.mode)
    p.add_argument("--period", type=int, default=mock.period)
    p.add_argument("--corrupt-rate", type=float, default=mock.corrupt_rate)
    p.add_argument("--seed", type=int, default=mock.seed)
    p.add_argument("--fail-first", type=int, default=mock.fail_first)
    p.add_argument("--fail-all", action="store_true")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 picks an ephemeral port")
    p.set_defaults(func=cmd_mock_endpoint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; its error becomes one ``error:`` line and an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MissingInputError as exc:
        for path in exc.args:
            _fail(f"input not found: {path}", EXIT_MISSING_INPUT)
        return EXIT_MISSING_INPUT
    except ConfigError as exc:
        return _fail(str(exc), EXIT_BAD_CONFIG)
    except PairingError as exc:
        return _fail(str(exc), EXIT_UNPAIRED)
    except EndpointError as exc:
        return _fail(str(exc), EXIT_ENDPOINT)
    except OSError as exc:  # reads fail as ValueError; a failed write names its file
        return _fail(f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc), EXIT_DATA)
    except ValueError as exc:
        return _fail(str(exc), EXIT_DATA)


if __name__ == "__main__":
    sys.exit(main())
