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
    load_config,
    validate,
)
from .core import Transcript, normalize_text
from .dataio import read_labels_file, read_transcript, write_labels_file
from .eval import PairingError, evaluate_corpus, format_report
from .mock_endpoint import MODES, MockEndpoint, MockEndpointConfig
from .pipeline import build_segmenter, render_segments, segment_tokens
from .rules import RulePunctuation, load_abbreviations
from .segmenters import (
    EndpointError,
    FeatureConfig,
    ReplaySegmenter,
    TrainConfig,
    WindowSegmenter,
    load_model,
    save_model,
    train_feature_model,
)

EXIT_DATA = 1
EXIT_MISSING_INPUT = 2
EXIT_BAD_CONFIG = 3
EXIT_ENDPOINT = 4
EXIT_UNPAIRED = 5


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _missing_inputs(paths: Sequence[Path]) -> Optional[int]:
    missing = [p for p in paths if not p.is_file()]
    for p in missing:
        print(f"error: input not found: {p}", file=sys.stderr)
    return EXIT_MISSING_INPUT if missing else None


def _rule(abbreviations: Optional[Path]) -> RulePunctuation:
    if abbreviations is None:
        return RulePunctuation()
    return RulePunctuation(load_abbreviations(abbreviations))


# ---------------------------------------------------------------------------
# segment


def _segment_overrides(args: argparse.Namespace) -> dict[str, object]:
    """Config overrides from ``segment``'s flags, whose dests are the key names."""
    overrides: dict[str, object] = {key: getattr(args, key) for key in _SCALAR_KEYS}
    for key in _WINDOW_KEYS:
        overrides[f"window.{key}"] = getattr(args, f"window_{key}")
    return overrides


def cmd_segment(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config, _segment_overrides(args))
        validate(cfg)
    except ConfigError as exc:
        return _fail(str(exc), EXIT_BAD_CONFIG)
    code = _missing_inputs(args.inputs)
    if code is not None:
        return code
    if len({p.stem for p in args.inputs}) != len(args.inputs):
        return _fail("duplicate document stems in inputs", EXIT_DATA)

    replay_map = None
    segmenter: Optional[WindowSegmenter] = None
    try:
        if cfg.segmenter == "replay":
            replay_map = read_labels_file(cfg.replay_labels or "")
        else:
            segmenter = build_segmenter(cfg)
    except ValueError as exc:  # corrupt model or labels file
        return _fail(str(exc), EXIT_BAD_CONFIG)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for path in args.inputs:
        text = path.read_text(encoding="utf-8")
        tokens = normalize_text(text) if cfg.normalize else text.split()
        doc = path.stem
        seg = segmenter
        if replay_map is not None:
            if doc not in replay_map:
                return _fail(f"no replay labels for document {doc!r}", EXIT_UNPAIRED)
            if len(replay_map[doc]) != len(tokens):
                return _fail(
                    f"replay labels for {doc!r} cover {len(replay_map[doc])} tokens, "
                    f"transcript has {len(tokens)}",
                    EXIT_DATA,
                )
            seg = ReplaySegmenter(replay_map[doc])
        assert seg is not None
        try:
            labels = segment_tokens(tokens, seg, cfg.window, cfg.workers)
        except EndpointError as exc:
            return _fail(str(exc), EXIT_ENDPOINT)
        lines = render_segments(tokens, labels)
        out_segments = args.out_dir / f"{doc}.segments.txt"
        out_segments.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        write_labels_file([(doc, labels)], args.out_dir / f"{doc}.labels.tsv")
        print(f"{doc}: {len(tokens)} tokens, {len(lines)} segments")
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args: argparse.Namespace) -> int:
    check = list(args.inputs) + [args.labels]
    if args.warm_start is not None:
        check.append(args.warm_start)
    code = _missing_inputs(check)
    if code is not None:
        return code
    try:
        labels_map = read_labels_file(args.labels)
    except ValueError as exc:
        return _fail(str(exc), EXIT_DATA)

    corpus = []
    unpaired = []
    for path in args.inputs:
        transcript = read_transcript(path)
        if transcript.source_id not in labels_map:
            unpaired.append(transcript.source_id)
            continue
        labels = labels_map[transcript.source_id]
        if len(labels) != len(transcript):
            return _fail(
                f"labels for {transcript.source_id!r} cover {len(labels)} tokens, "
                f"transcript has {len(transcript)}",
                EXIT_DATA,
            )
        corpus.append((transcript, labels))
    if unpaired:
        return _fail("no labels for: " + ", ".join(sorted(unpaired)), EXIT_UNPAIRED)

    init = None
    feature_config = None
    if args.warm_start is not None:
        try:
            init = load_model(args.warm_start)
        except ValueError as exc:
            return _fail(str(exc), EXIT_DATA)
    else:
        try:
            orders = tuple(int(o) for o in args.orders.split(",") if o.strip())
            feature_config = FeatureConfig(
                hash_dims=args.hash_dims,
                ngram_orders=orders,
                context_radius=args.radius,
                history=args.history,
                salt=args.salt,
            )
        except ValueError as exc:
            return _fail(str(exc), EXIT_BAD_CONFIG)
    train_config = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        seed=args.seed,
        shuffle=not args.no_shuffle,
    )
    try:
        result = train_feature_model(corpus, feature_config, train_config, init=init)
    except ValueError as exc:
        return _fail(str(exc), EXIT_DATA)
    for epoch, loss in enumerate(result.epoch_losses, 1):
        print(f"epoch {epoch}: loss {loss:.6f}")
    save_model(result.model, args.out)
    print(f"wrote model: {args.out}")
    return 0


# ---------------------------------------------------------------------------
# derive-labels


def cmd_derive_labels(args: argparse.Namespace) -> int:
    code = _missing_inputs(args.inputs)
    if code is not None:
        return code
    if len({p.stem for p in args.inputs}) != len(args.inputs):
        return _fail("duplicate document stems in inputs", EXIT_DATA)
    rule = _rule(args.abbreviations)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for path in args.inputs:
        out_path = args.out_dir / f"{path.stem}.txt"
        if out_path.resolve() == path.resolve():
            return _fail(
                f"refusing to overwrite input {path}; pick another --out-dir",
                EXIT_DATA,
            )
        try:
            transcript, labels = rule.derive_labels(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            return _fail(f"{path}: {exc}", EXIT_DATA)
        transcript = Transcript(transcript.tokens, path.stem)
        out_path.write_text(transcript.text() + "\n", encoding="utf-8")
        rows.append((path.stem, labels))
        print(f"{path.stem}: {len(transcript)} tokens, {len(labels.split_positions())} segments")
    write_labels_file(rows, args.out_dir / args.labels_name)
    print(f"wrote labels: {args.out_dir / args.labels_name}")
    return 0


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args: argparse.Namespace) -> int:
    code = _missing_inputs(list(args.references) + list(args.asr))
    if code is not None:
        return code
    refs = {p.stem: p for p in args.references}
    asrs = {p.stem: p for p in args.asr}
    if len(refs) != len(args.references) or len(asrs) != len(args.asr):
        return _fail("duplicate document stems in inputs", EXIT_DATA)
    unpaired = sorted(set(refs) ^ set(asrs))
    if unpaired:
        return _fail("unpaired documents: " + ", ".join(unpaired), EXIT_UNPAIRED)

    rule = _rule(args.abbreviations)
    rows = []
    for stem in sorted(refs):
        reference = refs[stem].read_text(encoding="utf-8")
        asr_text = asrs[stem].read_text(encoding="utf-8")
        tokens = normalize_text(asr_text) if args.normalize else asr_text.split()
        try:
            labels = project_oracle(reference, tokens, rule)
        except ValueError as exc:
            return _fail(f"{stem}: {exc}", EXIT_DATA)
        rows.append((stem, labels))
        print(f"{stem}: {len(tokens)} tokens, {len(labels.split_positions())} segments")
    write_labels_file(rows, args.out)
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
    code = _missing_inputs(list(args.predicted) + list(args.reference))
    if code is not None:
        return code
    try:
        predicted = _read_labels_merged(args.predicted)
        reference = _read_labels_merged(args.reference)
    except ValueError as exc:
        return _fail(str(exc), EXIT_DATA)
    try:
        report = evaluate_corpus(predicted, reference)
    except PairingError as exc:
        return _fail(str(exc), EXIT_UNPAIRED)
    except ValueError as exc:
        return _fail(str(exc), EXIT_DATA)
    print(format_report(report, args.format))
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
        return _fail(str(exc), EXIT_BAD_CONFIG)
    endpoint = MockEndpoint(config, host=args.host, port=args.port)
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
    p.add_argument("--endpoint-concurrency", type=int, default=None)
    p.add_argument("--endpoint-fallback", choices=FALLBACK_KINDS, default=None)
    p.add_argument(
        "--normalize",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="lowercase and strip punctuation before segmenting (default: on)",
    )
    p.add_argument("--workers", type=int, default=None, help="window workers; 0 = auto")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("train", help="train a boundary model on labeled transcripts")
    p.add_argument("inputs", nargs="+", type=Path, help="normalized transcript files")
    p.add_argument("--labels", type=Path, required=True, help="labels file pairing by stem")
    p.add_argument("--out", type=Path, required=True, help="model file to write")
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--no-shuffle", action="store_true")
    p.add_argument("--hash-dims", type=int, default=FeatureConfig().hash_dims)
    p.add_argument("--orders", default="2,3,4", help="comma-separated n-gram orders")
    p.add_argument("--radius", type=int, default=FeatureConfig().context_radius)
    p.add_argument("--history", type=int, default=FeatureConfig().history)
    p.add_argument("--salt", type=int, default=FeatureConfig().salt)
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

    p = sub.add_parser("mock-endpoint", help="serve a local mock generator endpoint")
    p.add_argument("--mode", choices=MODES, default="rule")
    p.add_argument("--period", type=int, default=7)
    p.add_argument("--corrupt-rate", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--fail-first", type=int, default=0)
    p.add_argument("--fail-all", action="store_true")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 picks an ephemeral port")
    p.set_defaults(func=cmd_mock_endpoint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
