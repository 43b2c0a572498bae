"""Sliding-window sentence segmentation for long unpunctuated transcripts.

The toolkit splits a transcript into overlapping token windows, lets a
segmenter place sentence boundaries inside each window under a
constrained decoder or an edit-distance projection, and stitches the
adopted spans back into a single document labeling.
"""

from .align import Alignment, levenshtein_align, project_boundaries, project_oracle
from .automaton import (
    EXACT,
    GREEDY,
    Hypothesis,
    SearchStrategy,
    SegAutomaton,
    beam,
    build_automaton,
    constrained_search,
    parse_strategy,
)
from .config import ConfigError, PipelineConfig, load_config, validate
from .core import (
    CONTINUE,
    DEFAULT_DELIMITER,
    SPLIT,
    Decision,
    DelimitedText,
    Malformed,
    SegmentationLabels,
    Transcript,
    decode_delimited,
    encode_delimited,
    normalize_text,
    normalize_token,
    parse_delimited_lenient,
)
from .eval import EvalReport, PairingError, boundary_f1, evaluate_corpus, format_report
from .pipeline import (
    build_segmenter,
    render_segments,
    segment_tokens,
)
from .windowing import Window, WindowConfig, plan_windows, stitch

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "CONTINUE",
    "ConfigError",
    "DEFAULT_DELIMITER",
    "Decision",
    "DelimitedText",
    "EXACT",
    "EvalReport",
    "GREEDY",
    "Hypothesis",
    "Malformed",
    "PairingError",
    "PipelineConfig",
    "SPLIT",
    "SearchStrategy",
    "SegAutomaton",
    "SegmentationLabels",
    "Transcript",
    "Window",
    "WindowConfig",
    "beam",
    "boundary_f1",
    "build_automaton",
    "build_segmenter",
    "constrained_search",
    "decode_delimited",
    "encode_delimited",
    "evaluate_corpus",
    "format_report",
    "levenshtein_align",
    "load_config",
    "normalize_text",
    "normalize_token",
    "parse_delimited_lenient",
    "parse_strategy",
    "plan_windows",
    "project_boundaries",
    "project_oracle",
    "render_segments",
    "segment_tokens",
    "stitch",
    "validate",
]
