"""Declarative pipeline configuration with layered overrides.

Values resolve as: built-in defaults, then the config file (JSON, nested
or dotted keys), then explicit overrides (CLI flags).  Validation is a
separate step so configs can be constructed programmatically and checked
once, with errors that name the offending key.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Union, get_args, get_type_hints

from .automaton import parse_strategy
from .dataio import read_text
from .segmenters.external import MAX_RETRY_SLEEP_S, parse_endpoint_url, retry_sleep
from .windowing import WindowConfig

SEGMENTER_KINDS = ("autoregressive", "fixed", "external", "replay")
CONSTRAINT_MODES = ("FST", "LEVENSHTEIN")
FALLBACK_KINDS = ("none", "fixed")
# Most window threads (and so requests in flight) that workers = 0 gives
# the external segmenter.
EXTERNAL_WORKERS_CAP = 4


class ConfigError(ValueError):
    """An invalid or inconsistent pipeline configuration."""


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a segmentation run needs, resolvable from file and flags."""

    window: WindowConfig = WindowConfig()
    segmenter: str = "autoregressive"
    segment_len: int = 17
    model_path: Optional[str] = None
    replay_labels: Optional[str] = None
    strategy: str = "greedy"
    # Follows from the segmenter kind: LEVENSHTEIN for external, FST for the
    # rest.  Accepted only if it agrees; nothing reads it.
    constraint: Optional[str] = None
    endpoint_url: Optional[str] = None
    endpoint_timeout: float = 10.0
    endpoint_retries: int = 3
    endpoint_backoff: float = 0.25
    endpoint_fallback: str = "none"
    normalize: bool = True
    # Window threads; 0 = auto, resolved by __post_init__, so cfg.workers is
    # never 0.  ``dataclasses.replace`` keeps the resolved count, not the 0.
    workers: int = 0

    def __post_init__(self) -> None:
        # Local segmenters are CPU-bound Python holding the interpreter lock,
        # so more threads only contend for it.  External windows wait on HTTP
        # round trips, which overlap, but their projection is CPU-bound too:
        # on 2 CPUs, 4 threads doubled the per-window latency of 2 (p50
        # 7.3-7.8 against 3.4-4.0 ms) for 2-6% more tokens/s.  So one thread
        # per CPU, capped so that a many-core host does not flood the endpoint.
        if self.workers == 0:
            auto = 1
            if self.segmenter == "external":
                auto = min(os.cpu_count() or 1, EXTERNAL_WORKERS_CAP)
            object.__setattr__(self, "workers", auto)


def _field_kinds(cls: type) -> dict[str, type]:
    """Each field of the dataclass ``cls`` and its type, ``Optional[X]`` read as ``X``."""
    return {
        name: next((arg for arg in get_args(hint) if arg is not type(None)), hint)
        for name, hint in get_type_hints(cls).items()
    }


# The config keys: the window block's are dotted ("window.size").
_SCALAR_KEYS = _field_kinds(PipelineConfig)
_WINDOW_KEYS = _field_kinds(_SCALAR_KEYS.pop("window"))


def _coerce(key: str, value: Any, kind: type) -> Any:
    if kind is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{key}: expected a boolean, got {value!r}")
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is str and isinstance(value, str):
        return value
    raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}")


def load_config(
    path: Optional[Union[str, Path]] = None,
    overrides: Optional[Mapping[str, Any]] = None,
) -> PipelineConfig:
    """Resolve a PipelineConfig from defaults, an optional file, and overrides.

    Override keys use dotted form for the window block ("window.size");
    the file may nest instead.  Unknown keys are errors.  A None override
    or a null in the file (the window block's included) leaves its key at
    the value below it.
    """
    flat: dict[str, Any] = {}
    if path is not None:
        if not Path(path).exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(read_text(path))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}")
        except ValueError as exc:  # a directory, unreadable, not UTF-8, ...
            raise ConfigError(str(exc))
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        block = raw.pop("window", None)
        if block is not None:
            if not isinstance(block, dict):
                raise ConfigError(f"window: expected an object, got {block!r}")
            flat.update((f"window.{key}", value) for key, value in block.items())
        flat.update(raw)
    if overrides:
        for key, value in overrides.items():
            if value is not None:
                flat[key] = value

    window_kwargs: dict[str, int] = {}
    kwargs: dict[str, Any] = {}
    for key, value in flat.items():
        name = key.removeprefix("window.")
        in_window = name != key
        kind = (_WINDOW_KEYS if in_window else _SCALAR_KEYS).get(name)
        if kind is None:
            raise ConfigError(f"unknown config key {key!r}")
        if value is not None:
            (window_kwargs if in_window else kwargs)[name] = _coerce(key, value, kind)
    try:
        window = WindowConfig(**window_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return PipelineConfig(window=window, **kwargs)


def validate(cfg: PipelineConfig) -> None:
    """Raise ConfigError on any inconsistency, a missing model or labels file included."""
    if cfg.segmenter not in SEGMENTER_KINDS:
        raise ConfigError(
            f"unknown segmenter {cfg.segmenter!r}; expected one of {SEGMENTER_KINDS}"
        )
    if cfg.constraint is not None:
        if cfg.constraint not in CONSTRAINT_MODES:
            raise ConfigError(
                f"unknown constraint mode {cfg.constraint!r}; expected one of {CONSTRAINT_MODES}"
            )
        implied = "LEVENSHTEIN" if cfg.segmenter == "external" else "FST"
        if cfg.constraint != implied:
            raise ConfigError(
                f"segmenter {cfg.segmenter!r} implies constraint {implied}, not "
                f"{cfg.constraint}: a local model is arc-constrained (FST), a remote "
                "generator cannot be and is projected (LEVENSHTEIN)"
            )
    if cfg.endpoint_fallback not in FALLBACK_KINDS:
        raise ConfigError(
            f"unknown endpoint fallback {cfg.endpoint_fallback!r}; "
            f"expected one of {FALLBACK_KINDS}"
        )
    try:
        parse_strategy(cfg.strategy)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if cfg.segment_len < 1:
        raise ConfigError("segment_len must be >= 1")
    if not 0 < cfg.endpoint_timeout < math.inf:  # also rejects NaN
        raise ConfigError("endpoint_timeout must be positive and finite")
    if cfg.endpoint_retries < 0:
        raise ConfigError("endpoint_retries must be >= 0")
    if not 0 <= cfg.endpoint_backoff < math.inf:
        raise ConfigError("endpoint_backoff must be >= 0 and finite")
    retries = cfg.endpoint_retries
    longest = retry_sleep(cfg.endpoint_backoff, retries - 1) if retries else 0.0
    if longest > MAX_RETRY_SLEEP_S:
        raise ConfigError(
            f"endpoint_backoff must keep the longest retry sleep at most "
            f"{MAX_RETRY_SLEEP_S:.0f} s, not {longest:g} s"
        )
    if cfg.workers < 0:
        raise ConfigError("workers must be >= 0 (0 = auto)")
    if cfg.segmenter == "autoregressive":
        if not cfg.model_path:
            raise ConfigError("autoregressive segmenter requires model_path")
        if not Path(cfg.model_path).is_file():
            raise ConfigError(f"model file not found: {cfg.model_path}")
    if cfg.segmenter == "replay":
        if not cfg.replay_labels:
            raise ConfigError("replay segmenter requires replay_labels")
        if not Path(cfg.replay_labels).is_file():
            raise ConfigError(f"labels file not found: {cfg.replay_labels}")
    if cfg.segmenter == "external":
        if not cfg.endpoint_url:
            raise ConfigError("external segmenter requires endpoint_url")
        try:
            parse_endpoint_url(cfg.endpoint_url)
        except ValueError as exc:
            raise ConfigError(str(exc))
