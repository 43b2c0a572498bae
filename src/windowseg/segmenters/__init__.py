"""Window segmenters: fixed-length, replayed, featurized, and remote."""

from .autoregressive import AutoregressiveSegmenter, CachedConditionals
from .base import (
    FixedLengthSegmenter,
    NBestList,
    ReplaySegmenter,
    SequenceScorer,
    WindowInfo,
    WindowSegmenter,
    rerank,
)
from .external import EndpointConfig, EndpointError, EndpointStatusError, ExternalSegmenter
from .features import (
    Corpus,
    FeatureConfig,
    FeatureModel,
    TrainConfig,
    TrainResult,
    evaluate_loss,
    load_model,
    loss_gradient,
    save_model,
    train_feature_model,
)

__all__ = [
    "AutoregressiveSegmenter",
    "CachedConditionals",
    "Corpus",
    "EndpointConfig",
    "EndpointError",
    "EndpointStatusError",
    "ExternalSegmenter",
    "FeatureConfig",
    "FeatureModel",
    "FixedLengthSegmenter",
    "NBestList",
    "ReplaySegmenter",
    "SequenceScorer",
    "TrainConfig",
    "TrainResult",
    "WindowInfo",
    "WindowSegmenter",
    "evaluate_loss",
    "load_model",
    "loss_gradient",
    "rerank",
    "save_model",
    "train_feature_model",
]
