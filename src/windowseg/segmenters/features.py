"""Log-linear autoregressive boundary model over hashed character n-grams.

The model factorizes a labeling's probability into per-token conditionals
p(y_t | y_<t, x) and parameterizes each with a logistic layer over sparse
features: hashed character n-grams of the tokens within a context radius
of t, plus one feature encoding the previous few decisions.  Everything
downstream (greedy/beam/exact search, n-best, reranking) only needs these
locally normalized conditionals.
"""

from __future__ import annotations

import math
import struct
import threading
import zlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from random import Random
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from ..core import Decision, SegmentationLabels, Transcript
from ..dataio import read_bytes, write_files

PAD_LEFT = "<s>"
PAD_RIGHT = "</s>"


class FieldError(ValueError):
    """A config field's value breaks its ``rule``; ``field`` names the field."""

    def __init__(self, field: str, rule: str):
        super().__init__(f"{field} {rule}")
        self.field = field
        self.rule = rule


@dataclass(frozen=True)
class FeatureConfig:
    """Feature space geometry; fixed at training time and stored with the model.

    Every field must fit the v1 model file: ``hash_dims`` and ``salt`` in 32
    bits; ``context_radius``, ``history``, each n-gram order and the number
    of orders in one byte.
    """

    hash_dims: int = 2 ** 20
    ngram_orders: tuple[int, ...] = (2, 3, 4)
    context_radius: int = 5
    history: int = 4
    salt: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "ngram_orders", tuple(self.ngram_orders))
        if not 1 <= self.hash_dims <= 0xFFFFFFFF:
            raise FieldError("hash_dims", "must be in [1, 2**32 - 1]")
        if not 1 <= len(self.ngram_orders) <= 255:
            raise FieldError("ngram_orders", "must hold 1 to 255 orders")
        if any(not 1 <= o <= 255 for o in self.ngram_orders):
            raise FieldError("ngram_orders", "must each be in [1, 255]")
        for name in ("context_radius", "history"):
            if not 0 <= getattr(self, name) <= 255:
                raise FieldError(name, "must be in [0, 255]")
        if not 0 <= self.salt <= 0xFFFFFFFF:
            raise FieldError("salt", "must fit in 32 bits")


def _hash(cfg: FeatureConfig, key: str) -> int:
    return zlib.crc32(key.encode("utf-8"), cfg.salt) % cfg.hash_dims


def history_bits(prefix: Sequence[Decision], t: int, history: int) -> str:
    """The last ``history`` decisions before position ``t`` as '0'/'1' chars.

    Each char is the decision's value.  Positions before the sequence start
    pad with '_' so early positions are distinguishable.
    """
    bits = []
    for i in range(t - history, t):
        bits.append("_" if i < 0 else "01"[prefix[i]])
    return "".join(bits)


def bias_feature(cfg: FeatureConfig) -> int:
    return _hash(cfg, "B")


@lru_cache(maxsize=None)  # one entry per (salt, offset, order) in use
def _gram_key_crc(salt: int, delta: int, order: int) -> int:
    return zlib.crc32(f"G{delta}:{order}:".encode("utf-8"), salt)


def offset_ngram_ids(cfg: FeatureConfig, token: str, delta: int) -> list[int]:
    """Hashed ids of ``token``'s character n-grams seen at context offset ``delta``.

    One id per n-gram occurrence, so a repeated n-gram is listed as often
    as it occurs.  Each id is ``_hash`` of the key ``G{delta}:{order}:{gram}``;
    crc32 continues from the cached CRC of the key's prefix, so only the
    gram's bytes are hashed.
    """
    padded = "\x02" + token + "\x03"
    crc32, dims, ends = zlib.crc32, cfg.hash_dims, len(padded) + 1
    ids: list[int] = []
    for order in cfg.ngram_orders:
        crc = _gram_key_crc(cfg.salt, delta, order)
        ids += [crc32(padded[s - order:s].encode("utf-8"), crc) % dims for s in range(order, ends)]
    return ids


class _OffsetShifts:
    """XOR constants that carry a gram's CRC over to the key of every offset.

    CRC-32 is affine in its initial value: for a gram ``g`` of ``n`` bytes
    and any initial values ``c`` and ``c0``,
    ``crc32(g, c) == crc32(g, c0) ^ crc32(bytes(n), c) ^ crc32(bytes(n), c0)``.
    With ``c0 = 0`` and ``c`` the CRC of the key prefix ``G{delta}:{order}:``,
    the last two terms depend on (offset, order, ``n``) alone.  Column
    ``slots[order, n]`` of ``matrix`` holds them for every offset, ascending;
    a column is added the first time a gram of that order and byte length
    is seen, under a lock, and its slot published only after the matrix
    holding it.
    """

    def __init__(self, salt: int, radius: int):
        self._salt = salt
        self._radius = radius
        self.slots: dict[tuple[int, int], int] = {}
        self.matrix = np.zeros((2 * radius + 1, 0), dtype=np.uint32)
        self._lock = threading.Lock()

    def slot(self, order: int, n: int) -> int:
        got = self.slots.get((order, n))
        if got is not None:
            return got
        with self._lock:
            got = self.slots.get((order, n))
            if got is None:
                zeros = bytes(n)
                base = zlib.crc32(zeros)
                r = self._radius
                column = [[zlib.crc32(zeros, _gram_key_crc(self._salt, d, order)) ^ base]
                          for d in range(-r, r + 1)]
                self.matrix = np.hstack([self.matrix, np.array(column, dtype=np.uint32)])
                got = self.slots[order, n] = self.matrix.shape[1] - 1
        return got


@lru_cache(maxsize=None)  # one entry per (salt, radius) in use
def _offset_shifts(salt: int, radius: int) -> _OffsetShifts:
    return _OffsetShifts(salt, radius)


def offset_ngram_id_matrix(cfg: FeatureConfig, token: str) -> np.ndarray:
    """``offset_ngram_ids`` of ``token`` at every context offset, one row each.

    Row ``j`` equals ``offset_ngram_ids(cfg, token, j - cfg.context_radius)``
    element for element.  Each gram is hashed once, from initial value 0,
    and moved to every offset's key with one XOR (see ``_OffsetShifts``).
    The array is C-contiguous, so numpy sums each row of weights it indexes
    in the same order as it sums that row's ids alone, bit for bit; its
    dtype is uint32, which holds every id of a valid ``hash_dims``.
    """
    shifts = _offset_shifts(cfg.salt, cfg.context_radius)
    padded = "\x02" + token + "\x03"
    crc32, ends = zlib.crc32, len(padded) + 1
    crcs: list[int] = []
    slots: list[int] = []
    for order in cfg.ngram_orders:
        for s in range(order, ends):
            gram = padded[s - order:s].encode("utf-8")
            crcs.append(crc32(gram))
            slots.append(shifts.slot(order, len(gram)))
    # take, unlike matrix[:, slots], returns rows contiguous in memory.
    shifted = np.take(shifts.matrix, slots, axis=1) ^ np.array(crcs, dtype=np.uint32)
    return shifted % np.uint32(cfg.hash_dims)


def static_features(cfg: FeatureConfig, tokens: Sequence[str], t: int) -> dict[int, float]:
    """Position features independent of decision history: bias + char n-grams."""
    feats: dict[int, float] = {bias_feature(cfg): 1.0}
    n = len(tokens)
    for delta in range(-cfg.context_radius, cfg.context_radius + 1):
        idx = t + delta
        if idx < 0:
            tok = PAD_LEFT
        elif idx >= n:
            tok = PAD_RIGHT
        else:
            tok = tokens[idx]
        for fid in offset_ngram_ids(cfg, tok, delta):
            feats[fid] = feats.get(fid, 0.0) + 1.0
    return feats


def history_feature(cfg: FeatureConfig, bits: str) -> int:
    return _hash(cfg, "H" + bits)


def _softplus(x: float) -> float:
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


@dataclass
class FeatureModel:
    """A trained (or zero-initialized) boundary model: weights over hashed features."""

    config: FeatureConfig
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (self.config.hash_dims,):
            raise ValueError(
                f"weights shape {self.weights.shape} != ({self.config.hash_dims},)"
            )

    @classmethod
    def zeros(cls, config: Optional[FeatureConfig] = None) -> "FeatureModel":
        cfg = config or FeatureConfig()
        return cls(cfg, np.zeros(cfg.hash_dims))

    def copy(self) -> "FeatureModel":
        return FeatureModel(self.config, self.weights.copy())


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyperparameters; defaults are artifact choices, all overridable."""

    epochs: int = 5
    learning_rate: float = 0.1
    seed: int = 13

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise FieldError("epochs", "must be >= 0")
        if not 0 < self.learning_rate < math.inf:  # also rejects NaN
            raise FieldError("learning_rate", "must be positive and finite")


@dataclass
class TrainResult:
    model: FeatureModel
    epoch_losses: list[float]


Corpus = Sequence[tuple[Transcript, SegmentationLabels]]


def _check_corpus(corpus: Corpus) -> None:
    if not corpus:
        raise ValueError("training corpus is empty")
    for i, (transcript, labels) in enumerate(corpus):
        if len(labels) != len(transcript):
            doc = repr(transcript.source_id) if transcript.source_id else f"corpus item {i}"
            raise ValueError(
                f"labels for {doc} cover {len(labels)} tokens, transcript has {len(transcript)}"
            )


def _example_steps(
    cfg: FeatureConfig,
    transcript: Transcript,
    labels: SegmentationLabels,
    token_ids: dict[str, np.ndarray],
):
    """Precompute (ids, counts, y) per trainable position of one document.

    The features are ``static_features`` plus the history feature, merged
    as one dict would merge them: each distinct id once, in the order the
    dict first meets it (bias, offsets ascending, history), with its count,
    so ``ids`` and ``counts`` come out equal to its keys and values.  Each
    token's ids at every offset are taken from ``token_ids``, filled from
    ``offset_ngram_id_matrix`` on first use.
    """
    steps = []
    decisions = labels.decisions
    r = cfg.context_radius
    bias = np.array([bias_feature(cfg)], dtype=np.uint32)
    context = [PAD_LEFT] * r + list(transcript.tokens) + [PAD_RIGHT] * r
    rows = []
    for tok in context:
        got = token_ids.get(tok)
        if got is None:
            got = token_ids[tok] = offset_ngram_id_matrix(cfg, tok)
        rows.append(got)
    for t in range(1, len(transcript)):
        history = history_feature(cfg, history_bits(decisions, t, cfg.history))
        merged = np.concatenate(
            [bias, *[rows[t + j][j] for j in range(2 * r + 1)], np.array([history], np.uint32)]
        )
        # first_seen is each id's first position, so order is the dict's.
        ids, first_seen, counts = np.unique(merged, return_index=True, return_counts=True)
        order = np.argsort(first_seen)
        steps.append((ids[order], counts[order].astype(np.float64), float(decisions[t])))
    return steps


def _mean_loss(
    weights: np.ndarray, documents: Iterable[list], grad: Optional[np.ndarray] = None
) -> float:
    """Mean per-token log-loss over ``_example_steps`` output, one list per document.

    With ``grad`` given, the mean gradient is added to it.
    """
    total = 0.0
    count = 0
    for steps in documents:
        # Summed per document first, as a document's log-likelihood sums,
        # so the mean equals -sum(log-likelihoods) / positions bit for bit.
        doc_loss = 0.0
        for ids, counts, y in steps:
            z = float(weights[ids] @ counts)
            doc_loss += _softplus(-z) if y else _softplus(z)
            if grad is not None:
                np.add.at(grad, ids, (_sigmoid(z) - y) * counts)
        total += doc_loss
        count += len(steps)
    if not count:
        return 0.0
    if grad is not None:
        grad /= count
    return total / count


def _corpus_steps(cfg: FeatureConfig, corpus: Corpus) -> Iterator[list]:
    _check_corpus(corpus)
    token_ids: dict[str, np.ndarray] = {}
    return (_example_steps(cfg, transcript, labels, token_ids) for transcript, labels in corpus)


def evaluate_loss(model: FeatureModel, corpus: Corpus) -> float:
    """Mean per-token negative log-likelihood over positions 1..n-1."""
    return _mean_loss(model.weights, _corpus_steps(model.config, corpus))


def loss_gradient(model: FeatureModel, corpus: Corpus) -> tuple[float, np.ndarray]:
    """Mean per-token loss and its dense analytic gradient."""
    grad = np.zeros_like(model.weights)
    return _mean_loss(model.weights, _corpus_steps(model.config, corpus), grad), grad


def train_feature_model(
    corpus: Corpus,
    feature_config: Optional[FeatureConfig] = None,
    train_config: Optional[TrainConfig] = None,
    init: Optional[FeatureModel] = None,
) -> TrainResult:
    """Stochastic gradient training of the per-token log-loss.

    The step size decays as lr/sqrt(step); document order is reshuffled
    per epoch from the seed, so runs are reproducible.  ``init`` warm
    starts from an existing model (its config wins); zero epochs then
    return it unchanged.  ``epoch_losses`` holds the full-corpus mean
    loss evaluated after each epoch.
    """
    tcfg = train_config or TrainConfig()
    if init is not None:
        model = init.copy()
    else:
        model = FeatureModel.zeros(feature_config)
    prepared = list(_corpus_steps(model.config, corpus))
    rng = Random(tcfg.seed)
    order = list(range(len(prepared)))
    weights = model.weights
    step = 0
    losses: list[float] = []
    # Finite weights (a warm start's) may sum to inf or NaN; the check below
    # reports it as the one error, so numpy does not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(tcfg.epochs):
            rng.shuffle(order)
            for doc_index in order:
                for ids, counts, y in prepared[doc_index]:
                    step += 1
                    z = float(weights[ids] @ counts)
                    if not math.isfinite(z):  # the step's loss is finite exactly when z is
                        raise ValueError(
                            f"non-finite logit {z} at step {step} (document {doc_index})"
                        )
                    lr = tcfg.learning_rate / math.sqrt(step)
                    weights[ids] -= lr * (_sigmoid(z) - y) * counts
            losses.append(_mean_loss(weights, prepared))
    return TrainResult(model, losses)


_MAGIC = b"WSGM"
_VERSION = 1
_HEADER = struct.Struct("<4sHIB")  # magic, version, hash_dims, n_orders
_TAIL = struct.Struct("<BBIQ")     # radius, history, salt, nonzero count
_PAIR = struct.Struct("<Id")


def save_model(model: FeatureModel, path: Union[str, Path]) -> None:
    """Write the versioned binary model file (sparse nonzero weights).

    Written through ``dataio.write_files``, so a failed save leaves no
    partial model behind.
    """
    cfg = model.config
    nonzero = np.nonzero(model.weights)[0]
    blob = bytearray(_HEADER.pack(_MAGIC, _VERSION, cfg.hash_dims, len(cfg.ngram_orders)))
    blob += bytes(cfg.ngram_orders)
    blob += _TAIL.pack(cfg.context_radius, cfg.history, cfg.salt, len(nonzero))
    for fid in nonzero:
        blob += _PAIR.pack(int(fid), float(model.weights[fid]))
    write_files({path: blob})


def load_model(path: Union[str, Path]) -> FeatureModel:
    """Read a model file written by save_model.

    Validates magic, version, size and feature ids, and rejects NaN or
    infinite weights, which would make every search ill-defined.
    """
    blob = read_bytes(path)
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path}: truncated model file")
    magic, version, hash_dims, n_orders = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise ValueError(f"{path}: not a model file (bad magic {magic!r})")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported model version {version}")
    off = _HEADER.size
    orders = tuple(blob[off:off + n_orders])
    off += n_orders
    if len(blob) < off + _TAIL.size:
        raise ValueError(f"{path}: truncated model file")
    radius, history, salt, count = _TAIL.unpack_from(blob, off)
    off += _TAIL.size
    cfg = FeatureConfig(hash_dims, orders, radius, history, salt)
    expected = off + count * _PAIR.size
    if len(blob) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(blob)}")
    weights = np.zeros(hash_dims)
    for _ in range(count):
        fid, w = _PAIR.unpack_from(blob, off)
        off += _PAIR.size
        if fid >= hash_dims:
            raise ValueError(f"{path}: feature id {fid} out of range")
        if not math.isfinite(w):
            raise ValueError(f"{path}: feature id {fid} has non-finite weight {w}")
        weights[fid] = w
    return FeatureModel(cfg, weights)
