"""Independent references for the library's scorer and beam search, and test-only scorers.

The library computes a feature model's conditionals from its token table
(``CachedConditionals``).  Here they are computed the long way: the
features of a position as a dict (``step_features``), their logit as one
dot product with the weights, and the log-probabilities as two softplus
calls.  Tests compare the two paths.

``reference_beam`` is beam search as it was first written: each step
builds a hypothesis for every candidate and sorts them all by key.  The
library's beam builds only the candidates that can survive; tests compare
the two.  Hypotheses compare by identity, so tests compare search results
through ``ranked``.

``FunctionScorer`` and ``ConstantScorer`` are symbol scorers for search
tests that need no model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from windowseg.automaton import (
    _KEY,
    Hypothesis,
    SegAutomaton,
    SymbolScorer,
    _extend,
    _greedy_hypothesis,
    _nan_error,
)
from windowseg.core import CONTINUE, DEFAULT_DELIMITER, SPLIT, Decision, SegmentationLabels
from windowseg.segmenters.features import (
    FeatureConfig,
    FeatureModel,
    history_bits,
    history_feature,
    static_features,
)


def _softplus(x: float) -> float:
    """log(1 + exp(x)), written apart from ``features.log_probs`` that it checks."""
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def step_features(
    cfg: FeatureConfig, tokens: Sequence[str], t: int, prefix: Sequence[object]
) -> dict[int, float]:
    """``static_features`` plus the feature of the last ``history`` decisions."""
    feats = static_features(cfg, tokens, t)
    fid = history_feature(cfg, history_bits(prefix, t, cfg.history))
    feats[fid] = feats.get(fid, 0.0) + 1.0
    return feats


def logit(model: FeatureModel, feats: dict[int, float]) -> float:
    ids = np.fromiter(feats.keys(), dtype=np.int64, count=len(feats))
    counts = np.fromiter(feats.values(), dtype=np.float64, count=len(feats))
    return float(model.weights[ids] @ counts)


def split_logit(
    model: FeatureModel, tokens: Sequence[str], t: int, prefix: Sequence[object]
) -> float:
    """Log-odds of SPLIT at position ``t`` given the decision prefix."""
    if not 0 <= t < len(tokens):
        raise ValueError(f"position {t} outside window of {len(tokens)} tokens")
    return logit(model, step_features(model.config, tokens, t, prefix))


def score_step(
    model: FeatureModel, tokens: Sequence[str], t: int, prefix: Sequence[object]
) -> dict[Decision, float]:
    """Locally normalized log-distribution over the decision at ``t``."""
    z = split_logit(model, tokens, t, prefix)
    return {SPLIT: -_softplus(-z), CONTINUE: -_softplus(z)}


def sequence_logprob(
    model: FeatureModel,
    tokens: Sequence[str],
    labels: Union[SegmentationLabels, Sequence[Decision]],
) -> float:
    """Log-likelihood of a labeling: sum over positions 1..n-1.

    Position 0 is structural and contributes nothing, matching the path
    scores produced by constrained search.
    """
    decisions = list(labels)
    if len(decisions) != len(tokens):
        raise ValueError(f"labels length {len(decisions)} != window length {len(tokens)}")
    total = 0.0
    for t in range(1, len(tokens)):
        z = split_logit(model, tokens, t, decisions[:t])
        total += -_softplus(-z) if decisions[t] is SPLIT else -_softplus(z)
    return total


def ranked(results: Sequence[Hypothesis]) -> list[tuple[tuple[Decision, ...], float]]:
    """Search results as ``(decisions, score)`` pairs, in their order."""
    return [(h.decisions, h.score) for h in results]


def reference_beam(a: SegAutomaton, scorer: SymbolScorer, width: int) -> list[Hypothesis]:
    """Beam search of ``width`` that ranks every candidate of every step."""
    active = [Hypothesis(a.start, 0.0)]
    finished: list[Hypothesis] = []
    while active:
        candidates: list[Hypothesis] = []
        for hyp in active:
            for arc in a.rows[hyp.state]:
                s = scorer.score_symbol(hyp, arc[0])
                if s != s:
                    raise _nan_error(arc[0], hyp.state)
                (finished if arc[1] == a.final else candidates).append(_extend(hyp, arc, s))
        candidates.sort(key=_KEY)
        del candidates[width:]
        active = candidates
    pooled = sorted(finished + [_greedy_hypothesis(a, scorer)], key=_KEY)
    out: list[Hypothesis] = []
    seen: set[tuple[Decision, ...]] = set()
    for h in pooled:
        if h.decisions in seen:
            continue
        seen.add(h.decisions)
        out.append(h)
        if len(out) == width:
            break
    return out


def emitted(tokens: Sequence[str], hypothesis: Hypothesis) -> tuple[str, ...]:
    """The symbols along ``hypothesis``'s path through the window ``tokens``.

    Rebuilt from its decisions and pending flag: a delimiter before every
    split token but the first, and one more while a delimiter is pending.
    """
    symbols: list[str] = []
    for i, d in enumerate(hypothesis.decisions):
        if d and i:
            symbols.append(DEFAULT_DELIMITER)
        symbols.append(tokens[i])
    if hypothesis.pending:
        symbols.append(DEFAULT_DELIMITER)
    return tuple(symbols)


@dataclass
class FunctionScorer:
    """Wraps a plain ``fn(emitted_prefix, symbol) -> log-score`` callable.

    ``tokens`` is the searched window.  ``fn`` may read the whole prefix,
    so the scorer sets no ``history``.
    """

    tokens: Sequence[str]
    fn: Callable[[tuple[str, ...], str], float]

    def score_symbol(self, hypothesis: Hypothesis, symbol: str) -> float:
        return self.fn(emitted(self.tokens, hypothesis), symbol)


@dataclass
class ConstantScorer:
    """Assigns the same log-score to every symbol; useful as a tie-break probe."""

    value: float = math.log(0.5)
    history = 0

    def score_symbol(self, hypothesis: Hypothesis, symbol: str) -> float:
        return self.value
