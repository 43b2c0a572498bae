"""Golden n-best lists: every search strategy's ranked output, pinned bit for bit.

Each case records the decisions of every returned labeling ('0'/'1' per
token) and ``float.hex`` of its score.  The tie-heavy sweeps (zero model,
constant scorer) pin the tie-break order of the beam sort key; the
trained, random-weight and prefix-reading scorers pin realistic rankings.

The golden file is regenerated only when a ranking is meant to change:

    PYTHONPATH=src python tests/test_golden_nbest.py tests/golden_nbest.json
"""

from __future__ import annotations

import json
import math
import random
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from reference import ConstantScorer, FunctionScorer
from synth import make_document
from windowseg.automaton import (
    EXACT,
    GREEDY,
    beam,
    build_automaton,
    constrained_search,
)
from windowseg.core import DEFAULT_DELIMITER, SPLIT
from windowseg.segmenters import (
    AutoregressiveSegmenter,
    CachedConditionals,
    FeatureConfig,
    FeatureModel,
    train_feature_model,
)
from windowseg.segmenters.features import TrainConfig

GOLDEN = Path(__file__).with_name("golden_nbest.json")
CFG = FeatureConfig(hash_dims=2 ** 14, ngram_orders=(2, 3), context_radius=3, history=2)
STRATEGIES = {
    "greedy": GREEDY, **{f"beam:{k}": beam(k) for k in (1, 2, 3, 5, 8, 16)}, "exact": EXACT
}


def _prefix_scorer(tokens, seed: int) -> FunctionScorer:
    """Reads the whole emitted prefix; every arc score is a log-probability <= 0."""

    def fn(emitted, sym):
        h = zlib.crc32(f"{seed}|{'|'.join(emitted)}".encode("utf-8"))
        p = 0.05 + 0.9 * (h % 10007) / 10007
        return math.log(p) if sym == DEFAULT_DELIMITER else math.log1p(-p)

    return FunctionScorer(tokens, fn)


def _encode(results) -> list[str]:
    return [
        "".join("1" if d is SPLIT else "0" for d in h.decisions) + " " + float.hex(h.score)
        for h in results
    ]


def _run(case, tokens, make_scorer) -> dict[str, list[str]]:
    out = {}
    for name, strategy in STRATEGIES.items():
        a = build_automaton(tokens)
        out[f"{case}/{name}"] = _encode(constrained_search(a, make_scorer(tokens), strategy))
    return out


def compute_cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    zeros = FeatureModel.zeros(CFG)
    for w in range(1, 12):
        tokens = [f"t{i}" for i in range(w)]
        cases.update(_run(f"zeros/w{w}", tokens, lambda t: CachedConditionals(zeros, t)))
        cases.update(_run(f"const/w{w}", tokens, lambda t: ConstantScorer()))

    rng = random.Random(7)
    trained = train_feature_model(
        [make_document(rng, f"d{i}") for i in range(6)], CFG, TrainConfig(epochs=2)
    ).model
    noisy = FeatureModel(CFG, np.random.default_rng(5).normal(0, 0.4, CFG.hash_dims))
    doc = make_document(random.Random(99), "held-out", (30, 30))[0].tokens
    for i in range(24):
        w = 1 + i % 16
        start = rng.randrange(len(doc) - w)
        tokens = doc[start:start + w]
        for tag, model in (("trained", trained), ("noisy", noisy)):
            seg = AutoregressiveSegmenter(model)
            cases.update(_run(f"{tag}/{i}", tokens, seg.scorer))
        cases.update(_run(f"prefix/{i}", tokens, lambda t, i=i: _prefix_scorer(t, i)))
    return cases


@pytest.fixture(scope="module")
def computed():
    return compute_cases()


def test_case_set_matches_golden(computed):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(computed) == sorted(golden)


def test_nbest_lists_match_golden_bit_for_bit(computed):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    mismatched = [case for case in golden if computed.get(case) != golden[case]]
    assert not mismatched, f"{len(mismatched)} cases differ, first: {mismatched[0]}"


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(
        json.dumps(compute_cases(), indent=0, sort_keys=True) + "\n", encoding="utf-8"
    )
