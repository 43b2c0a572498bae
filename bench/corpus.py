"""Seeded synthetic transcripts for the benchmark.

Documents are drawn from a Zipfian vocabulary of pseudo-words, so token
frequencies look like speech: a few types are very common and most are
rare.  That matters for anything that caches per token; a vocabulary of a
few dozen words would make any such cache hit almost always.  Sentences
often open or close with a cue word ("so", "okay", ...), which gives a
boundary model something to learn, and cue words also occur inside
sentences, so it cannot learn a perfect rule.

The vocabulary is the same for every seed; the seed picks the documents
drawn from it.  Everything is a pure function of the seed: the same seed
gives the same documents and gold labels.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass

OPENERS = ("so", "well", "now", "okay", "anyway", "then", "actually", "alright")
CLOSERS = ("right", "yeah", "okay", "basically", "anyway")
FILLERS = ("uh", "um", "er", "hmm")
# Mid-sentence abbreviations from the rules' default list; their trailing
# period must not end the sentence in the punctuated reference.
TITLES = ("Dr.", "Mr.", "Mrs.", "Prof.", "St.")
VOCAB_SIZE = 8000
# ASR corruption rates per reference token.
SUB_RATE, DEL_RATE, INS_RATE = 0.06, 0.04, 0.03

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "ch", "sh", "th", "br", "kl", "st", "tr", "pl", "gr", "dr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou", "ee")
_CODAS = ("", "", "", "n", "r", "s", "l", "k", "t", "m")


@dataclass(frozen=True)
class Document:
    """One transcript: lowercase tokens and the index of each sentence start."""

    tokens: tuple[str, ...]
    starts: tuple[int, ...]


@dataclass(frozen=True)
class OraclePair:
    """A punctuated reference and a corrupted ASR copy of it.

    ``tokens`` is the ASR copy; ``starts`` marks the first ASR token
    emitted for each reference sentence that left any token in it.
    """

    reference: str
    tokens: tuple[str, ...]
    starts: tuple[int, ...]


class Vocabulary:
    """Pseudo-words ranked by frequency, sampled with Zipf weights 1/rank^s."""

    def __init__(self, size: int = VOCAB_SIZE, exponent: float = 1.05):
        rng = random.Random(f"vocab:{size}")
        reserved = set(OPENERS) | set(CLOSERS) | set(FILLERS)
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < size:
            # Frequent words are short, as in natural language.
            max_syl = 1 + min(3, len(words) // 200)
            word = "".join(
                rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
                for _ in range(rng.randint(1, max_syl))
            )
            if word not in seen and word not in reserved:
                seen.add(word)
                words.append(word)
        self.words = tuple(words)
        total = 0.0
        cumulative = []
        for rank in range(1, size + 1):
            total += 1.0 / rank ** exponent
            cumulative.append(total)
        self._cumulative = cumulative

    def sample(self, rng: random.Random) -> str:
        x = rng.random() * self._cumulative[-1]
        return self.words[min(bisect.bisect_right(self._cumulative, x), len(self.words) - 1)]


def _sentence(rng: random.Random, vocab: Vocabulary) -> list[str]:
    length = rng.randint(4, 18)
    words = [rng.choice(OPENERS) if rng.random() < 0.7 else vocab.sample(rng)]
    for _ in range(length - 2):
        if rng.random() < 0.03:
            words.append(rng.choice(OPENERS + CLOSERS))
        else:
            words.append(vocab.sample(rng))
    words.append(rng.choice(CLOSERS) if rng.random() < 0.5 else vocab.sample(rng))
    return words


def _sentences(rng: random.Random, vocab: Vocabulary, min_tokens: int) -> list[list[str]]:
    out: list[list[str]] = []
    count = 0
    while count < min_tokens:
        out.append(_sentence(rng, vocab))
        count += len(out[-1])
    return out


def _document(sentences: list[list[str]]) -> Document:
    tokens: list[str] = []
    starts: list[int] = []
    for sentence in sentences:
        starts.append(len(tokens))
        tokens.extend(sentence)
    return Document(tuple(tokens), tuple(starts))


def make_documents(
    seed: int, count: int, min_len: int, max_len: int, stream: str = "eval"
) -> list[Document]:
    """``count`` documents with lengths log-uniform in [min_len, max_len].

    ``stream`` separates independent draws from one seed, so training and
    evaluation documents never coincide.
    """
    vocab = Vocabulary()
    rng = random.Random(f"{stream}:{seed}")
    docs = []
    for _ in range(count):
        target = int(math.exp(rng.uniform(math.log(min_len), math.log(max_len))))
        docs.append(_document(_sentences(rng, vocab, target)))
    return docs


def _punctuate(rng: random.Random, sentence: list[str]) -> tuple[list[str], list[str]]:
    """(punctuated words, spoken tokens) of one sentence, titles included."""
    raw: list[str] = []
    spoken: list[str] = []
    for i, word in enumerate(sentence):
        if 0 < i < len(sentence) - 1 and rng.random() < 0.02:
            title = rng.choice(TITLES)
            raw.append(title)
            spoken.append(title[:-1].lower())
            word = word.capitalize()
        elif 0 < i < len(sentence) - 1 and rng.random() < 0.06:
            word += ","
        raw.append(word)
        spoken.append(sentence[i])
    raw[0] = raw[0].capitalize()
    raw[-1] += rng.choices((".", "?", "!"), (0.75, 0.15, 0.10))[0]
    return raw, spoken


def make_oracle_pairs(seed: int, count: int, tokens: int) -> list[OraclePair]:
    """Reference/ASR pairs of about ``tokens`` reference tokens each.

    The ASR copy is the normalized reference with substitutions from the
    vocabulary, deletions, and inserted fillers.
    """
    vocab = Vocabulary()
    rng = random.Random(f"oracle:{seed}")
    pairs = []
    for _ in range(count):
        ref_words: list[str] = []
        asr: list[str] = []
        starts: list[int] = []
        for sentence in _sentences(rng, vocab, tokens):
            raw, spoken = _punctuate(rng, sentence)
            ref_words.extend(raw)
            pending = True
            for word in spoken:
                if rng.random() < INS_RATE:
                    if pending:
                        starts.append(len(asr))
                        pending = False
                    asr.append(rng.choice(FILLERS))
                r = rng.random()
                if r < DEL_RATE:
                    continue
                if pending:
                    starts.append(len(asr))
                    pending = False
                asr.append(vocab.sample(rng) if r < DEL_RATE + SUB_RATE else word)
        pairs.append(OraclePair(" ".join(ref_words), tuple(asr), tuple(starts)))
    return pairs
