"""Hashed log-linear boundary model: features, loss, training, serialization."""

import hashlib
import math
import random
import struct
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from reference import score_step, sequence_logprob, split_logit, step_features
from synth import make_corpus
from windowseg.core import CONTINUE, SPLIT, SegmentationLabels, Transcript
from windowseg.segmenters.features import (
    FeatureConfig,
    FeatureModel,
    TrainConfig,
    evaluate_loss,
    history_bits,
    history_feature,
    load_model,
    loss_gradient,
    offset_ngram_ids,
    save_model,
    static_features,
    train_feature_model,
)

SMALL = FeatureConfig(hash_dims=2 ** 12, ngram_orders=(2, 3), context_radius=2, history=2)


def tiny_corpus(rng, n_docs=3):
    return make_corpus(rng, n_docs, n_sentences=(2, 4))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FeatureConfig(hash_dims=0)
        with pytest.raises(ValueError):
            FeatureConfig(ngram_orders=())
        with pytest.raises(ValueError):
            FeatureConfig(ngram_orders=(0,))
        with pytest.raises(ValueError):
            FeatureConfig(context_radius=-1)
        with pytest.raises(ValueError):
            FeatureConfig(salt=2 ** 32)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(hash_dims=2 ** 32),
            dict(context_radius=256),
            dict(history=256),
            dict(ngram_orders=(2, 256)),
            dict(ngram_orders=(1,) * 256),
        ],
    )
    def test_rejects_what_the_model_file_cannot_store(self, kw):
        # Construction only: no weights are allocated.
        with pytest.raises(ValueError):
            FeatureConfig(**kw)

    def test_model_file_limits_accepted(self):
        FeatureConfig(hash_dims=2 ** 32 - 1, context_radius=255, history=255,
                      ngram_orders=(255,) * 255)

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        for rate in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(learning_rate=rate)


class TestFeatures:
    def test_history_bits_padding(self):
        assert history_bits((), 0, 3) == "___"
        assert history_bits((SPLIT, CONTINUE), 2, 3) == "_10"
        assert history_bits((1, 0, 1), 3, 2) == "01"
        assert history_bits((SPLIT,), 1, 0) == ""

    def test_history_accepts_decisions_and_ints(self):
        assert history_bits((SPLIT, CONTINUE), 2, 2) == history_bits((1, 0), 2, 2)

    def test_static_features_have_bias(self):
        toks = ("aa", "bb", "cc")
        for t in range(3):
            feats = static_features(SMALL, toks, t)
            assert all(isinstance(k, int) and 0 <= k < SMALL.hash_dims for k in feats)
            assert feats  # bias at minimum

    def test_edges_distinguish_positions(self):
        # Identical tokens, different padding context: features must differ.
        toks = ("aa", "aa", "aa", "aa", "aa", "aa", "aa")
        assert static_features(SMALL, toks, 0) != static_features(SMALL, toks, 3)
        assert static_features(SMALL, toks, 3) == static_features(SMALL, toks, 3)

    def test_interior_features_shift_invariant(self):
        # Far from both edges, features depend only on the neighborhood.
        toks = tuple("abcdefghij")
        shifted = ("zz",) + toks
        assert static_features(SMALL, toks, 5) == static_features(SMALL, shifted, 6)

    def test_salt_changes_hashing(self):
        toks = ("aa", "bb", "cc")
        salted = FeatureConfig(
            hash_dims=SMALL.hash_dims,
            ngram_orders=SMALL.ngram_orders,
            context_radius=SMALL.context_radius,
            history=SMALL.history,
            salt=99,
        )
        assert static_features(SMALL, toks, 1) != static_features(salted, toks, 1)

    def test_feature_ids_golden(self):
        # Ids (and their order) as computed when the v1 model format was
        # introduced; saved models mean nothing if these move.
        cfg = FeatureConfig(hash_dims=2 ** 12, ngram_orders=(2, 3), context_radius=1,
                            history=2, salt=5)
        assert list(static_features(cfg, ("aaa", "né"), 0).items()) == [
            (3006, 1.0), (2275, 1.0), (3999, 1.0), (376, 1.0), (3105, 1.0), (1281, 1.0),
            (892, 1.0), (1240, 1.0), (3972, 1.0), (2016, 2.0), (1940, 1.0), (3765, 1.0),
            (3020, 1.0), (3000, 1.0), (432, 1.0), (2588, 1.0), (3572, 1.0), (660, 1.0),
            (3527, 1.0),
        ]
        assert history_feature(cfg, "_1") == 1568

    @pytest.mark.parametrize("salt", [0, 5, 0xFFFFFFFF])
    def test_offset_ids_hash_the_documented_keys(self, salt):
        # Each id is the crc32 of the whole key G{delta}:{order}:{gram}.
        cfg = FeatureConfig(hash_dims=2 ** 16 + 1, ngram_orders=(1, 2, 3, 5), salt=salt)
        for token in ("aB", "Zz9", "<s>", "", "é", "naïve", "日本語", "a\x03b", "x" * 9):
            padded = "\x02" + token + "\x03"
            for delta in (-5, 0, 3):
                want = [
                    zlib.crc32(f"G{delta}:{order}:{padded[i:i + order]}".encode("utf-8"), salt)
                    % cfg.hash_dims
                    for order in cfg.ngram_orders
                    for i in range(len(padded) - order + 1)
                ]
                assert offset_ngram_ids(cfg, token, delta) == want

    def test_step_features_add_history(self):
        toks = ("aa", "bb", "cc")
        s0 = step_features(SMALL, toks, 2, (SPLIT, SPLIT))
        s1 = step_features(SMALL, toks, 2, (SPLIT, CONTINUE))
        assert s0 != s1


class TestModel:
    def test_zeros_shape(self):
        m = FeatureModel.zeros(SMALL)
        assert m.weights.shape == (SMALL.hash_dims,)
        with pytest.raises(ValueError):
            FeatureModel(SMALL, np.zeros(3))

    def test_score_step_normalized(self):
        rng = random.Random(1)
        m = FeatureModel(SMALL, rng_weights(rng, SMALL))
        toks = ("aa", "bb", "cc", "dd")
        for t in range(1, 4):
            scores = score_step(m, toks, t, (SPLIT, CONTINUE, CONTINUE)[:t])
            assert math.isclose(math.exp(scores[SPLIT]) + math.exp(scores[CONTINUE]), 1.0)

    def test_sequence_logprob_is_sum_of_steps(self):
        rng = random.Random(2)
        m = FeatureModel(SMALL, rng_weights(rng, SMALL))
        toks = ("aa", "bb", "cc", "dd", "ee")
        labels = SegmentationLabels((SPLIT, CONTINUE, SPLIT, CONTINUE, CONTINUE))
        total = 0.0
        for t in range(1, 5):
            total += score_step(m, toks, t, labels.decisions[:t])[labels[t]]
        assert math.isclose(sequence_logprob(m, toks, labels), total)

    def test_split_logit_bounds(self):
        m = FeatureModel.zeros(SMALL)
        with pytest.raises(ValueError):
            split_logit(m, ("aa",), 1, (SPLIT,))

    def test_copy_is_independent(self):
        m = FeatureModel.zeros(SMALL)
        c = m.copy()
        c.weights[0] = 5.0
        assert m.weights[0] == 0.0


def rng_weights(rng, cfg, scale=0.3):
    return np.array([rng.gauss(0, scale) for _ in range(cfg.hash_dims)])


class TestGradient:
    def test_matches_central_differences(self):
        rng = random.Random(7)
        for trial in range(10):
            corpus = tiny_corpus(rng, n_docs=2)
            model = FeatureModel(SMALL, rng_weights(rng, SMALL))
            loss, grad = loss_gradient(model, corpus)
            positions = sum(len(t) - 1 for t, _ in corpus)
            reference = -sum(sequence_logprob(model, t.tokens, lb) for t, lb in corpus) / positions
            assert math.isclose(loss, reference)
            assert evaluate_loss(model, corpus) == loss
            touched = np.nonzero(grad)[0]
            picks = rng.sample(list(touched), min(8, len(touched)))
            eps = 1e-5
            for fid in picks:
                probe = model.copy()
                probe.weights[fid] += eps
                up = evaluate_loss(probe, corpus)
                probe.weights[fid] -= 2 * eps
                down = evaluate_loss(probe, corpus)
                numeric = (up - down) / (2 * eps)
                denom = max(1.0, abs(grad[fid]), abs(numeric))
                assert abs(grad[fid] - numeric) / denom < 1e-4

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            loss_gradient(FeatureModel.zeros(SMALL), [])

    def test_mismatched_pair_rejected(self):
        t = Transcript(("aa", "bb"))
        with pytest.raises(ValueError):
            evaluate_loss(FeatureModel.zeros(SMALL), [(t, SegmentationLabels((SPLIT,)))])

    @pytest.mark.parametrize("source_id, named", [("doc", "'doc'"), ("", "corpus item 1")])
    def test_mismatched_pair_named(self, source_id, named):
        good = (Transcript(("aa",)), SegmentationLabels((SPLIT,)))
        bad = (Transcript(("aa", "bb"), source_id), SegmentationLabels((SPLIT,)))
        with pytest.raises(ValueError) as exc:
            train_feature_model([good, bad], SMALL)
        assert str(exc.value) == f"labels for {named} cover 1 tokens, transcript has 2"

    def test_single_token_docs_contribute_nothing(self):
        t = Transcript(("aa",))
        lab = SegmentationLabels((SPLIT,))
        assert evaluate_loss(FeatureModel.zeros(SMALL), [(t, lab)]) == 0.0


    def test_empty_docs_add_no_positions(self):
        doc = (Transcript(("aa", "bb")), SegmentationLabels((SPLIT, SPLIT)))
        empty = (Transcript(()), SegmentationLabels(()))
        model = FeatureModel.zeros(SMALL)
        loss = evaluate_loss(model, [empty, doc])
        assert loss == evaluate_loss(model, [doc])
        assert math.isclose(loss, math.log(2))


class TestTraining:
    def test_loss_decreases_on_learnable_data(self):
        rng = random.Random(11)
        corpus = make_corpus(rng, 8)
        result = train_feature_model(corpus, SMALL, TrainConfig(epochs=3))
        assert len(result.epoch_losses) == 3
        baseline = evaluate_loss(FeatureModel.zeros(SMALL), corpus)
        assert result.epoch_losses[0] < baseline
        assert result.epoch_losses[-1] <= result.epoch_losses[0]

    def test_deterministic_given_seed(self):
        rng = random.Random(3)
        corpus = tiny_corpus(rng)
        a = train_feature_model(corpus, SMALL, TrainConfig(epochs=2, seed=5))
        b = train_feature_model(corpus, SMALL, TrainConfig(epochs=2, seed=5))
        assert np.array_equal(a.model.weights, b.model.weights)
        assert a.epoch_losses == b.epoch_losses
        c = train_feature_model(corpus, SMALL, TrainConfig(epochs=2, seed=6))
        assert not np.array_equal(a.model.weights, c.model.weights)

    def test_last_epoch_loss_is_the_model_loss(self):
        rng = random.Random(8)
        corpus = tiny_corpus(rng)
        result = train_feature_model(corpus, SMALL, TrainConfig(epochs=2))
        assert result.epoch_losses[-1] == evaluate_loss(result.model, corpus)

    def test_model_bytes_golden(self, tmp_path):
        # Saved by an earlier version; the weight updates must never move.
        corpus = make_corpus(random.Random(21), 6)
        result = train_feature_model(corpus, SMALL, TrainConfig(epochs=2))
        save_model(result.model, tmp_path / "m.bin")
        digest = hashlib.sha256((tmp_path / "m.bin").read_bytes()).hexdigest()
        assert digest == "84de2407b2c5365b0e798f5fc9aed24812dfabf1aed4baac86caf383fa85ecee"

    def test_zero_epochs_is_identity(self):
        rng = random.Random(4)
        corpus = tiny_corpus(rng)
        init = FeatureModel(SMALL, rng_weights(rng, SMALL))
        result = train_feature_model(corpus, train_config=TrainConfig(epochs=0), init=init)
        assert np.array_equal(result.model.weights, init.weights)
        assert result.epoch_losses == []

    def test_warm_start_config_wins(self):
        rng = random.Random(5)
        corpus = tiny_corpus(rng)
        init = FeatureModel.zeros(SMALL)
        other = FeatureConfig(hash_dims=64)
        result = train_feature_model(corpus, other, TrainConfig(epochs=1), init=init)
        assert result.model.config == SMALL

    def test_non_finite_guard(self):
        rng = random.Random(6)
        corpus = tiny_corpus(rng, n_docs=1)
        init = FeatureModel(SMALL, np.full(SMALL.hash_dims, np.inf))
        with pytest.raises(ValueError):
            train_feature_model(corpus, train_config=TrainConfig(epochs=1), init=init)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = random.Random(9)
        weights = np.zeros(SMALL.hash_dims)
        for _ in range(200):
            weights[rng.randrange(SMALL.hash_dims)] = rng.gauss(0, 1)
        model = FeatureModel(SMALL, weights)
        path = tmp_path / "m.bin"
        save_model(model, path)
        back = load_model(path)
        assert back.config == model.config
        assert np.array_equal(back.weights, model.weights)

    def test_sparse_encoding_is_compact(self, tmp_path):
        model = FeatureModel.zeros(FeatureConfig(hash_dims=2 ** 20))
        path = tmp_path / "empty.bin"
        save_model(model, path)
        assert path.stat().st_size < 100

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_truncated(self, tmp_path):
        rng = random.Random(10)
        model = FeatureModel(SMALL, rng_weights(rng, SMALL))
        path = tmp_path / "m.bin"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 4])
        with pytest.raises(ValueError):
            load_model(path)

    def test_every_proper_prefix_rejected(self, tmp_path):
        rng = random.Random(11)
        path = tmp_path / "m.bin"
        save_model(FeatureModel(SMALL, rng_weights(rng, SMALL)), path)
        blob = path.read_bytes()
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(ValueError, match="truncated|expected"):
                load_model(path)

    def test_failed_save_leaves_no_file(self, tmp_path, monkeypatch):
        class Boom(Exception):
            pass

        def fail(*args):
            raise Boom

        # The header is written; the first weight pair fails.
        monkeypatch.setattr("windowseg.segmenters.features._PAIR", SimpleNamespace(pack=fail))
        model = FeatureModel(SMALL, rng_weights(random.Random(12), SMALL))
        with pytest.raises(Boom):
            save_model(model, tmp_path / "m.bin")
        assert list(tmp_path.iterdir()) == []

    def test_save_replaces_an_existing_file_whole(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"old")
        model = FeatureModel(SMALL, rng_weights(random.Random(13), SMALL))
        save_model(model, path)
        assert np.array_equal(load_model(path).weights, model.weights)
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, tmp_path, bad):
        weights = np.zeros(SMALL.hash_dims)
        weights[3] = 0.5
        weights[17] = bad
        path = tmp_path / "m.bin"
        save_model(FeatureModel(SMALL, weights), path)
        with pytest.raises(ValueError, match="feature id 17 has non-finite weight"):
            load_model(path)

    def test_feature_id_out_of_range_rejected(self, tmp_path):
        # hash_dims 4, one order, radius/history/salt 0, one pair (id 4, 0.5).
        path = tmp_path / "m.bin"
        path.write_bytes(
            struct.pack("<4sHIB", b"WSGM", 1, 4, 1) + bytes([2])
            + struct.pack("<BBIQ", 0, 0, 0, 1) + struct.pack("<Id", 4, 0.5)
        )
        with pytest.raises(ValueError, match="feature id 4 out of range"):
            load_model(path)

    def test_version_checked(self, tmp_path):
        model = FeatureModel.zeros(SMALL)
        path = tmp_path / "m.bin"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_model(path)
