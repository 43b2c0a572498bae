"""Configuration resolution and validation."""

import json
import math
import os
from dataclasses import replace

import pytest

from windowseg.config import ConfigError, PipelineConfig, load_config, validate
from windowseg.windowing import WindowConfig


def write_json(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestDefaults:
    def test_no_inputs(self):
        cfg = load_config()
        assert cfg == PipelineConfig()
        assert cfg.window == WindowConfig(40, 5, 5)
        assert cfg.segmenter == "autoregressive"


class TestWorkers:
    @pytest.mark.parametrize("kind", ["autoregressive", "fixed", "replay"])
    def test_auto_is_one_thread_for_local_segmenters(self, kind):
        assert load_config(None, {"segmenter": kind}).workers == 1
        assert PipelineConfig(segmenter=kind).workers == 1

    def test_auto_is_one_thread_per_cpu_for_external(self, monkeypatch):
        # Up to 4: the window threads are the only bound on requests in flight.
        for cpus, auto in ((None, 1), (1, 1), (3, 3), (16, 4)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert load_config(None, {"segmenter": "external"}).workers == auto
            assert load_config(None, {"segmenter": "external", "workers": 0}).workers == auto
            assert PipelineConfig(segmenter="external").workers == auto

    @pytest.mark.parametrize("kind", ["autoregressive", "fixed", "replay", "external"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_explicit_count_kept(self, kind, workers, tmp_path):
        assert load_config(None, {"segmenter": kind, "workers": workers}).workers == workers
        path = write_json(tmp_path, {"segmenter": kind, "workers": workers})
        assert load_config(path).workers == workers

    def test_negative_left_for_validate(self):
        assert PipelineConfig(workers=-1).workers == -1


class TestLoading:
    def test_nested_and_dotted_are_equivalent(self, tmp_path):
        nested = write_json(tmp_path, {"window": {"size": 20, "left": 3}}, "a.json")
        dotted = write_json(tmp_path, {"window.size": 20, "window.left": 3}, "b.json")
        assert load_config(nested) == load_config(dotted)
        assert load_config(nested).window == WindowConfig(20, 3, 5)

    def test_overrides_beat_file(self, tmp_path):
        path = write_json(tmp_path, {"segment_len": 9, "workers": 1})
        cfg = load_config(path, {"segment_len": 11})
        assert cfg.segment_len == 11
        assert cfg.workers == 1

    def test_none_overrides_ignored(self, tmp_path):
        path = write_json(tmp_path, {"segment_len": 9})
        cfg = load_config(path, {"segment_len": None})
        assert cfg.segment_len == 9

    @pytest.mark.parametrize("data", [
        {"segment_len": None}, {"workers": None}, {"endpoint_timeout": None},
        {"window": {"size": None}}, {"window.size": None}, {"strategy": None},
        {"normalize": None}, {"window": None},
    ])
    def test_null_means_absent(self, tmp_path, data):
        assert load_config(write_json(tmp_path, data)) == PipelineConfig()
        validate(load_config(write_json(tmp_path, {**data, "segmenter": "fixed"})))

    @pytest.mark.parametrize("data", [{"segmnter": None}, {"window": {"stride": None}}])
    def test_unknown_key_with_null_still_rejected(self, tmp_path, data):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(write_json(tmp_path, data))

    @pytest.mark.parametrize("block", [5, [1], "big", True])
    def test_window_block_must_be_an_object(self, tmp_path, block):
        with pytest.raises(ConfigError, match=r"^window: expected an object, got "):
            load_config(write_json(tmp_path, {"window": block}))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = write_json(tmp_path, {"segmnter": "fixed"})
        with pytest.raises(ConfigError, match="segmnter"):
            load_config(path)

    def test_unknown_window_key(self, tmp_path):
        path = write_json(tmp_path, {"window": {"stride": 30}})
        with pytest.raises(ConfigError, match="window.stride"):
            load_config(path)

    def test_type_errors_name_the_key(self, tmp_path):
        path = write_json(tmp_path, {"segment_len": "seventeen"})
        with pytest.raises(ConfigError, match="segment_len"):
            load_config(path)

    def test_bool_is_strict(self, tmp_path):
        with pytest.raises(ConfigError, match="normalize"):
            load_config(write_json(tmp_path, {"normalize": 1}))
        assert load_config(write_json(tmp_path, {"normalize": False})).normalize is False

    def test_int_keys_reject_bool(self, tmp_path):
        with pytest.raises(ConfigError, match="workers"):
            load_config(write_json(tmp_path, {"workers": True}))

    def test_float_accepts_int(self, tmp_path):
        cfg = load_config(write_json(tmp_path, {"endpoint_timeout": 5}))
        assert cfg.endpoint_timeout == 5.0

    def test_bad_window_geometry(self, tmp_path):
        path = write_json(tmp_path, {"window": {"size": 8, "left": 4, "right": 4}})
        with pytest.raises(ConfigError):
            load_config(path)


class TestValidate:
    def base(self, **kw):
        kw.setdefault("segmenter", "fixed")
        return PipelineConfig(**kw)

    def test_fixed_needs_nothing(self):
        validate(self.base())

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(segmenter="magic"), "unknown segmenter"),
            (dict(constraint="DTW"), "unknown constraint"),
            (dict(endpoint_fallback="retry"), "unknown endpoint fallback"),
            (dict(strategy="beam:zero"), "beam"),
            (dict(segment_len=0), "segment_len"),
            (dict(endpoint_timeout=0.0), "endpoint_timeout"),
            (dict(endpoint_retries=-1), "endpoint_retries"),
            (dict(endpoint_backoff=-0.1), "endpoint_backoff"),
            (dict(workers=-1), "workers"),
        ],
    )
    def test_field_errors(self, kw, message):
        with pytest.raises(ConfigError, match=message):
            validate(self.base(**kw))

    @pytest.mark.parametrize("key", ["endpoint_timeout", "endpoint_backoff"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_endpoint_settings(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be .* finite"):
            validate(self.base(**{key: value}))
        # JSON's NaN and Infinity literals reach validate the same way.
        with pytest.raises(ConfigError, match=key):
            validate(load_config(write_json(tmp_path, {key: value})))

    def test_autoregressive_requires_model(self):
        cfg = PipelineConfig(segmenter="autoregressive")
        with pytest.raises(ConfigError, match="model_path"):
            validate(cfg)

    def test_model_file_checked(self, tmp_path):
        cfg = PipelineConfig(segmenter="autoregressive", model_path=str(tmp_path / "m.bin"))
        with pytest.raises(ConfigError, match="not found"):
            validate(cfg)
        (tmp_path / "m.bin").write_bytes(b"")
        validate(cfg)

    def test_replay_requires_labels(self, tmp_path):
        cfg = PipelineConfig(segmenter="replay")
        with pytest.raises(ConfigError, match="replay_labels"):
            validate(cfg)
        cfg = PipelineConfig(segmenter="replay", replay_labels=str(tmp_path / "l.tsv"))
        with pytest.raises(ConfigError, match="not found"):
            validate(cfg)

    def test_external_requires_url_and_projection(self):
        with pytest.raises(ConfigError, match="endpoint_url"):
            validate(PipelineConfig(segmenter="external"))
        cfg = PipelineConfig(segmenter="external", endpoint_url="http://x/")
        validate(cfg)
        with pytest.raises(ConfigError, match="implies constraint LEVENSHTEIN, not FST"):
            validate(replace(cfg, constraint="FST"))

    @pytest.mark.parametrize(
        "url, message",
        [
            ("localhost:8080/", "scheme"),
            ("ftp://host/", "scheme"),
            ("http:///path", "no host"),
            ("http://host:port/", "Port"),
            ("http://user:pw@host/", "credentials"),
        ],
    )
    def test_malformed_endpoint_url(self, url, message):
        with pytest.raises(ConfigError, match=message):
            validate(PipelineConfig(segmenter="external", endpoint_url=url))

    def test_https_ipv6_url_with_query_accepted(self):
        validate(PipelineConfig(segmenter="external", endpoint_url="https://[::1]:8443/gen?q=1"))

    @pytest.mark.parametrize("segmenter", ["autoregressive", "fixed", "replay"])
    def test_local_segmenters_imply_fst(self, segmenter, tmp_path):
        (tmp_path / "m").write_bytes(b"")
        (tmp_path / "l").write_text("")
        cfg = PipelineConfig(
            segmenter=segmenter, model_path=str(tmp_path / "m"), replay_labels=str(tmp_path / "l")
        )
        validate(cfg)
        validate(replace(cfg, constraint="FST"))
        with pytest.raises(ConfigError, match="implies constraint FST, not LEVENSHTEIN"):
            validate(replace(cfg, constraint="LEVENSHTEIN"))

    def test_explicit_levenshtein_for_external_loads(self):
        # The form the benchmark harness passes.
        cfg = load_config(
            None,
            {"segmenter": "external", "constraint": "LEVENSHTEIN", "endpoint_url": "http://x/"},
        )
        validate(cfg)
        assert cfg.constraint == "LEVENSHTEIN"

    def test_strategy_forms_accepted(self):
        for strategy in ("greedy", "exact", "beam:8"):
            validate(self.base(strategy=strategy))
