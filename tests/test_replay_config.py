"""Tests for ReplayConfig identity hardening: strict digests and
unknown keys rejected by ``from_dict``."""

import pytest

from repro.core.replayer import ReplayConfig
from repro.hardware.network import InterconnectSpec
from repro.core.tensors import EmbeddingValueConfig


class TestDigestStrictness:
    def test_digest_stable_for_plain_configs(self):
        assert ReplayConfig().digest() == ReplayConfig().digest()
        assert ReplayConfig(device="A100").digest() != ReplayConfig(device="V100").digest()

    def test_digest_encodes_nested_dataclasses(self):
        default = ReplayConfig()
        tuned = ReplayConfig(
            embedding_config=EmbeddingValueConfig(zipf_alpha=1.2),
            interconnect=InterconnectSpec(),
        )
        assert default.digest() != tuned.digest()
        # Round-tripping through the dict form preserves the digest.
        assert ReplayConfig.from_dict(tuned.to_dict()).digest() == tuned.digest()

    def test_digest_raises_on_unserializable_field(self):
        class Opaque:
            pass

        config = ReplayConfig(embedding_config=Opaque())
        with pytest.raises(TypeError, match="non-JSON-serialisable"):
            config.digest()

    def test_unserializable_values_cannot_collide_via_repr(self):
        # Two distinct objects whose str() forms collide must not silently
        # produce a shared digest (the old default=str fallback allowed it).
        class Sneaky:
            def __str__(self):
                return "same"

        first = ReplayConfig(embedding_config=Sneaky())
        second = ReplayConfig(embedding_config=Sneaky())
        with pytest.raises(TypeError):
            first.digest()
        with pytest.raises(TypeError):
            second.digest()


class TestFromDictUnknownKeys:
    def test_every_unknown_key_is_named(self):
        with pytest.raises(ValueError) as raised:
            ReplayConfig.from_dict({"device": "V100", "iteratons": 5, "skip_unsupported": True})
        assert "'iteratons'" in str(raised.value)
        assert "'skip_unsupported'" in str(raised.value)

    def test_unknown_keys_raise_when_strict(self):
        with pytest.raises(ValueError, match="iteratons"):
            ReplayConfig.from_dict({"iteratons": 5})

    def test_strict_accepts_exact_roundtrip(self):
        config = ReplayConfig(device="V100", iterations=3)
        assert ReplayConfig.from_dict(config.to_dict()) == config

    def test_absent_keys_keep_defaults(self):
        config = ReplayConfig.from_dict({"device": "V100"})
        assert config.iterations == ReplayConfig().iterations
        assert config.embedding_config == EmbeddingValueConfig()
