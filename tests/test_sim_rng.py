"""Unit tests for deterministic RNG streams."""

import numpy as np
import pytest

from repro.sim.rng import make_rng, spawn_rngs, stable_u64


class TestStableU64:
    def test_deterministic(self):
        assert stable_u64("a", 1) == stable_u64("a", 1)

    def test_distinct_labels(self):
        assert stable_u64("a") != stable_u64("b")

    def test_separator_prevents_concatenation_collisions(self):
        assert stable_u64("ab", "c") != stable_u64("a", "bc")

    def test_fits_in_64_bits(self):
        assert 0 <= stable_u64("anything", 42, None) < 2**64


class TestMakeRng:
    def test_reproducible(self):
        a = make_rng(7, "latency", "aliyun").random(8)
        b = make_rng(7, "latency", "aliyun").random(8)
        assert np.array_equal(a, b)

    def test_label_independence(self):
        a = make_rng(7, "latency", "aliyun").random(8)
        b = make_rng(7, "latency", "azure").random(8)
        assert not np.array_equal(a, b)

    def test_seed_independence(self):
        a = make_rng(7, "x").random(8)
        b = make_rng(8, "x").random(8)
        assert not np.array_equal(a, b)

    def test_streams_are_pinned(self):
        """Payload and tenant streams: changing how the labels are hashed
        would change every synthesized byte."""
        draws = make_rng(7, "payload-block", "/a").integers(0, 2**32, 4)
        assert draws.tolist() == [2563633509, 207985, 353026807, 2965173399]
        draws = make_rng(3, "tenant-payload", "t0", "/d/obj0").integers(0, 2**32, 4)
        assert draws.tolist() == [1826083997, 3383517920, 494878968, 788121965]


class TestSpawnRngs:
    def test_count_and_independence(self):
        rngs = spawn_rngs(3, 4, "workers")
        assert len(rngs) == 4
        draws = [tuple(r.random(4)) for r in rngs]
        assert len(set(draws)) == 4

    def test_zero_count(self):
        assert spawn_rngs(3, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(3, -1)
