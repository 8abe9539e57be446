"""Tests for repro.util.rng — deterministic named random streams."""

import bisect
import random

import pytest

from repro.util.rng import CumulativeSampler, RngFactory, zipf_weights


class TestRngFactory:
    def test_same_name_returns_same_stream(self):
        factory = RngFactory(seed=1)
        assert factory.stream("a") is factory.stream("a")

    def test_different_names_yield_independent_sequences(self):
        factory = RngFactory(seed=1)
        a = [factory.stream("a").random() for _ in range(5)]
        b = [factory.stream("b").random() for _ in range(5)]
        assert a != b

    def test_same_seed_reproduces_sequences(self):
        first = RngFactory(seed=42).stream("x").random()
        second = RngFactory(seed=42).stream("x").random()
        assert first == second

    def test_different_seeds_differ(self):
        assert RngFactory(1).stream("x").random() != RngFactory(2).stream("x").random()

    def test_draws_on_one_stream_do_not_perturb_another(self):
        factory_a = RngFactory(seed=7)
        factory_a.stream("noise").random()
        value_after_noise = factory_a.stream("signal").random()
        factory_b = RngFactory(seed=7)
        value_without_noise = factory_b.stream("signal").random()
        assert value_after_noise == value_without_noise


class TestZipfWeights:
    def test_first_rank_has_largest_weight(self):
        weights = zipf_weights(10)
        assert weights[0] == max(weights)

    def test_monotonically_decreasing(self):
        weights = zipf_weights(50, exponent=1.2)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_exponent_zero_is_uniform(self):
        assert zipf_weights(5, exponent=0.0) == [1.0] * 5

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            zipf_weights(0)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            zipf_weights(5, exponent=-1.0)


class TestCumulativeSampler:
    def test_rejects_empty_weights(self):
        with pytest.raises(ValueError):
            CumulativeSampler([])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            CumulativeSampler([1.0, -0.5])

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ValueError):
            CumulativeSampler([0.0, 0.0])

    def test_samples_respect_distribution(self):
        sampler = CumulativeSampler([8.0, 1.0, 1.0])
        rng = random.Random(123)
        counts = [0, 0, 0]
        for _ in range(5000):
            counts[sampler.sample(rng)] += 1
        assert counts[0] > counts[1] + counts[2]

    def test_zero_weight_item_never_sampled(self):
        sampler = CumulativeSampler([1.0, 0.0, 1.0])
        rng = random.Random(5)
        assert all(sampler.sample(rng) != 1 for _ in range(2000))

    def test_len_matches_weights(self):
        assert len(CumulativeSampler([1, 2, 3])) == 3

    def test_cumulative_equals_running_sum(self):
        weights = zipf_weights(500, 1.3)
        total = sum(weights)
        running, expected = 0.0, []
        for weight in weights:
            running += weight / total
            expected.append(running)
        expected[-1] = 1.0
        sampler = CumulativeSampler(weights)
        assert list(sampler.cumulative) == expected
        rng_a, rng_b = random.Random(3), random.Random(3)
        assert [sampler.sample(rng_a) for _ in range(200)] == [
            bisect.bisect_left(expected, rng_b.random()) for _ in range(200)]
