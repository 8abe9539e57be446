"""Tests for repro.util.stats."""

import pytest

from repro.util.stats import (
    Fraction2,
    bucket_index,
    histogram,
    log_buckets,
    median,
    percentile,
)


class TestMedian:
    def test_odd_length(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_even_length_averages_middle(self):
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_single_value(self):
        assert median([7.0]) == 7.0

    def test_does_not_mutate_input(self):
        values = [3.0, 1.0, 2.0]
        median(values)
        assert values == [3.0, 1.0, 2.0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            median([])


class TestPercentile:
    def test_p0_is_min_p100_is_max(self):
        values = [5.0, 1.0, 9.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_p50_matches_median(self):
        values = [1.0, 2.0, 3.0, 10.0]
        assert percentile(values, 50) == median(values)

    def test_interpolates_between_points(self):
        assert percentile([0.0, 10.0], 25) == 2.5

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestLogBuckets:
    def test_default_edges_cover_alexa_range(self):
        edges = log_buckets(10_000_000)
        assert edges == [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000]

    def test_last_edge_covers_max_value(self):
        edges = log_buckets(1_500_000)
        assert edges[-1] >= 1_500_000

    def test_small_max_gives_single_bucket(self):
        assert log_buckets(50) == [100]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            log_buckets(0)
        with pytest.raises(ValueError):
            log_buckets(100, base=1)
        with pytest.raises(ValueError):
            log_buckets(100, first_edge=0)


class TestBucketIndex:
    def test_boundary_values_fall_in_lower_bucket(self):
        edges = [100, 1000, 10000]
        assert bucket_index(100, edges) == 0
        assert bucket_index(101, edges) == 1
        assert bucket_index(1000, edges) == 1

    def test_values_beyond_last_edge_raise(self):
        with pytest.raises(ValueError, match="exceeds the last bucket edge"):
            bucket_index(999_999, [100, 1000])

    def test_clamp_folds_overflow_into_last_bucket(self):
        assert bucket_index(999_999, [100, 1000], clamp=True) == 1

    def test_rejects_rank_below_one(self):
        with pytest.raises(ValueError):
            bucket_index(0, [100])

    def test_rejects_empty_edges(self):
        with pytest.raises(ValueError):
            bucket_index(1, [])


class TestHistogram:
    def test_counts_sum_to_input_size(self):
        edges = [10, 100, 1000]
        counts = histogram([1, 5, 50, 500, 1000], edges)
        assert sum(counts) == 5

    def test_bucket_placement(self):
        counts = histogram([1, 2, 20, 200], [10, 100, 1000])
        assert counts == [2, 1, 1]

    def test_out_of_range_value_raises(self):
        with pytest.raises(ValueError, match="exceeds the last bucket edge"):
            histogram([1, 5000], [10, 100, 1000])

    def test_out_of_range_value_clamps_when_asked(self):
        counts = histogram([1, 5000], [10, 100, 1000], clamp=True)
        assert counts == [1, 0, 1]


class TestFraction2:
    def test_pct_and_str(self):
        fraction = Fraction2(57, 100)
        assert fraction.pct == pytest.approx(57.0)
        assert str(fraction) == "57.00 %"

    def test_zero_denominator_is_zero(self):
        assert Fraction2(0, 0).value == 0.0

    def test_rejects_numerator_above_denominator(self):
        with pytest.raises(ValueError):
            Fraction2(2, 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Fraction2(-1, 1)

    def test_equality_and_hash(self):
        assert Fraction2(1, 2) == Fraction2(1, 2)
        assert hash(Fraction2(1, 2)) == hash(Fraction2(1, 2))
        assert Fraction2(1, 2) != Fraction2(2, 4)
