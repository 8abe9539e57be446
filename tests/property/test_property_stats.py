"""Property-based tests for the statistics toolkit and impression store."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.store import ImpressionRecord, ImpressionStore
from repro.util.stats import (
    bucket_index,
    histogram,
    log_buckets,
    median,
    percentile,
)

floats = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
values = st.lists(floats, min_size=1, max_size=60)


class TestStatsProperties:
    @given(values)
    def test_median_is_within_range(self, xs):
        assert min(xs) <= median(xs) <= max(xs)

    @given(values)
    def test_median_equals_p50(self, xs):
        assert abs(median(xs) - percentile(xs, 50)) < 1e-6 * (1 + abs(median(xs)))

    @given(values, st.floats(min_value=0, max_value=100, allow_nan=False))
    def test_percentile_monotone_in_q(self, xs, q):
        tolerance = 1e-9 * (1 + max(abs(x) for x in xs))
        lower = percentile(xs, max(0.0, q - 10))
        upper = percentile(xs, min(100.0, q + 10))
        assert lower - tolerance <= percentile(xs, q) <= upper + tolerance

    @given(st.integers(min_value=1, max_value=10**9))
    def test_log_buckets_cover_max(self, max_value):
        edges = log_buckets(max_value)
        assert edges[-1] >= max_value
        assert all(b == a * 10 for a, b in zip(edges, edges[1:]))

    @given(st.lists(st.integers(min_value=1, max_value=10**7), min_size=1,
                    max_size=100))
    def test_histogram_conserves_mass(self, ranks):
        edges = log_buckets(10**7)
        counts = histogram(ranks, edges)
        assert sum(counts) == len(ranks)
        for rank in ranks:
            index = bucket_index(rank, edges)
            assert rank <= edges[index]
            if index > 0:
                assert rank > edges[index - 1]


record_ids = st.integers(min_value=1, max_value=10**6)


class TestStoreProperties:
    @given(st.lists(st.tuples(
        st.sampled_from(["A", "B", "C"]),            # campaign
        st.sampled_from(["x.es", "y.es", "z.es"]),   # domain
        st.sampled_from(["1.1.1.1", "2.2.2.2"]),     # ip
        st.sampled_from(["UA-1", "UA-2"]),           # user agent
        st.floats(min_value=0, max_value=100, allow_nan=False),  # exposure
    ), max_size=40))
    @settings(max_examples=50)
    def test_store_invariants(self, rows):
        store = ImpressionStore()
        for campaign, domain, ip, ua, exposure in rows:
            store.insert(ImpressionRecord(
                record_id=store.next_record_id(),
                campaign_id=campaign,
                creative_id=f"{campaign}-creative",
                url=f"http://{domain}/a",
                user_agent=ua,
                ip=ip,
                timestamp=0.0,
                exposure_seconds=exposure,
            ))
        # Partition invariant: per-campaign slices cover the store exactly.
        assert sum(len(store.by_campaign(c)) for c in store.campaigns()) == \
            len(store)
        # The user_key column gives each record its own user key.
        assert [key for key, in store.select(None, "user_key")] == \
            [record.user_key for record in store]
        # Distinct domains match a manual scan.
        assert store.distinct_domains() == {record.domain for record in store}
