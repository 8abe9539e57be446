"""Tests for repro.web.publisher."""

import pytest

from repro.web.publisher import Publisher, domain_of_url


def make_publisher(**overrides):
    defaults = dict(domain="futbol1.es", global_rank=500, country_focus="ES",
                    topics=("football",), keywords=("football", "soccer"))
    defaults.update(overrides)
    return Publisher(**defaults)


class TestPublisher:
    def test_valid_construction(self):
        publisher = make_publisher()
        assert publisher.domain == "futbol1.es"

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            make_publisher(domain="nodots")
        with pytest.raises(ValueError):
            make_publisher(domain="")

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            make_publisher(global_rank=0)

    def test_rejects_empty_topics(self):
        with pytest.raises(ValueError):
            make_publisher(topics=())

    def test_rejects_bad_premium_demand(self):
        with pytest.raises(ValueError):
            make_publisher(premium_demand=1.5)

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            make_publisher(ad_slots=0)

    def test_url_for_page_contains_domain_and_topic(self):
        url = make_publisher().url_for_page(7)
        assert url.startswith("http://futbol1.es/")
        assert "football" in url

    def test_url_for_page_rejects_negative(self):
        with pytest.raises(ValueError):
            make_publisher().url_for_page(-1)

    def test_matches_keyword_case_insensitive(self):
        publisher = make_publisher()
        assert publisher.matches_keyword("FOOTBALL")
        assert publisher.matches_keyword("  soccer ")
        assert not publisher.matches_keyword("tennis")

    def test_matches_keyword_normalises_both_sides(self):
        # Whitespace runs collapse and case folds on the vendor's keyword
        # list exactly as on the campaign keyword.
        publisher = make_publisher(keywords=("La  Liga", " primera division"))
        assert publisher.matches_keyword("la liga")
        assert publisher.matches_keyword("LA   LIGA ")
        assert publisher.matches_keyword("primera division")
        assert not publisher.matches_keyword("laliga")


class TestDomainOfUrl:
    def test_extracts_domain_from_url(self):
        assert domain_of_url("http://futbol1.es/liga/article-3.html") == "futbol1.es"

    def test_strips_port(self):
        assert domain_of_url("http://example.com:8080/x") == "example.com"

    def test_accepts_bare_domain(self):
        assert domain_of_url("Example.COM") == "example.com"

    def test_https_scheme(self):
        assert domain_of_url("https://a.b.c/d") == "a.b.c"

    def test_roundtrip_with_publisher_urls(self):
        publisher = make_publisher()
        assert domain_of_url(publisher.url_for_page(42)) == publisher.domain

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            domain_of_url("")
        with pytest.raises(ValueError):
            domain_of_url("http:///path")
