"""Tests for repro.adnetwork.campaign."""

import pytest

from repro.adnetwork.campaign import CampaignSpec

START, END = CampaignSpec.flight(2016, 3, 29, 3, 31)


def make_campaign(**overrides):
    defaults = dict(campaign_id="Research-010", keywords=("Research",),
                    cpm_eur=0.10, target_countries=("ES",),
                    start_unix=START, end_unix=END)
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestValidation:
    def test_valid_campaign(self):
        campaign = make_campaign()
        assert campaign.campaign_id == "Research-010"

    @pytest.mark.parametrize("overrides", [
        {"campaign_id": ""},
        {"keywords": ()},
        {"cpm_eur": 0.0},
        {"target_countries": ()},
        {"end_unix": START},
        {"daily_budget_eur": 0.0},
        {"frequency_cap": 0},
    ])
    def test_rejects_invalid(self, overrides):
        with pytest.raises(ValueError):
            make_campaign(**overrides)

    def test_default_frequency_cap_is_none(self):
        # The paper's finding (iv): no default cap exists anywhere.
        assert make_campaign().frequency_cap is None

    def test_creative_id_defaults_from_campaign(self):
        assert make_campaign().creative_id == "Research-010-creative"

    def test_explicit_creative_id_kept(self):
        assert make_campaign(creative_id="X").creative_id == "X"


class TestDerived:
    def test_bid_per_impression(self):
        assert make_campaign(cpm_eur=0.30).bid_per_impression == pytest.approx(0.0003)

    def test_targets_country(self):
        campaign = make_campaign(target_countries=("ES", "RU"))
        assert campaign.targets_country("RU")
        assert not campaign.targets_country("US")


class TestFlight:
    def test_inclusive_end_date(self):
        start, end = CampaignSpec.flight(2016, 4, 2, 4, 3)
        assert (end - start) == pytest.approx(2 * 86_400.0)

    def test_single_day_flight(self):
        start, end = CampaignSpec.flight(2016, 2, 15, 2, 15)
        assert (end - start) == pytest.approx(86_400.0)

    def test_rejects_reversed_dates(self):
        with pytest.raises(ValueError):
            CampaignSpec.flight(2016, 4, 3, 4, 1)


class TestPlacementExclusions:
    def test_default_no_exclusions(self):
        campaign = make_campaign()
        assert not campaign.excludes_publisher("anything.es")
        assert not campaign.excludes_publisher("x.es", is_anonymous=True)

    def test_excluded_domain_blocked_case_insensitively(self):
        campaign = make_campaign(excluded_domains=frozenset({"Bad.ES"}))
        assert campaign.excludes_publisher("bad.es")
        assert campaign.excludes_publisher("BAD.es")
        assert not campaign.excludes_publisher("good.es")

    def test_exclude_anonymous_flag(self):
        campaign = make_campaign(exclude_anonymous=True)
        assert campaign.excludes_publisher("any.es", is_anonymous=True)
        assert not campaign.excludes_publisher("any.es", is_anonymous=False)

    def test_with_exclusions_merges(self):
        campaign = make_campaign(excluded_domains=frozenset({"a.es"}))
        updated = campaign.with_exclusions(["B.es", "c.es"])
        assert updated.excluded_domains == {"a.es", "b.es", "c.es"}
        # Original is untouched (frozen dataclass semantics).
        assert campaign.excluded_domains == {"a.es"}

    def test_with_exclusions_can_toggle_anonymous(self):
        campaign = make_campaign()
        updated = campaign.with_exclusions([], exclude_anonymous=True)
        assert updated.exclude_anonymous

    def test_empty_excluded_domain_rejected(self):
        with pytest.raises(ValueError):
            make_campaign(excluded_domains=frozenset({""}))
