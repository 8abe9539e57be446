"""Tests for repro.experiments.config."""

import pytest

from repro.experiments.config import (
    CampaignPlan,
    ExperimentConfig,
    PeriodPlan,
    paper_experiment,
)


class TestPaperExperiment:
    def test_eight_campaigns_of_table1(self):
        config = paper_experiment()
        ids = [plan.spec.campaign_id for plan in config.campaigns]
        assert ids == ["Research-010", "Research-020", "Football-010",
                       "Football-030", "Russia", "USA", "General-005",
                       "General-010"]

    def test_table1_parameters(self):
        config = paper_experiment()
        russia = config.campaign("Russia").spec
        assert russia.cpm_eur == 0.01
        assert russia.target_countries == ("RU",)
        assert russia.keywords == ("Research",)
        general = config.campaign("General-005").spec
        assert general.keywords == ("Universities", "Research", "Telematics")

    def test_flight_dates_match_paper(self):
        config = paper_experiment()
        football = config.campaign("Football-010").spec
        assert football.end_unix - football.start_unix == 2 * 86_400
        general10 = config.campaign("General-010").spec
        assert general10.end_unix - general10.start_unix == 6 * 86_400

    def test_impression_targets_match_paper(self):
        config = paper_experiment()
        assert config.campaign("Research-020").target_impressions == 42_399
        assert config.campaign("USA").target_impressions == 1_178

    def test_three_periods_cover_all_campaigns(self):
        config = paper_experiment()
        for plan in config.campaigns:
            covered = any(period.start_unix <= plan.spec.start_unix
                          and plan.spec.end_unix <= period.end_unix
                          for period in config.periods)
            assert covered, plan.spec.campaign_id

    def test_scale_shrinks_world_and_budgets(self):
        full = paper_experiment(scale=1.0)
        small = paper_experiment(scale=0.1)
        assert small.scaled_users_per_country < full.scaled_users_per_country
        assert small.campaign("Russia").spec.daily_budget_eur < \
            full.campaign("Russia").spec.daily_budget_eur
        assert small.campaign("Russia").target_impressions == \
            pytest.approx(410, abs=1)

    def test_unknown_campaign_raises(self):
        with pytest.raises(KeyError):
            paper_experiment().campaign("nope")


class TestValidation:
    def test_period_validation(self):
        with pytest.raises(ValueError):
            PeriodPlan(name="x", start_unix=10, end_unix=5, countries=("ES",))
        with pytest.raises(ValueError):
            PeriodPlan(name="x", start_unix=0, end_unix=5, countries=())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scale=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(publisher_count=10)

    def test_duplicate_campaign_ids_rejected(self):
        config = paper_experiment()
        with pytest.raises(ValueError):
            ExperimentConfig(campaigns=config.campaigns + (config.campaigns[0],))

    def test_campaign_plan_validation(self):
        config = paper_experiment()
        with pytest.raises(ValueError):
            CampaignPlan(spec=config.campaigns[0].spec, target_impressions=0)
