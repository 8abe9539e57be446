"""Tests for repro.adnetwork.viewability."""

import random

import pytest

from repro.adnetwork.viewability import Exposure, ExposureConfig, ExposureModel
from tests.adnetwork.conftest import make_pageview, make_publisher


class TestExposure:
    def test_vendor_viewable_needs_both_conditions(self):
        assert Exposure(0.5, 2.0, True).vendor_viewable
        assert not Exposure(0.5, 0.5, True).vendor_viewable
        assert not Exposure(0.5, 2.0, False).vendor_viewable

    def test_exact_one_second_is_viewable(self):
        assert Exposure(0.1, 1.0, True).vendor_viewable


class TestExposureConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ExposureConfig(render_delay_min=2.0, render_delay_max=1.0)
        with pytest.raises(ValueError):
            ExposureConfig(base_in_view_prob=1.5)
        with pytest.raises(ValueError):
            ExposureConfig(engagement_view_bonus=-0.1)


class TestExposureModel:
    def test_exposure_is_dwell_minus_render_delay(self):
        model = ExposureModel(ExposureConfig(render_delay_min=1.0,
                                             render_delay_max=1.0))
        pageview = make_pageview(dwell=5.0)
        exposure = model.sample(pageview, random.Random(0))
        assert exposure.exposure_seconds == pytest.approx(4.0)

    def test_exposure_never_negative(self):
        model = ExposureModel(ExposureConfig(render_delay_min=2.0,
                                             render_delay_max=3.0))
        pageview = make_pageview(dwell=0.5)
        for seed in range(20):
            exposure = model.sample(pageview, random.Random(seed))
            assert exposure.exposure_seconds == 0.0

    def test_engaging_publishers_more_often_in_view(self):
        model = ExposureModel()
        rng = random.Random(1)
        sporty = make_pageview(make_publisher(engagement=2.2), dwell=10.0)
        dull = make_pageview(make_publisher(domain="b.es", engagement=0.6),
                             dwell=10.0)
        sporty_hits = sum(model.sample(sporty, rng).pixels_in_view
                          for _ in range(800))
        dull_hits = sum(model.sample(dull, rng).pixels_in_view
                        for _ in range(800))
        assert sporty_hits > dull_hits

    def test_long_dwell_is_audit_viewable(self):
        model = ExposureModel()
        pageview = make_pageview(dwell=60.0)
        exposure = model.sample(pageview, random.Random(2))
        assert exposure.exposure_seconds >= 1.0
