"""Tests for repro.net.useragent."""

import random

import pytest

from repro.net.useragent import (
    generate_user_agent,
    parse_user_agent,
    parse_user_agent_uncached,
)


class TestGenerate:
    @pytest.mark.parametrize("browser", ["chrome", "firefox", "safari",
                                         "msie", "opera", "headless"])
    def test_generate_parse_roundtrip(self, browser):
        rng = random.Random(1)
        raw = generate_user_agent(rng, device="desktop", browser=browser)
        assert parse_user_agent(raw).browser == browser

    def test_mobile_device_detected(self):
        rng = random.Random(2)
        raw = generate_user_agent(rng, device="mobile", browser="chrome")
        assert parse_user_agent(raw).device == "mobile"

    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError):
            generate_user_agent(random.Random(0), device="toaster")

    def test_unknown_browser_rejected(self):
        with pytest.raises(ValueError):
            generate_user_agent(random.Random(0), browser="netscape")

    def test_random_browser_draw_is_plausible(self):
        rng = random.Random(3)
        browsers = {parse_user_agent(generate_user_agent(rng)).browser
                    for _ in range(300)}
        assert "chrome" in browsers
        assert len(browsers) >= 4

    def test_deterministic_given_rng(self):
        assert generate_user_agent(random.Random(9)) == \
            generate_user_agent(random.Random(9))


class TestParse:
    def test_headless_flag(self):
        rng = random.Random(4)
        raw = generate_user_agent(rng, device="server", browser="headless")
        parsed = parse_user_agent(raw)
        assert parsed.browser == "headless"

    def test_unknown_string_classifies_gracefully(self):
        parsed = parse_user_agent("curl/7.58.0")
        assert parsed.browser == "unknown"
        assert parsed.device == "desktop"

    @pytest.mark.parametrize("raw", ["", "   ", "\t\n"])
    def test_empty_or_whitespace_classifies_as_unknown_desktop(self, raw):
        # Regression: used to raise ValueError, contradicting the
        # best-effort promise in the docstring — an auditable dataset
        # keeps records with blank UAs rather than crashing on them.
        parsed = parse_user_agent(raw)
        assert parsed.browser == "unknown"
        assert parsed.device == "desktop"
        assert parsed.raw == raw

    def test_opera_not_misread_as_chrome(self):
        raw = ("Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
               "(KHTML, like Gecko) Chrome/48.0.2564.116 Safari/537.36 OPR/35.0.2066.68")
        assert parse_user_agent(raw).browser == "opera"

    def test_safari_not_misread_from_chrome_ua(self):
        raw = ("Mozilla/5.0 (Macintosh; Intel Mac OS X 10_11_4) AppleWebKit/537.36 "
               "(KHTML, like Gecko) Chrome/49.0.2623.87 Safari/537.36")
        assert parse_user_agent(raw).browser == "chrome"


class TestParseCache:
    @pytest.mark.parametrize("raw", ["", "   ", "\t\n"])
    def test_cached_calls_still_classify_blank_as_unknown_desktop(self, raw):
        # The LRU wrapper must preserve the blank-UA contract on both the
        # miss and the hit: repeated lookups return the shared frozen
        # ('unknown', 'desktop') classification.
        parse_user_agent.cache_clear()
        first = parse_user_agent(raw)
        hits_before = parse_user_agent.cache_info().hits
        again = parse_user_agent(raw)
        assert again is first  # cache hit hands out the frozen instance
        assert parse_user_agent.cache_info().hits == hits_before + 1
        assert (again.browser, again.device) == ("unknown", "desktop")
        assert again.raw == raw

    def test_cache_is_bounded(self):
        assert parse_user_agent.cache_info().maxsize == 8192

    def test_cached_result_matches_uncached(self):
        rng = random.Random(11)
        for _ in range(50):
            raw = generate_user_agent(rng)
            assert parse_user_agent(raw) == parse_user_agent_uncached(raw)
