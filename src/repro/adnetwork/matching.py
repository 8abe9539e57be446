"""The network's targeting engine.

AdWords' support pages say keyword campaigns follow a *contextual*
strategy, but "may use other factors to determine if a publisher is
contextually relevant ... such as the recent browsing history of a user"
(paper §4.2, reference [1]).  This module models exactly that undisclosed
behaviour:

* ``CONTEXTUAL`` — the network's own page classifier relates the publisher
  to the campaign keywords.  Deliberately *broader* than the auditor's
  criterion: any publisher topic within the same vertical counts.
* ``BEHAVIOURAL`` — the visitor's recent interests match the campaign; the
  network still files the impression under its contextual strategy.
* ``BROAD`` — remnant/run-of-network extension when spend pressure exists;
  never claimed as contextual.

The *auditor's* stricter criterion (literal keyword match or LCH-similar
topics) lives in :mod:`repro.audit.context`; the gap between these two
judgments is Table 2.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from repro.adnetwork.campaign import CampaignSpec
from repro.taxonomy.lexicon import Lexicon
from repro.taxonomy.tree import TaxonomyTree
from repro.web.publisher import Publisher


class MatchReason(enum.Enum):
    """Why the network considered a campaign eligible for a pageview."""

    CONTEXTUAL = "contextual"
    BEHAVIOURAL = "behavioural"
    BROAD = "broad"
    NONE = "none"


@dataclass(frozen=True)
class MatchDecision:
    """Eligibility verdict for (campaign, pageview)."""

    eligible: bool
    reason: MatchReason

    @property
    def claimed_contextual(self) -> bool:
        """Would the vendor's report call this a contextual placement?

        Behavioural placements are *also* claimed: the network files
        recent-browsing-history matches under its contextual strategy —
        the non-disclosed criterion the paper highlights.
        """
        return self.reason in (MatchReason.CONTEXTUAL, MatchReason.BEHAVIOURAL)


#: The four verdicts :meth:`MatchEngine.decide` returns.
CONTEXTUAL_MATCH = MatchDecision(eligible=True, reason=MatchReason.CONTEXTUAL)
BEHAVIOURAL_MATCH = MatchDecision(eligible=True,
                                  reason=MatchReason.BEHAVIOURAL)
BROAD_MATCH = MatchDecision(eligible=True, reason=MatchReason.BROAD)
NO_MATCH = MatchDecision(eligible=False, reason=MatchReason.NONE)


class MatchEngine:
    """Eligibility decisions for every (campaign, pageview) pair.

    Parameters
    ----------
    broad_match_rate:
        Probability that an otherwise-unmatched pageview is still eligible
        through run-of-network extension.  This is what lets low-inventory
        campaigns (research keywords in Spain) spend their budget at all —
        and why so few of their impressions are contextually meaningful.
    vertical_radius_edges:
        How far (in taxonomy edges) the network's page classifier is willing
        to stretch a "contextual" call.  The default of 2 admits any topic
        in the same sub-vertical, which is looser than the auditor's
        criterion and inflates the vendor-reported numbers of Table 2.
    """

    def __init__(self, lexicon: Lexicon, broad_match_rate: float = 0.02,
                 behavioural_rate: float = 0.5,
                 vertical_radius_edges: int = 1) -> None:
        if not 0.0 <= broad_match_rate <= 1.0:
            raise ValueError("broad_match_rate must be within [0, 1]")
        if not 0.0 <= behavioural_rate <= 1.0:
            raise ValueError("behavioural_rate must be within [0, 1]")
        if vertical_radius_edges < 0:
            raise ValueError("vertical_radius_edges must be non-negative")
        self.lexicon = lexicon
        self.tree: TaxonomyTree = lexicon.tree
        self.broad_match_rate = broad_match_rate
        #: Probability the behavioural signal is *available* for a matching
        #: visitor — the network's interest profiles do not cover everyone.
        self.behavioural_rate = behavioural_rate
        self.vertical_radius_edges = vertical_radius_edges
        self._contextual_cache: dict[tuple[str, str], bool] = {}
        #: (campaign_id, radius) → union of the campaign topics'
        #: taxonomy neighbourhoods; built from the tree-level
        #: ``nodes_within`` memo that the context audit shares.
        self._neighborhoods: dict[tuple[str, int], frozenset[str]] = {}

    def campaign_topics(self, campaign: CampaignSpec) -> tuple[str, ...]:
        """The campaign keywords resolved to taxonomy nodes.

        Resolution is memoised inside the shared :class:`Lexicon`, so the
        matching engine and the context audit resolve each campaign's
        keyword list exactly once between them.
        """
        return self.lexicon.campaign_topics(campaign.campaign_id,
                                            campaign.keywords)

    def _campaign_neighborhood(self, campaign: CampaignSpec,
                               radius: int) -> frozenset[str]:
        """Union of ``nodes_within(topic, radius)`` over campaign topics."""
        key = (campaign.campaign_id, radius)
        cached = self._neighborhoods.get(key)
        if cached is None:
            nodes: set[str] = set()
            for topic in self.campaign_topics(campaign):
                nodes.update(self.tree.nodes_within(topic, radius))
            cached = frozenset(nodes)
            self._neighborhoods[key] = cached
        return cached

    def contextual_match(self, campaign: CampaignSpec,
                         publisher: Publisher) -> bool:
        """The *network's* page-classifier verdict (loose, cached)."""
        key = (campaign.campaign_id, publisher.domain)
        if key not in self._contextual_cache:
            self._contextual_cache[key] = self._contextual(campaign, publisher)
        return self._contextual_cache[key]

    def _contextual(self, campaign: CampaignSpec, publisher: Publisher) -> bool:
        if any(publisher.matches_keyword(keyword)
               for keyword in campaign.keywords):
            return True
        # path_length(t, p) <= radius for some campaign topic t iff p is
        # in the precomputed neighbourhood union — one set probe per
        # publisher topic instead of a nested path computation.
        neighborhood = self._campaign_neighborhood(
            campaign, self.vertical_radius_edges)
        return not neighborhood.isdisjoint(publisher.topics)

    def behavioural_match(self, campaign: CampaignSpec,
                          interests: tuple[str, ...]) -> bool:
        """Does the visitor's recent browsing profile match the campaign?

        An interest matches when it is a campaign topic or one taxonomy
        edge away from one, i.e. exactly when it falls in the campaign's
        radius-1 neighbourhood (empty without campaign topics) — a single
        set intersection per call.
        """
        return not self._campaign_neighborhood(campaign, 1).isdisjoint(interests)

    def decide(self, campaign: CampaignSpec, publisher: Publisher,
               interests: tuple[str, ...], rng: random.Random,
               broad_rate: float | None = None) -> MatchDecision:
        """Full eligibility decision for one pageview.

        *broad_rate* overrides the engine default; the ad server raises it
        dynamically when a campaign is underdelivering against its budget
        (run-of-network expansion) — which is how keyword campaigns with
        almost no matching inventory still manage to spend.  Returns one
        of the four module-level decision constants.
        """
        if campaign.keywords and self.contextual_match(campaign, publisher):
            return CONTEXTUAL_MATCH
        if self.behavioural_match(campaign, interests) \
                and rng.random() < self.behavioural_rate:
            return BEHAVIOURAL_MATCH
        rate = self.broad_match_rate if broad_rate is None else broad_rate
        if rng.random() < rate:
            return BROAD_MATCH
        return NO_MATCH
