"""GDN-like ad network.

The vendor under audit: campaign configuration, contextual/behavioural
matching, a CPM auction against external premium demand, budget pacing,
an exposure/viewability model, delivery, vendor-side reporting (with the
policies the paper reverse-engineers: viewable-only placement rows,
``anonymous.google`` aggregation, undisclosed contextual criteria, no
default frequency cap, silent fraud refunds) and billing.
"""

from repro.adnetwork.campaign import CampaignSpec
from repro.adnetwork.matching import MatchEngine, MatchReason, MatchDecision
from repro.adnetwork.inventory import AdRequest, ExternalDemand
from repro.adnetwork.auction import Auction, AuctionOutcome
from repro.adnetwork.pacing import BudgetPacer
from repro.adnetwork.viewability import ExposureModel, Exposure
from repro.adnetwork.server import AdServer, DeliveredImpression, NetworkPolicy
from repro.adnetwork.reporting import (
    VendorReporter,
    VendorReport,
    PlacementRow,
    ReportAggregate,
    merge_aggregates,
)
from repro.adnetwork.billing import BillingLedger
from repro.adnetwork.conversions import (
    ConversionConfig,
    ConversionEvent,
    ConversionSimulator,
)

__all__ = [
    "CampaignSpec",
    "MatchEngine",
    "MatchReason",
    "MatchDecision",
    "AdRequest",
    "ExternalDemand",
    "Auction",
    "AuctionOutcome",
    "BudgetPacer",
    "ExposureModel",
    "Exposure",
    "AdServer",
    "DeliveredImpression",
    "NetworkPolicy",
    "VendorReporter",
    "VendorReport",
    "PlacementRow",
    "ReportAggregate",
    "merge_aggregates",
    "BillingLedger",
    "ConversionConfig",
    "ConversionEvent",
    "ConversionSimulator",
]
