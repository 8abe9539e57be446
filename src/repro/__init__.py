"""adaudit — independent auditing of online display advertising campaigns.

A faithful reproduction of Callejo et al., *Independent Auditing of Online
Display Advertising Campaigns* (HotNets-XV, 2016): the beacon-based
collection pipeline, the six audit analyses, and — because the original
study needs live paid campaigns — a complete synthetic ad ecosystem
(publishers, users, bots, a GDN-like ad network with vendor reporting) to
run them against.

Quick start::

    from repro import paper_experiment, ExperimentRunner, full_audit

    result = ExperimentRunner(paper_experiment(scale=0.05)).run()
    print(full_audit(result.dataset).render())

Subpackage map:

===================  ====================================================
``repro.audit``      the paper's contribution: the six audit analyses
``repro.beacon``     the injected-script simulation and WebSocket client
``repro.collector``  the central server, wire format, impression store
``repro.adnetwork``  the vendor under audit (serving, reporting, billing)
``repro.web``        publishers, ranking, users, bots, browsing
``repro.geo``        IP intelligence (MaxMind-like DB, deny list, cascade)
``repro.taxonomy``   topic ontology + Leacock–Chodorow similarity
``repro.net``        IPv4/CIDR, LPM trie, RFC 6455 WebSocket, transport
``repro.experiments`` Table 1 configuration, runner, tables & figures
===================  ====================================================
"""

from repro.audit import (
    AuditDataset,
    BrandSafetyAudit,
    ContextAudit,
    FraudAudit,
    FrequencyAudit,
    PopularityAudit,
    ReconciliationAudit,
    ViewabilityAudit,
    full_audit,
)
from repro.adnetwork import CampaignSpec
from repro.collector import ImpressionRecord, ImpressionStore
from repro.experiments import (
    ExperimentConfig,
    ExperimentRunner,
    ExperimentResult,
    paper_experiment,
)

__version__ = "1.0.0"

__all__ = [
    "AuditDataset",
    "BrandSafetyAudit",
    "ContextAudit",
    "FraudAudit",
    "FrequencyAudit",
    "PopularityAudit",
    "ReconciliationAudit",
    "ViewabilityAudit",
    "full_audit",
    "CampaignSpec",
    "ImpressionRecord",
    "ImpressionStore",
    "ExperimentConfig",
    "ExperimentRunner",
    "ExperimentResult",
    "paper_experiment",
    "__version__",
]
