"""The public facade: one import for the whole reproduction.

Everything a script needs to define, run and fault-test an experiment
lives here under stable names::

    from repro import api

    result = api.run_experiment(
        api.ExperimentConfig(campaign="lan_e4500", overlapped=True)
    )
    print(result.summary())

or, with fault injection::

    plan = api.load_drill("examples/plans/sc99_flaky.json").plan
    config = api.Campaign.sc99_showfloor().with_changes(
        faults=plan, policy=api.RequestPolicy.aggressive()
    )
    result = api.run_experiment(config, sanitize=True)

``Campaign`` is :class:`~repro.core.campaign.CampaignConfig` under its
public name; :func:`run_experiment` accepts either an
:class:`~repro.config.ExperimentConfig` (the JSON-facing form) or a
concrete ``Campaign``. The deeper modules remain importable, but
anything re-exported here is covered by the public-API test and will
not move without a deprecation cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.backend.sim import SimBackEnd
from repro.config import (
    BackendConfig,
    ExperimentConfig,
    NetworkConfig,
    SiteLink,
    SiteSpec,
    StripeConfig,
    TileConfig,
    TopologyConfig,
    named_topology,
    topology_names,
)
from repro.core.campaign import (
    CampaignConfig as Campaign,
    build_session,
    campaign_names,
    named_campaign,
    run_campaign,
)
from repro.core.report import CampaignResult
from repro.dpss.client import DpssClient
from repro.dpss.health import HealthTracker
from repro.dpss.stripe import StripeMap, XorCodec
from repro.faults import FaultPlan, RequestPolicy, load_drill
from repro.service import (
    AdmissionPolicy,
    AdmissionVerdict,
    CacheConfig,
    ServiceCampaign,
    ServiceMetrics,
    ServiceResult,
    ShardCampaign,
    ShardMetrics,
    ShardResult,
    SiteMetrics,
    ViewerProfile,
    WorkloadSpec,
    result_payload,
    run_service_campaign,
    run_shard_campaign,
)
from repro.simcore import FlowClass, FlowClassPool
from repro.viewer.sim import SimViewer
from repro.volren.tiles import TileGrid

if TYPE_CHECKING:
    from repro.analysis import CheckFinding, CheckResult, run_check

__all__ = [
    "AdmissionPolicy",
    "AdmissionVerdict",
    "BackendConfig",
    "CacheConfig",
    "Campaign",
    "CampaignResult",
    "CheckFinding",
    "CheckResult",
    "DpssClient",
    "ExperimentConfig",
    "FaultPlan",
    "FlowClass",
    "FlowClassPool",
    "HealthTracker",
    "NetworkConfig",
    "RequestPolicy",
    "ServiceCampaign",
    "ServiceMetrics",
    "ServiceResult",
    "ShardCampaign",
    "ShardMetrics",
    "ShardResult",
    "SimBackEnd",
    "SimViewer",
    "SiteLink",
    "SiteMetrics",
    "SiteSpec",
    "StripeConfig",
    "StripeMap",
    "TileConfig",
    "TileGrid",
    "TopologyConfig",
    "ViewerProfile",
    "WorkloadSpec",
    "XorCodec",
    "build_session",
    "campaign_names",
    "load_drill",
    "named_campaign",
    "named_topology",
    "result_payload",
    "run_campaign",
    "run_check",
    "run_experiment",
    "run_service_campaign",
    "run_shard_campaign",
    "topology_names",
]


def run_experiment(
    config: Union[ExperimentConfig, Campaign, ServiceCampaign, ShardCampaign],
    *,
    sanitize: Optional[bool] = None,
) -> Union[CampaignResult, ShardResult]:
    """Run one experiment end to end and reduce the results.

    ``config`` may be an :class:`ExperimentConfig` (resolved through
    the named-campaign registry, honouring its ``sanitize`` flag), a
    concrete :class:`Campaign`, a :class:`ServiceCampaign` (returning
    a :class:`ServiceResult`), or a :class:`ShardCampaign` (returning
    a :class:`ShardResult`). ``sanitize`` overrides the config's
    setting when given.
    """
    if isinstance(config, ExperimentConfig):
        if sanitize is None:
            sanitize = config.sanitize
        config = config.to_campaign_config()
    return run_campaign(config, sanitize=bool(sanitize))


def __getattr__(name: str) -> object:
    """Load the static analyzer (:mod:`repro.analysis`) on first use of
    one of its three re-exported names (PEP 562): a run that never
    checks code does not compile it."""
    if name in ("CheckFinding", "CheckResult", "run_check"):
        import repro.analysis

        return getattr(repro.analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
