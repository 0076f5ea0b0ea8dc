"""Multi-viewer serving layer: sessions, admission, shared caches.

The paper ran one viewer against one back end; this package runs many.
A :class:`SessionManager` multiplexes concurrent viewer sessions over a
shared back-end PE pool and a shared DPSS site, applying an
:class:`AdmissionPolicy` (session cap + FIFO queue), while a shared
:class:`RenderCache` lets one session's finished slab textures serve
the next session's identical requests -- skipping both the DPSS read
and the render leg. Workloads are seeded and deterministic
(:class:`WorkloadSpec`); results aggregate into a
:class:`ServiceResult` carrying :class:`ServiceMetrics` (admission
latency, time-to-first-frame, sustained frame rates, cache hit ratio,
p50/p95/p99 tails).
"""

from repro.service.admission import (
    AdmissionPolicy,
    AdmissionVerdict,
    SlotQueue,
)
from repro.service.cache import (
    CacheConfig,
    CacheStats,
    EdgeCacheModel,
    RenderCache,
)
from repro.service.manager import (
    ServiceCampaign,
    ServiceResult,
    SessionManager,
    run_service_campaign,
)
from repro.service.metrics import (
    RESULT_SCHEMA_VERSION,
    ServiceMetrics,
    SessionRecord,
    ShardMetrics,
    SiteMetrics,
    percentile,
    result_payload,
)
from repro.service.shard import (
    ShardCampaign,
    ShardResult,
    ShardedSessionManager,
    run_shard_campaign,
)
from repro.service.workload import ViewerProfile, WorkloadSpec

__all__ = [
    "AdmissionPolicy",
    "AdmissionVerdict",
    "CacheConfig",
    "CacheStats",
    "EdgeCacheModel",
    "RESULT_SCHEMA_VERSION",
    "RenderCache",
    "ServiceCampaign",
    "ServiceMetrics",
    "ServiceResult",
    "SessionManager",
    "SessionRecord",
    "ShardCampaign",
    "ShardMetrics",
    "ShardResult",
    "ShardedSessionManager",
    "SiteMetrics",
    "SlotQueue",
    "ViewerProfile",
    "WorkloadSpec",
    "percentile",
    "result_payload",
    "run_service_campaign",
    "run_shard_campaign",
]
