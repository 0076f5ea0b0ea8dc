"""Multi-site fabric: DPSS sites, edge caches, and the WAN core.

The paper's deployments (section 4) place DPSS caches at LBL, ANL and
the SC99 show floor, with Visapult back ends rendering near whichever
cache holds the data and viewers attached over NTON/ESnet. This module
turns a :class:`repro.config.TopologyConfig` into fluid resources the
sharded serving layer can route session flows over:

- ``dpss:<site>`` -- the site's DPSS read bandwidth (parallel block
  servers aggregated, as in :mod:`repro.dpss`).
- ``edge:<site>`` -- the site's edge delivery capacity (render-cache
  output toward viewers).
- ``wan:<a>--<b>`` -- a provisioned inter-site link (order-normalised;
  the paper's NTON OC-12 LBL--ANL path).
- ``wan:core`` -- the shared best-effort core every site pair without
  a dedicated link falls back to (shared ESnet in the paper).

:meth:`SiteFabric.path` returns the resource usage map for one
session's flow given where it is *served* and where its viewer is
*homed*; a spilled session pays the inter-site leg on top of the
remote site's local resources. Warm sessions (edge-cache hit) skip the
DPSS leg entirely -- the cache already holds the rendered frames.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.simcore.env import Environment
from repro.simcore.fluid import FluidResource, FluidScheduler

if TYPE_CHECKING:  # pragma: no cover -- config imports netsim.tcp, so
    # the fabric keeps its config dependency type-only to break the cycle
    from repro.config import SiteSpec, TopologyConfig

__all__ = ["SiteFabric"]


def _pair(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class SiteFabric:
    """Fluid-resource realisation of a multi-site topology.

    Owns (or joins) one :class:`~repro.simcore.fluid.FluidScheduler`
    and registers every site's DPSS and edge resources plus the
    inter-site links. Purely structural -- sessions are submitted by
    the shard layer; the fabric only answers "which resources does a
    flow from here to there occupy, at what coefficients".
    """

    def __init__(
        self,
        topology: "TopologyConfig",
        *,
        env: Optional[Environment] = None,
        sched: Optional[FluidScheduler] = None,
    ):
        self.topology = topology
        self.env = env if env is not None else Environment()
        self.sched = sched if sched is not None else FluidScheduler(self.env)
        self.dpss: Dict[str, FluidResource] = {}
        self.edge: Dict[str, FluidResource] = {}
        self._links: Dict[Tuple[str, str], FluidResource] = {}
        for site in topology.sites:
            self.dpss[site.name] = self.sched.add_resource(
                FluidResource(f"dpss:{site.name}", site.dpss_rate)
            )
            self.edge[site.name] = self.sched.add_resource(
                FluidResource(f"edge:{site.name}", site.edge_rate)
            )
        for link in topology.links:
            key = _pair(link.a, link.b)
            self._links[key] = self.sched.add_resource(
                FluidResource(f"wan:{key[0]}--{key[1]}", link.rate)
            )
        self.core = self.sched.add_resource(
            FluidResource("wan:core", topology.core_rate)
        )

    # -- lookup -------------------------------------------------------
    def site(self, name: str) -> "SiteSpec":
        """The :class:`~repro.config.SiteSpec` named ``name``."""
        return self.topology.site(name)

    def link_between(self, a: str, b: str) -> FluidResource:
        """The inter-site resource a flow ``a``<->``b`` crosses.

        A provisioned link when the topology declares one for the
        pair (either direction), otherwise the shared ``wan:core``.
        """
        if a not in self.dpss or b not in self.dpss:
            missing = a if a not in self.dpss else b
            raise KeyError(f"unknown site {missing!r}")
        if a == b:
            raise ValueError("link_between endpoints must differ")
        return self._links.get(_pair(a, b), self.core)

    def path(
        self,
        serving: str,
        home: str,
        *,
        warm: bool = False,
    ) -> Dict[FluidResource, float]:
        """Usage coefficients for one session flow, 1.0 per resource.

        ``serving`` is the site whose DPSS/edge do the work; ``home``
        is the viewer's site. A local session (serving == home) spans
        the serving DPSS and edge; a spilled one also crosses the
        inter-site leg. ``warm`` drops the DPSS resource -- the edge
        cache already holds the rendered frames.
        """
        if serving not in self.dpss:
            raise KeyError(f"unknown site {serving!r}")
        if home not in self.dpss:
            raise KeyError(f"unknown site {home!r}")
        usage: Dict[FluidResource, float] = {}
        if not warm:
            usage[self.dpss[serving]] = 1.0
        usage[self.edge[serving]] = 1.0
        if serving != home:
            usage[self.link_between(serving, home)] = 1.0
        return usage
