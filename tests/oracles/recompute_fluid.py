"""Fresh-recompute allocator: ``FluidScheduler`` without its caches.

Until PR 19 this was ``FluidScheduler(incremental=False)``.  It is the
production engine with exactly four methods overridden: every settle
(one at the end of each instant that changed something, DESIGN.md
section 12.7) dirties every component before it solves (``_flush``),
and flow specs, finite-cap stand-ins and resource specs are rebuilt on
every call (``_flow_of``, ``_fcap_of``, ``_spec_of``) -- the historical
global recompute.
Re-solving a clean component reproduces its rates bitwise (filling is a
pure function of the specs), so no rate change, banking or ETA refresh
happens here that the incremental engine would skip: the parity suites
require ``==`` on rates, ETAs, completion times and whole-campaign ULM
bytes.

Whole-campaign tests substitute it by ``monkeypatch.setattr`` on the
name the constructing module looked up
(``repro.netsim.topology.FluidScheduler``,
``repro.netsim.sites.FluidScheduler``).
"""

from __future__ import annotations

from repro.simcore.fairshare import FlowSpec, ResourceSpec
from repro.simcore.fluid import FluidScheduler, FluidTask


class RecomputeFluidScheduler(FluidScheduler):
    def _flush(self) -> None:
        for rname in self._resources:
            self._dirty[rname] = None
        for tname in self._floating:
            self._dirty_floating[tname] = None
        super()._flush()

    def _flow_of(self, task: FluidTask) -> FlowSpec:
        task._flow = None
        return super()._flow_of(task)

    def _fcap_of(self, task: FluidTask) -> float:
        task._fcap = None
        return super()._fcap_of(task)

    def _spec_of(self, name: str) -> ResourceSpec:
        self._res_specs.pop(name, None)
        return super()._spec_of(name)
