"""Physical invariants of the fluid allocator over whole campaigns.

Checked from the test's side of the fence: ``FluidScheduler._solve`` is
wrapped here, so nothing under ``src/`` pays for an assertion.
"""

import pytest

from repro.core import campaign_names, named_campaign, run_campaign
from repro.core.campaign import build_session
from repro.simcore.fluid import FluidScheduler
from tests.quick import quick_campaign


@pytest.fixture
def checked_solves(monkeypatch):
    """Assert after every solve that no resource is allocated past its
    capacity; yields the list of per-solve worst load/capacity ratios."""
    solve = FluidScheduler._solve
    worst = []

    def checked(self, comp, now):
        solve(self, comp, now)
        ratio = 0.0
        for rname in comp.resources:
            res = self._resources[rname]
            load = 0.0
            for task in self._res_tasks[rname].values():
                load += task.usage[res] * task.rate
            assert load <= res.capacity * (1 + 1e-9), (
                f"{rname} carries {load!r} of {res.capacity!r} at t={now!r}"
            )
            if res.capacity > 0:
                ratio = max(ratio, load / res.capacity)
        worst.append(ratio)

    monkeypatch.setattr(FluidScheduler, "_solve", checked)
    return worst


@pytest.mark.parametrize("overlapped", [False, True], ids=["serial", "overlapped"])
@pytest.mark.parametrize("name", campaign_names())
def test_no_resource_is_allocated_past_capacity(name, overlapped, checked_solves):
    """Lazy cap schedules leave ``task.cap`` stale between solves; the
    allocation each solve hands out must still fit every resource."""
    run_campaign(quick_campaign(name, overlapped))
    assert checked_solves, "the campaign never solved"
    # The check has teeth: some solve filled a resource to the brim.
    assert max(checked_solves) > 0.999


@pytest.mark.parametrize("overlapped", [False, True], ids=["serial", "overlapped"])
def test_solves_are_paid_per_change_not_per_rtt(overlapped):
    """A solve happens when an allocation can change: a flow arrives or
    leaves (two per completion bounds both) or a binding window steps.
    The per-RTT loop spent 41 solves per completion on this campaign."""
    config = named_campaign("lan_e4500", overlapped=overlapped)
    net, backend, _viewer, _daemon = build_session(config)
    net.run(until=backend.run())
    stats = net.sched.stats
    assert stats.completions > 0
    assert stats.components_solved <= 2 * stats.completions + stats.cap_steps
