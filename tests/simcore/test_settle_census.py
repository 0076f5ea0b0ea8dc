"""Census: the allocator solves each component at most once per instant.

Every mutation of a :class:`~repro.simcore.fluid.FluidScheduler` only
marks components dirty; one settle at the end of the simulated instant
solves them (DESIGN.md section 12.7). A resource set solved twice at
one instant is a wasted solve: whichever ran first was superseded
before time moved. These campaigns cover the single-session pipeline
over a LAN, a WAN with an opening TCP window, the serial schedule, the
fault plan's retries and the shared-WAN service path.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.campaign import named_campaign, run_campaign
from repro.simcore.fluid import FluidScheduler

CAMPAIGNS = [
    ("lan_e4500", True),
    ("esnet_anl", True),
    ("nton_cplant4", False),
    ("sc99-flaky", True),
    ("sc99-multiviewer", False),
]


@pytest.mark.parametrize(
    "name, overlapped", CAMPAIGNS,
    ids=[f"{n}-{'overlapped' if o else 'serial'}" for n, o in CAMPAIGNS],
)
def test_no_component_is_solved_twice_at_one_instant(
    name, overlapped, monkeypatch
):
    solves: Counter = Counter()
    solve = FluidScheduler._solve

    def counting_solve(self, comp, now):
        solves[(self, now, tuple(comp.resources))] += 1
        solve(self, comp, now)

    monkeypatch.setattr(FluidScheduler, "_solve", counting_solve)
    run_campaign(named_campaign(name, overlapped=overlapped))
    assert solves, "the campaign solved nothing"
    resolved = sum(n - 1 for n in solves.values())
    assert resolved == 0, (
        f"{resolved} of {sum(solves.values())} solves re-solved a "
        f"component already solved at the same instant"
    )
