"""Claim conservation on the shared render cache, read off the run.

Every ``begin`` that leads must end in exactly one ``publish`` or
``abandon``, for whole slabs (one claim unit per PE and frame) and for
tiles (one per owned visible tile) alike: after a service run nothing
is left in flight and every miss is accounted for by an insert or an
abandon."""

import pytest

from repro.config import TileConfig
from repro.core.campaign import named_campaign
from repro.faults import FaultPlan, RequestPolicy, ServerCrash
from repro.service.manager import SessionManager
from repro.service.workload import ViewerProfile

#: two of four servers down from just after the first frame starts:
#: with two replicas some blocks lose both copies, the aggressive
#: policy gives up on them, and the leads holding those slabs abandon
DEGRADING_PLAN = FaultPlan.of([
    ServerCrash(at=0.05, duration=5.0, server="dpss0"),
    ServerCrash(at=0.05, duration=5.0, server="dpss1"),
])


def _service(tiled, plan):
    svc = named_campaign("sc99-multiviewer")
    base = svc.base.with_changes(
        shape=(64, 32, 32), dataset_timesteps=8, n_timesteps=3
    )
    profiles = svc.workload.profiles
    if tiled:
        base = base.with_changes(tiles=TileConfig(enabled=True, tile_size=8))
        profiles = (
            ViewerProfile(name="left", frustum=(0.0, 0.0, 0.75, 1.0)),
            ViewerProfile(name="right", frustum=(0.25, 0.0, 1.0, 1.0)),
        )
    if plan is not None:
        base = base.with_changes(
            faults=plan, policy=RequestPolicy.aggressive()
        )
    # arrivals a few ms apart, so sessions wait on each other's claims
    return svc.with_changes(
        base=base,
        workload=svc.workload.with_changes(
            n_viewers=3, arrival_rate=200.0, profiles=profiles
        ),
    )


@pytest.mark.parametrize("plan", [None, DEGRADING_PLAN],
                         ids=["clean", "degrading"])
@pytest.mark.parametrize("tiled", [False, True], ids=["slab", "tiles"])
def test_every_led_claim_is_published_or_abandoned(tiled, plan):
    manager = SessionManager(_service(tiled, plan))
    manager.net.run(until=manager.run())
    cache = manager.cache
    stats = cache.stats
    assert cache._inflight == {}
    # no entry exceeds the 256 MB budget, so every publish inserts
    assert stats.misses == stats.inserts + stats.abandons
    assert stats.coalesced > 0
    if plan is None:
        assert stats.abandons == 0
    else:
        assert stats.abandons > 0
        assert sum(b.timing.cache_hits for b in manager.backends) > 0


def test_backend_keeps_no_per_frame_side_table():
    """One frame's state travels in the record handed from leg to leg:
    after a tiles + shared-cache run with degraded loads, no
    ``SimBackEnd`` attribute is a dict keyed by a ``(rank, frame)``
    tuple."""
    manager = SessionManager(_service(True, DEGRADING_PLAN))
    manager.net.run(until=manager.run())
    for backend in manager.backends:
        assert backend.timing.degraded_frames
        assert [
            name for name, value in vars(backend).items()
            if isinstance(value, dict)
            and any(isinstance(key, tuple) for key in value)
        ] == []
