"""Lazy member banking against the per-change sweep it replaced.

The production :class:`FlowClassPool` logs one segment per rate change
and brings a member up to date only when it heads its class's
completion order; ``tests/oracles/eager_flowclass.py`` rewrites every
member at every change, as every release before did. Both must produce
the same bits: every member completion time, every pool wake, every
counter the two share.
"""

import math
import random
from dataclasses import asdict, dataclass, field
from typing import List, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simcore.env import Environment
from repro.simcore.flowclass import FlowClass, FlowClassPool
from repro.simcore.fluid import FluidResource, FluidScheduler
from tests.oracles.eager_flowclass import EagerFlowClassPool
from tests.oracles.per_session_pool import PerSessionPool

#: counters only the segment log has
LAZY_ONLY = ("replays", "fold_steps")
HORIZON = 5000.0


# ---------------------------------------------------------------------------
# generated scenarios
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    capacities: List[float]
    #: resource indices per class
    classes: List[Tuple[int, ...]]
    #: (time, class index, work), sorted by time
    arrivals: List[Tuple[float, int, float]]
    #: (time, kind, target index, value), any order
    actions: List[Tuple[float, str, int, float]] = field(default_factory=list)


def draw_scenario(
    rng: random.Random, n_classes: int, n_resources: int, n_members: int,
    n_actions: int, shared_instants: bool,
) -> Scenario:
    capacities = [rng.choice([40.0, 100.0, 155.5]) for _ in range(n_resources)]
    classes = []
    for _ in range(n_classes):
        classes.append(tuple(sorted(rng.sample(
            range(n_resources), rng.randint(1, n_resources)
        ))))
    instants = [rng.uniform(0.0, 20.0) for _ in range(4)]
    arrivals = []
    for _ in range(n_members):
        at = rng.choice(instants) if shared_instants else rng.uniform(0.0, 20.0)
        if rng.random() < 0.15:
            # Long after every earlier member is done: the class has
            # drained, and this one starts a fresh log at index 0.
            at += 3000.0
        work = rng.choice([30.0, rng.uniform(5.0, 150.0), rng.uniform(0.01, 2.0)])
        arrivals.append((at, rng.randrange(n_classes), work))
    arrivals.sort(key=lambda a: a[0])
    actions = []
    for _ in range(n_actions):
        at = rng.uniform(0.5, 40.0)
        # Drop to zero and restore: a zero-rate segment is logged.
        res = rng.randrange(n_resources)
        actions.append((at, "capacity", res, rng.choice([0.0, 0.0, 0.3])))
        actions.append((at + rng.uniform(0.1, 5.0), "capacity", res, 1.0))
    return Scenario(capacities, classes, arrivals, actions)


def simulate(make_pool, sc: Scenario):
    """Run ``sc`` on the pool ``make_pool`` builds; return what is observable."""
    env = Environment()
    sched = FluidScheduler(env)
    resources = [
        sched.add_resource(FluidResource(f"r{i}", capacity))
        for i, capacity in enumerate(sc.capacities)
    ]
    pool = make_pool(env, sched)
    specs = [
        FlowClass(f"c{i}", {resources[r]: 1.0 for r in used})
        for i, used in enumerate(sc.classes)
    ]
    finished = {}
    wakes = []
    on_wake = pool._on_wake

    def recording_on_wake(token):
        wakes.append((env.now, token == pool._wake_token))
        on_wake(token)

    pool._on_wake = recording_on_wake

    def arrive():
        for i, (at, cls, work) in enumerate(sc.arrivals):
            if at > env.now:
                yield env.timeout(at - env.now)
            done = pool.submit(specs[cls], work, name=f"m{i}")
            done.callbacks.append(
                lambda ev, name=f"m{i}":
                finished.__setitem__(name, (env.now, ev.value))
            )

    def act(at, kind, target, value):
        yield env.timeout(at)
        sched.set_capacity(resources[target], sc.capacities[target] * value)

    env.process(arrive())
    for action in sc.actions:
        env.process(act(*action))
    # A class that joined during an outage keeps a zero stand-in cap
    # until its next join; stop at a horizon instead of waiting on it.
    env.run(until=HORIZON)
    return {"finished": finished, "wakes": wakes, "pool": pool}


def shared_stats(pool):
    return {k: v for k, v in asdict(pool.stats).items() if k not in LAZY_ONLY}


# ---------------------------------------------------------------------------
# randomized parity
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_classes=st.integers(1, 4),
    n_resources=st.integers(1, 3),
    n_members=st.integers(1, 300),
    n_actions=st.integers(0, 4),
    shared_instants=st.booleans(),
)
# Three classes on one link: an oracle that still arms a wake at each
# rate change, not once in the scheduler's settle, records other wakes.
@example(
    seed=1, n_classes=3, n_resources=1, n_members=8, n_actions=0,
    shared_instants=False,
)
def test_lazy_banking_matches_eager_sweep(
    seed, n_classes, n_resources, n_members, n_actions, shared_instants
):
    sc = draw_scenario(
        random.Random(seed), n_classes, n_resources, n_members, n_actions,
        shared_instants,
    )
    lazy = simulate(FlowClassPool, sc)
    eager = simulate(EagerFlowClassPool, sc)
    assert lazy["finished"] == eager["finished"]
    assert lazy["wakes"] == eager["wakes"]
    assert shared_stats(lazy["pool"]) == shared_stats(eager["pool"])
    # Every fold step is a banking the sweep also made; the sweep also
    # banked members that never headed the order before the next change.
    stats = lazy["pool"].stats
    assert stats.fold_steps <= eager["pool"].swept
    assert stats.replays <= stats.fold_steps
    if not sc.actions:
        # Against one fluid flow per member the aggregate is bitwise
        # only on the world ``test_flowclass.py`` pins (200 seeds, run
        # unedited against this pool); across this space it is exact
        # max-min to float noise -- at the parent commit too (seed 2064
        # with caps, seed 2862 without: a handful of members an ulp
        # off).
        per_session = simulate(PerSessionPool, sc)["finished"]
        assert lazy["finished"].keys() == per_session.keys()
        for name, (at, _value) in lazy["finished"].items():
            assert math.isclose(at, per_session[name][0], rel_tol=1e-9), name


def test_drained_class_starts_a_fresh_log():
    """Re-activation must not replay the previous activation's segments."""
    sc = Scenario(
        [100.0], [(0,)],
        [(0.0, 0, 30.0), (0.1, 0, 10.0), (50.0, 0, 30.0), (50.1, 0, 10.0)],
    )
    lazy = simulate(FlowClassPool, sc)
    assert lazy["finished"] == simulate(EagerFlowClassPool, sc)["finished"]
    assert len(lazy["finished"]) == 4
    assert lazy["pool"].stats.classes == 2
    state = lazy["pool"]._classes["c0"]
    assert len(state.seg_t) == len(state.seg_rate) == len(state.seg_prod) == 0


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------

def test_rate_change_folds_the_head_only():
    """N rate changes on a 200-member class cost N fold steps, not 200 N.

    Membership settles once per instant, so the N joins that drive the
    N changes are spread over N instants; joins at one instant would
    close one segment between them.
    """
    env = Environment()
    sched = FluidScheduler(env)
    wan = sched.add_resource(FluidResource("wan", 1000.0))
    pin = sched.add_resource(FluidResource("pin", 1.0))
    pool = FlowClassPool(env, sched)
    big = FlowClass("big", {wan: 1.0})
    # Pinned at 1.0 by ``pin``, which grows by 1.0 with each join: a
    # join takes 1.0 off the WAN -- one bitwise rate change for ``big``
    # -- and leaves its own class's rate alone.
    pinned = FlowClass("pinned", {wan: 1.0, pin: 1.0})
    pool.submit(big, 1e6, name="b0")
    env.run(until=env.now)  # ``big`` activates: segment 1
    for i in range(1, 200):
        pool.submit(big, 1e6 + i, name=f"b{i}")
    env.run(until=env.now)  # its 199 other members join: segment 2
    pool.submit(pinned, 1e9, name="p0")
    env.run(until=0.5)  # ``p0`` takes 1.0 off the WAN: segment 3
    assert len(pool._classes["big"].seg_prod) == 3
    before = pool.stats.to_dict()
    n = 25
    for i in range(1, n + 1):
        env.run(until=float(i))
        pool.submit(pinned, 1e9, name=f"p{i}")
        sched.set_capacity(pin, i + 1.0)
    env.run(until=n + 1.0)
    after = pool.stats.to_dict()
    assert after["disaggregations"] - before["disaggregations"] == n
    assert after["fold_steps"] - before["fold_steps"] == n
    assert after["replays"] - before["replays"] == n
    order = pool._classes["big"].order
    assert order[0][2].name == "b0"
    assert order[0][2].seen == len(pool._classes["big"].seg_prod) == 3 + n
    # Nobody else was touched since joining, right after segment 1.
    assert [m.seen for _t, _s, m in order[1:]] == [1] * 199


def test_stats_to_dict_carries_every_field():
    env = Environment()
    pool = FlowClassPool(env, FluidScheduler(env))
    assert set(pool.stats.to_dict()) == {
        "classes", "members_submitted", "members_completed",
        "disaggregations", "wakes_scheduled", "stale_wakes",
        "replays", "fold_steps",
    }


# ---------------------------------------------------------------------------
# submit-side accounting
# ---------------------------------------------------------------------------

def test_refused_member_is_not_counted_as_submitted():
    """A duplicate name is refused before anything is counted."""
    env = Environment()
    sched = FluidScheduler(env)
    wan = sched.add_resource(FluidResource("wan", 100.0))
    pool = FlowClassPool(env, sched)
    spec = FlowClass("fc", {wan: 1.0})
    pool.submit(spec, 50.0, name="twin")
    with pytest.raises(ValueError, match="duplicate member"):
        pool.submit(spec, 50.0, name="twin")
    pool.submit(spec, 20.0, name="other")
    env.run()
    assert pool.stats.members_submitted == pool.stats.members_completed == 2
