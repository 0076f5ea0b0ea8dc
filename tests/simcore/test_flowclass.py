"""Flow-class aggregation vs the per-session oracle
(``tests/oracles/per_session_pool.py``).

The tentpole guarantee (DESIGN.md section 15): with unit usage
coefficients and no floor, serving k same-profile sessions through one
scaled aggregate flow completes every member at the bitwise-identical
instant the per-session solve would have -- across arrival patterns,
class mixes, and 200 seeds.
"""

import pytest

from repro.simcore.env import Environment
from repro.simcore.flowclass import FlowClass, FlowClassPool
from repro.simcore.fluid import FluidResource, FluidScheduler
from repro.util.rng import spawn_rngs
from tests.oracles.per_session_pool import PerSessionPool


def _build_pool(pool_cls=FlowClassPool):
    env = Environment()
    sched = FluidScheduler(env)
    wan = sched.add_resource(FluidResource("wan", 100.0))
    edge = sched.add_resource(FluidResource("edge", 60.0))
    pool = pool_cls(env, sched)
    classes = (
        FlowClass("bulk", {wan: 1.0}),
        FlowClass("interactive", {wan: 1.0, edge: 1.0}),
        FlowClass("local", {edge: 1.0}),
    )
    return env, pool, classes


def _run_workload(pool_cls, seed, n_sessions=24):
    """Random arrivals against three classes; returns completion times."""
    env, pool, classes = _build_pool(pool_cls)
    rng = spawn_rngs(seed, 1)[0]
    finished = {}

    def driver():
        for i in range(n_sessions):
            yield env.timeout(float(rng.exponential(0.4)))
            spec = classes[int(rng.integers(len(classes)))]
            work = float(rng.uniform(5.0, 150.0))
            done = pool.submit(spec, work, name=f"m{i}")
            done.callbacks.append(
                lambda _ev, name=f"m{i}": finished.__setitem__(name, env.now)
            )

    env.process(driver())
    env.run()
    return finished


@pytest.mark.parametrize("seed", range(200))
def test_aggregate_matches_oracle_bitwise(seed):
    """200 seeds: every member completes at the bitwise-same instant."""
    oracle = _run_workload(PerSessionPool, seed)
    aggregate = _run_workload(FlowClassPool, seed)
    assert oracle.keys() == aggregate.keys()
    for name in oracle:
        assert oracle[name] == aggregate[name], (
            f"seed {seed}: member {name} completed at "
            f"{aggregate[name]!r} aggregated vs {oracle[name]!r} oracle"
        )


def test_allocator_cost_scales_with_classes_not_members():
    """One class, many members: the solver touches one flow."""
    env, pool, classes = _build_pool()
    for i in range(50):
        pool.submit(classes[0], 10.0, name=f"m{i}")
    env.run()
    assert pool.stats.members_completed == 50
    assert pool.stats.classes == 1


def test_zero_work_completes_immediately():
    env, pool, classes = _build_pool()
    done = pool.submit(classes[0], 0.0, name="empty")
    assert done.triggered
    assert done.value == 0.0


def test_negative_work_rejected():
    env, pool, classes = _build_pool()
    with pytest.raises(ValueError, match="work"):
        pool.submit(classes[0], -1.0, name="bad")


def test_duplicate_member_name_rejected():
    env, pool, classes = _build_pool()
    pool.submit(classes[0], 5.0, name="twin")
    with pytest.raises(ValueError, match="duplicate member"):
        pool.submit(classes[0], 5.0, name="twin")


def test_class_redefinition_rejected():
    """Same class name with a different profile is a config error."""
    env = Environment()
    sched = FluidScheduler(env)
    wan = sched.add_resource(FluidResource("wan", 100.0))
    pool = FlowClassPool(env, sched)
    pool.submit(FlowClass("fc", {wan: 1.0}), 5.0, name="a")
    with pytest.raises(ValueError, match="redefined"):
        pool.submit(FlowClass("fc", {wan: 1.0}, cap=3.0), 5.0, name="b")


def test_cap_is_per_member():
    """A capped class serves every member at the cap, not cap/k."""
    env = Environment()
    sched = FluidScheduler(env)
    wan = sched.add_resource(FluidResource("wan", 1000.0))
    pool = FlowClassPool(env, sched)
    spec = FlowClass("capped", {wan: 1.0}, cap=10.0)
    done = []
    for i in range(4):
        done.append(pool.submit(spec, 100.0, name=f"m{i}"))
    env.run(until=env.now)
    assert pool.class_rate("capped") == 10.0
    env.run()
    # 100 units at 10/s each: all four finish together at t=10.
    assert [ev.value for ev in done] == [10.0] * 4


def test_set_class_cap_retunes_live_members():
    env = Environment()
    sched = FluidScheduler(env)
    wan = sched.add_resource(FluidResource("wan", 1000.0))
    pool = FlowClassPool(env, sched)
    spec = FlowClass("capped", {wan: 1.0}, cap=10.0)
    done = pool.submit(spec, 100.0, name="m0")
    pool.set_class_cap(spec, 50.0)
    env.run(until=env.now)
    assert pool.class_rate("capped") == 50.0
    env.run()
    assert done.value == 2.0  # 100 units at 50/s from t=0


def test_oracle_mode_uses_one_flow_per_member():
    """The oracle is the per-session model: no class state."""
    env, pool, classes = _build_pool(PerSessionPool)
    for i in range(8):
        pool.submit(classes[0], 10.0, name=f"m{i}")
    assert pool.stats.classes == 0
    assert pool.active_members("bulk") == 0
    env.run()


def test_members_complete_in_admit_order_within_class():
    """Equal work at a shared rate: strict FIFO completion."""
    env, pool, classes = _build_pool()
    order = []
    for i in range(6):
        done = pool.submit(classes[0], 30.0, name=f"m{i}")
        done.callbacks.append(
            lambda _ev, i=i: order.append(i)
        )
    env.run()
    assert order == list(range(6))


def _run_closed_loop(pool_cls, seed, n_open=6, n_sessions=30):
    """``n_open`` sessions arrive at random; each completion admits the
    next session at its own instant, usually into the class it left.

    Returns the completion order and the completion times.
    """
    env, pool, classes = _build_pool(pool_cls)
    rng = spawn_rngs(seed, 1)[0]
    sessions = []
    prev = int(rng.integers(len(classes)))
    for _ in range(n_sessions):
        if rng.random() < 0.3:
            prev = int(rng.integers(len(classes)))
        sessions.append((classes[prev], float(rng.uniform(5.0, 150.0))))
    order = []
    finished = {}
    admitted = iter(range(n_sessions))

    def admit():
        i = next(admitted, None)
        if i is None:
            return
        spec, work = sessions[i]
        done = pool.submit(spec, work, name=f"m{i}")
        done.callbacks.append(lambda _ev, name=f"m{i}": on_done(name))

    def on_done(name):
        order.append(name)
        finished[name] = env.now
        admit()  # same instant, before the pool settles

    def opener():
        for _ in range(n_open):
            yield env.timeout(float(rng.exponential(0.4)))
            admit()

    env.process(opener())
    env.run()
    assert len(order) == n_sessions
    return order, finished


@pytest.mark.parametrize("seed", range(50))
def test_closed_loop_matches_oracle(seed):
    """Leave-and-rejoin at one instant settles once, and still serves
    every member as the per-session solve does: same completion order,
    times within 1e-9 relative (the settle drops zero-length banking
    splits, so bits may differ)."""
    oracle_order, oracle = _run_closed_loop(PerSessionPool, seed)
    order, aggregate = _run_closed_loop(FlowClassPool, seed)
    assert order == oracle_order
    for name, at in oracle.items():
        assert aggregate[name] == pytest.approx(at, rel=1e-9, abs=0.0)


def test_same_instant_leave_and_rejoin_costs_no_solve():
    """A member completes and a new one joins its class at that instant:
    usage and cap end where they began, so no solve, no segment -- and
    the new member, now the head, is still armed."""
    env = Environment()
    sched = FluidScheduler(env)
    wan = sched.add_resource(FluidResource("wan", 100.0))
    pool = FlowClassPool(env, sched)
    bulk = FlowClass("bulk", {wan: 1.0})
    rejoined = []

    def rejoin(_ev):
        rejoined.append(pool.submit(bulk, 40.0, name="m2"))

    pool.submit(bulk, 10.0, name="m0").callbacks.append(rejoin)
    pool.submit(bulk, 100.0, name="m1")
    env.run(until=0.1)
    solves = sched.stats.components_solved
    segments = pool.stats.disaggregations
    env.run(until=0.5)  # m0 leaves and m2 joins at t=0.2
    assert len(rejoined) == 1 and pool.active_members("bulk") == 2
    assert sched.stats.components_solved == solves
    assert pool.stats.disaggregations == segments
    assert pool.class_rate("bulk") == 50.0
    assert pool._next_wake == 0.2 + 40.0 / 50.0
    env.run()
    assert rejoined[0].value == 0.2 + 40.0 / 50.0


def test_two_classes_on_one_resource_settle_in_one_solve():
    """Joins to two live classes sharing a resource, at one instant,
    are handed to the allocator together: one solve, not two."""
    env, pool, classes = _build_pool()
    bulk, interactive, _local = classes
    pool.submit(bulk, 500.0, name="b0")
    pool.submit(interactive, 500.0, name="i0")
    env.run(until=1.0)
    solves = pool.sched.stats.components_solved
    pool.submit(bulk, 500.0, name="b1")
    pool.submit(interactive, 500.0, name="i1")
    assert pool.sched.stats.components_solved == solves  # both pending
    env.run(until=1.5)
    assert pool.sched.stats.components_solved == solves + 1
    assert pool.class_rate("bulk") == pool.class_rate("interactive") == 25.0


def test_batched_rescale_schedules_at_most_one_wake():
    """A completion that speeds the class up re-scales it at the end of
    the instant; the pool arms once, after the allocator has solved the
    batch, so no wake armed at the old rate goes stale."""
    env = Environment()
    sched = FluidScheduler(env)
    wan = sched.add_resource(FluidResource("wan", 100.0))
    pool = FlowClassPool(env, sched)
    bulk = FlowClass("bulk", {wan: 1.0})
    pool.submit(bulk, 10.0, name="m0")  # leaves at t=0.3
    last = pool.submit(bulk, 100.0, name="m1")
    pool.submit(bulk, 100.0, name="m2")
    env.run(until=0.2)
    wakes = pool.stats.wakes_scheduled
    env.run(until=1.0)  # m0 leaves: 3 -> 2 members, 33.3 -> 50 each
    assert pool.class_rate("bulk") == 50.0
    assert pool.stats.wakes_scheduled - wakes <= 1
    env.run()
    assert pool.stats.stale_wakes == 0
    assert last.value == pytest.approx(2.1)
