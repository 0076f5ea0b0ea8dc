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
