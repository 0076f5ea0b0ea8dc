"""Parity and hot-path tests for the incremental allocator.

The incremental, component-partitioned ``FluidScheduler`` must be
observationally *identical* to the fresh-recompute oracle
(``tests/oracles/recompute_fluid.py``): same rates after every
mutation, same completion times, byte-identical ULM event streams.
These tests pin that, plus the hot-path bookkeeping the speedup rests
on (single outstanding wake timeout, cached finite caps).
"""

from __future__ import annotations

import random

import pytest

from repro.simcore.env import Environment
from repro.simcore.events import Event
from repro.simcore.fluid import FluidResource, FluidScheduler, FluidTask
from tests.oracles.recompute_fluid import RecomputeFluidScheduler

HORIZON = 50.0


# ---------------------------------------------------------------------------
# randomized incremental-vs-oracle parity
# ---------------------------------------------------------------------------

def _random_script(rng: random.Random):
    """A reproducible (topology, op-list) pair drawn from ``rng``."""
    n_res = rng.randint(2, 6)
    capacities = [
        rng.choice([0.0, 10.0, 50.0, 100.0, 400.0]) for _ in range(n_res)
    ]
    ops = []
    for _ in range(rng.randint(10, 24)):
        ops.append(
            rng.choices(
                ["submit", "set_cap", "set_capacity", "add_work",
                 "withdraw", "cancel", "wait"],
                weights=[6, 4, 2, 2, 1, 1, 4],
            )[0]
        )
    return capacities, ops


def _run_script(seed: int, sched_cls):
    """Run one random workload; returns (trace, final-state) tuples.

    Every float in the trace comes straight from the scheduler, so
    equality between the two engines is bitwise, not approximate.
    """
    rng = random.Random(seed)
    capacities, ops = _random_script(rng)

    env = Environment()
    sched = sched_cls(env)
    resources = [
        sched.add_resource(FluidResource(f"r{i}", cap))
        for i, cap in enumerate(capacities)
    ]
    tasks: list = []
    trace: list = []

    def snapshot(label: str) -> None:
        trace.append(
            (
                label,
                env.now,
                tuple(
                    (t.name, t.rate, t._eta)
                    for t in sorted(sched.active_tasks, key=lambda t: t.name)
                ),
            )
        )

    def apply(op: str) -> None:
        active = [t for t in tasks if t.name in sched._active]
        if op == "submit" or not active and op in (
            "set_cap", "add_work", "withdraw", "cancel"
        ):
            k = rng.randint(0, min(3, len(resources)))
            usage = {
                res: rng.choice([0.5, 1.0, 2.0])
                for res in rng.sample(resources, k)
            }
            floors_ok = usage and all(r.capacity > 0 for r in usage)
            task = FluidTask(
                "t",
                work=rng.choice([0.0, 1.0, 25.0, 300.0, 5e4]),
                usage=usage,
                cap=rng.choice([float("inf"), float("inf"), 40.0, 8.0, 0.0]),
                floor=(
                    rng.choice([0.0, 0.0, 1.0])
                    if floors_ok
                    else 0.0
                ),
            )
            tasks.append(task)
            sched.submit(task)
        elif op == "set_cap":
            sched.set_cap(
                rng.choice(active),
                rng.choice([0.0, 5.0, 30.0, 120.0, float("inf")]),
            )
        elif op == "set_capacity":
            sched.set_capacity(
                rng.choice(resources),
                rng.choice([0.0, 15.0, 60.0, 250.0]),
            )
        elif op == "add_work":
            sched.add_work(rng.choice(active), rng.choice([5.0, 100.0]))
        elif op == "withdraw":
            sched.withdraw(rng.choice(active))
        elif op == "cancel":
            sched.cancel(rng.choice(active))

    def driver():
        for op in ops:
            if op == "wait":
                yield env.timeout(rng.choice([0.0, 0.05, 0.4, 1.7]))
                snapshot("wait")
                continue
            yield env.timeout(rng.choice([0.0, 0.0, 0.02, 0.3]))
            apply(op)
            snapshot(op)

    env.process(driver())
    env.run(until=HORIZON)
    sched._advance()  # materialize lazily-banked progress
    final = tuple(
        (t.name, t.remaining, t.rate, t.finish_time)
        for t in sorted(tasks, key=lambda t: t.name)
    )
    return trace, final


@pytest.mark.parametrize("block", range(20))
def test_randomized_parity_incremental_vs_oracle(block):
    """>= 200 random topologies: bitwise-identical trajectories."""
    for seed in range(block * 10, block * 10 + 10):
        ids = FluidTask._ids
        inc = _run_script(seed, FluidScheduler)
        FluidTask._ids = ids  # same task names in the oracle run
        orc = _run_script(seed, RecomputeFluidScheduler)
        assert inc == orc, f"divergence at seed {seed}"


# ---------------------------------------------------------------------------
# wake-timeout pileup (satellite: bounded queue growth under cap churn)
# ---------------------------------------------------------------------------

def test_cap_churn_does_not_pile_up_wake_timeouts():
    """Cap churn must not leave one superseded Timeout per event.

    The historical scheduler pushed a fresh completion timeout on
    every mutation; 500 cap updates left ~500 dead timeouts in the
    simulator queue. Now at most one wake is outstanding and it is
    only re-pushed when the earliest ETA moves earlier.
    """
    env = Environment()
    sched = FluidScheduler(env)
    res = [sched.add_resource(FluidResource(f"r{i}", 100.0)) for i in range(3)]
    tasks = [
        FluidTask(f"w{i}", work=1e9, usage={res[i % 3]: 1.0})
        for i in range(6)
    ]
    for task in tasks:
        sched.submit(task)

    def churner():
        for tick in range(500):
            yield env.timeout(0.01)
            sched.set_cap(tasks[tick % len(tasks)], float(1 + tick % 7))

    env.process(churner())
    env.run(until=6.0)

    assert sched.stats.events > 500
    # far fewer wakes than events -- this is the regression being pinned
    assert sched.stats.wakes_scheduled < 50
    # and the simulator queue holds no graveyard of superseded timeouts
    assert len(env._queue) < 20


# ---------------------------------------------------------------------------
# cached specs (satellite: _finite_cap invalidation)
# ---------------------------------------------------------------------------

def test_finite_cap_cache_invalidated_by_set_capacity():
    env = Environment()
    sched = FluidScheduler(env)
    res = sched.add_resource(FluidResource("link", 100.0))
    task = FluidTask("t", work=1e6, usage={res: 1.0})  # uncapped
    sched.submit(task)
    env.run(until=env.now)
    assert task.rate == 100.0
    assert task._fcap is not None  # cached after the first solve

    sched.set_capacity(res, 40.0)
    env.run(until=env.now)
    assert task.rate == 40.0  # stale cache would have kept 100.0

    # cap churn must NOT discard the finite-cap cache (it does not
    # depend on the task's own cap once the cap is infinite)
    cached = task._fcap
    other = FluidTask("u", work=1e6, usage={res: 1.0}, cap=10.0)
    sched.submit(other)
    sched.set_cap(other, 5.0)
    env.run(until=env.now)
    assert task._fcap == cached


def test_flow_spec_cache_invalidated_by_set_cap():
    env = Environment()
    sched = FluidScheduler(env)
    res = sched.add_resource(FluidResource("link", 100.0))
    task = FluidTask("t", work=1e6, usage={res: 1.0}, cap=30.0)
    sched.submit(task)
    env.run(until=env.now)
    assert task.rate == 30.0
    sched.set_cap(task, 60.0)
    env.run(until=env.now)
    assert task.rate == 60.0


# ---------------------------------------------------------------------------
# monitor samples
# ---------------------------------------------------------------------------

def test_monitor_defaults_remain_unbounded():
    res = FluidResource("r", 10.0, monitor=True)
    for i in range(5):
        res.record(float(i), 1.0)
    assert len(res.samples) == 5


# ---------------------------------------------------------------------------
# AllocStats and the observer hook
# ---------------------------------------------------------------------------

def test_alloc_stats_count_the_hot_path():
    env = Environment()
    sched = FluidScheduler(env)
    res = sched.add_resource(FluidResource("r", 100.0))
    done = sched.submit(FluidTask("t", work=100.0, usage={res: 1.0}))
    env.run(until=done)
    stats = sched.stats
    assert stats.events >= 2  # submit + completion wake
    assert stats.completions == 1
    assert stats.components_solved >= 1
    assert stats.flows_touched >= 1
    assert stats.max_component_flows >= 1
    assert set(stats.to_dict()) == {
        "events", "components_solved", "flows_touched",
        "resources_touched", "max_component_flows", "completions",
        "wakes_scheduled", "stale_wakes", "cap_steps", "solves_elided",
    }


def test_alloc_observer_sees_realloc_batches():
    env = Environment()
    sched = FluidScheduler(env)
    calls = []
    sched.alloc_observer = lambda tag, data: calls.append((tag, data))
    res = sched.add_resource(FluidResource("r", 100.0))
    task = FluidTask("t", work=1e6, usage={res: 1.0})
    sched.submit(task)
    env.run(until=env.now)
    sched.set_cap(task, 10.0)
    env.run(until=env.now)
    assert [tag for tag, _ in calls] == ["ALLOC_REALLOC", "ALLOC_REALLOC"]
    assert set(calls[0][1]) == {
        "components", "flows", "resources", "max_flows"
    }


def test_observer_default_is_none():
    env = Environment()
    assert FluidScheduler(env).alloc_observer is None


# ---------------------------------------------------------------------------
# engine edge cases the randomized suite may not hit every run
# ---------------------------------------------------------------------------

def test_zero_capacity_component_never_completes():
    env = Environment()
    sched = FluidScheduler(env)
    res = sched.add_resource(FluidResource("dead", 0.0))
    task = FluidTask("t", work=10.0, usage={res: 1.0})
    sched.submit(task)
    env.run(until=100.0)
    assert task.rate == 0.0
    assert task.finish_time is None
    sched._advance()
    assert task.remaining == 10.0


def test_floating_task_completes_at_cap():
    env = Environment()
    sched = FluidScheduler(env)
    task = FluidTask("f", work=100.0, usage={}, cap=10.0)
    done = sched.submit(task)
    env.run(until=done)
    assert env.now == pytest.approx(10.0)


def test_disjoint_components_do_not_disturb_each_other():
    """A cap change in one component must not touch the other's ETA."""
    env = Environment()
    sched = FluidScheduler(env)
    r_a = sched.add_resource(FluidResource("a", 100.0))
    r_b = sched.add_resource(FluidResource("b", 100.0))
    t_a = FluidTask("ta", work=1e3, usage={r_a: 1.0})
    t_b = FluidTask("tb", work=1e3, usage={r_b: 1.0})
    sched.submit(t_a)
    sched.submit(t_b)
    env.run(until=env.now)
    eta_b, seq_b = t_b._eta, t_b._eta_seq
    flows_before = sched.stats.flows_touched
    sched.set_cap(t_a, 50.0)
    env.run(until=env.now)
    assert (t_b._eta, t_b._eta_seq) == (eta_b, seq_b)
    # ... and only component A's single flow was re-solved
    assert sched.stats.flows_touched == flows_before + 1


def test_completion_event_value_is_finish_time():
    env = Environment()
    sched = FluidScheduler(env)
    res = sched.add_resource(FluidResource("r", 10.0))
    done = sched.submit(FluidTask("t", work=100.0, usage={res: 1.0}))
    value = env.run(until=done)
    assert value == pytest.approx(10.0)
    assert isinstance(done, Event)


# ---------------------------------------------------------------------------
# cap schedules: solve only when an allocation can change
# ---------------------------------------------------------------------------

class _Doubling:
    """A ``CapSchedule``: ``cap`` doubles every ``period`` up to ``top``."""

    def __init__(self, period: float, cap: float, top: float):
        self.period, self.cap, self.top = period, cap, top
        self.next_at = period

    def advance(self, now: float) -> float:
        while self.next_at <= now:
            self.cap = min(self.cap * 2.0, self.top)
            self.next_at = (
                self.next_at + self.period if self.cap < self.top
                else float("inf")
            )
        return self.cap


def _scheduled_task(res, work, schedule):
    task = FluidTask("t", work=work, usage={res: 1.0}, cap=schedule.cap)
    task.schedule = schedule
    return task


def test_slack_schedule_costs_no_event_and_no_solve():
    env = Environment()
    sched = FluidScheduler(env)
    res = sched.add_resource(FluidResource("r", 10.0))
    task = _scheduled_task(res, 100.0, _Doubling(0.5, 20.0, 5120.0))
    done = sched.submit(task)
    env.run(until=env.now)
    assert len(env._queue) == 1  # the completion wake, no step wake
    env.run(until=done)
    assert env.now == 10.0
    assert sched.stats.cap_steps == 0
    assert sched.stats.components_solved == 1
    # Nobody asked: the cap the solve saw is still on the task.
    assert task.cap == 20.0


def test_binding_schedule_steps_on_its_own_lattice():
    env = Environment()
    sched = FluidScheduler(env)
    res = sched.add_resource(FluidResource("r", 100.0))
    task = _scheduled_task(res, 100.0, _Doubling(1.0, 10.0, 40.0))
    seen = []
    task.on_rate = lambda t, old, new, now: seen.append((now, new))
    env.run(until=sched.submit(task))
    # 10/s for 1 s, 20/s for 1 s, then 40/s for the remaining 70.
    assert seen == [(0.0, 10.0), (1.0, 20.0), (2.0, 40.0)]
    assert env.now == 3.75
    assert sched.stats.cap_steps == 2


def test_solve_reads_every_schedule_of_the_component():
    env = Environment()
    sched = FluidScheduler(env)
    res = sched.add_resource(FluidResource("r", 10.0))
    slack = _scheduled_task(res, 1000.0, _Doubling(0.25, 16.0, 64.0))
    sched.submit(slack)
    short = FluidTask("short", work=5.0, usage={res: 1.0})
    env.run(until=sched.submit(short))
    # 5 each until `short` left at t=1; its completion re-solved the
    # component with the schedule brought up to now.
    assert env.now == 1.0
    assert slack.cap == 64.0 and slack.rate == 10.0
    assert sched.stats.cap_steps == 0


def test_set_cap_elides_only_raises_of_a_slack_cap():
    env = Environment()
    sched = FluidScheduler(env)
    res = sched.add_resource(FluidResource("r", 10.0))
    a = FluidTask("a", work=1e6, usage={res: 1.0}, cap=100.0)
    b = FluidTask("b", work=1e6, usage={res: 1.0}, cap=100.0)
    sched.submit(a)
    sched.submit(b)
    env.run(until=env.now)
    solved = sched.stats.components_solved
    sched.set_cap(a, 200.0)  # 5 of 100: slack, raised
    env.run(until=env.now)
    assert (a.cap, a.rate, b.rate) == (200.0, 5.0, 5.0)
    assert sched.stats.solves_elided == 1
    assert sched.stats.components_solved == solved
    sched.set_cap(a, 3.0)  # lowered: must solve
    env.run(until=env.now)
    assert (a.rate, b.rate) == (3.0, 7.0)
    sched.set_cap(a, 4.0)  # raised, but it was binding: must solve
    env.run(until=env.now)
    assert (a.rate, b.rate) == (4.0, 6.0)
    assert sched.stats.solves_elided == 1
    assert sched.stats.components_solved == solved + 2
