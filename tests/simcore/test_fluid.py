"""Tests for the fluid task scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import (
    Environment,
    FluidResource,
    FluidScheduler,
    FluidTask,
)
from repro.simcore.events import Interrupt, SimulationError


def make_sched(*resources):
    env = Environment()
    sched = FluidScheduler(env)
    out = [env, sched]
    for name, cap in resources:
        out.append(sched.add_resource(FluidResource(name, cap)))
    return out


def test_single_task_runs_at_capacity():
    env, sched, link = make_sched(("link", 100.0))
    task = FluidTask("xfer", work=500.0, usage={link: 1.0})
    done = sched.submit(task)
    env.run(until=done)
    assert env.now == pytest.approx(5.0)
    assert task.finish_time == pytest.approx(5.0)
    assert task.remaining == 0.0


def test_cap_limits_rate():
    env, sched, link = make_sched(("link", 100.0))
    task = FluidTask("xfer", work=100.0, usage={link: 1.0}, cap=20.0)
    done = sched.submit(task)
    env.run(until=done)
    assert env.now == pytest.approx(5.0)


def test_two_tasks_share_then_speed_up():
    """Classic PS: joint phase at half rate, then survivor gets it all."""
    env, sched, link = make_sched(("link", 100.0))
    t1 = FluidTask("short", work=100.0, usage={link: 1.0})
    t2 = FluidTask("long", work=300.0, usage={link: 1.0})
    d1 = sched.submit(t1)
    d2 = sched.submit(t2)
    env.run(until=d1)
    # Shared at 50 each: short (100 units) finishes at t=2.
    assert env.now == pytest.approx(2.0)
    env.run(until=d2)
    # Long did 100 by t=2, then 200 more at full 100/s -> t=4.
    assert env.now == pytest.approx(4.0)


def test_late_joiner_slows_first_task():
    env, sched, link = make_sched(("link", 100.0))
    t1 = FluidTask("first", work=300.0, usage={link: 1.0})
    d1 = sched.submit(t1)

    def joiner(env, sched, link):
        yield env.timeout(1.0)
        t2 = FluidTask("second", work=50.0, usage={link: 1.0})
        yield sched.submit(t2)
        return env.now

    j = env.process(joiner(env, sched, link))
    env.run(until=d1)
    # first: 100 units in [0,1), then 50/s while second active.
    # second: 50 units at 50/s -> done at t=2. first then has
    # 300-100-50=150 left at 100/s -> done at 3.5.
    assert j.value == pytest.approx(2.0)
    assert env.now == pytest.approx(3.5)


def test_zero_work_task_completes_immediately():
    env, sched, link = make_sched(("link", 100.0))
    task = FluidTask("empty", work=0.0, usage={link: 1.0})
    done = sched.submit(task)
    env.run()
    assert done.processed and done.ok
    assert task.finish_time == 0.0


def test_set_cap_mid_flight_slow_start_style():
    env, sched, link = make_sched(("link", 100.0))
    task = FluidTask("xfer", work=150.0, usage={link: 1.0}, cap=10.0)
    done = sched.submit(task)

    def opener(env, sched, task):
        yield env.timeout(5.0)  # 50 units done at rate 10
        sched.set_cap(task, 100.0)

    env.process(opener(env, sched, task))
    env.run(until=done)
    # Remaining 100 at 100/s after t=5 -> finish at 6.
    assert env.now == pytest.approx(6.0)


def test_set_cap_on_finished_task_is_noop():
    env, sched, link = make_sched(("link", 100.0))
    task = FluidTask("xfer", work=100.0, usage={link: 1.0})
    done = sched.submit(task)
    env.run(until=done)
    sched.set_cap(task, 5.0)  # must not raise


def test_add_work_extends_task():
    env, sched, link = make_sched(("link", 100.0))
    task = FluidTask("xfer", work=100.0, usage={link: 1.0})
    done = sched.submit(task)

    def extender(env, sched, task):
        yield env.timeout(0.5)
        sched.add_work(task, 100.0)

    env.process(extender(env, sched, task))
    env.run(until=done)
    assert env.now == pytest.approx(2.0)


def test_cancel_fails_done_event():
    env, sched, link = make_sched(("link", 100.0))
    task = FluidTask("xfer", work=1000.0, usage={link: 1.0})
    outcome = []

    def waiter(env, sched, task):
        done = sched.submit(task)
        try:
            yield done
        except Interrupt:
            outcome.append(("cancelled", env.now))

    def canceller(env, sched, task):
        yield env.timeout(2.0)
        sched.cancel(task)

    env.process(waiter(env, sched, task))
    env.process(canceller(env, sched, task))
    env.run()
    assert outcome == [("cancelled", 2.0)]


def test_cancel_releases_bandwidth():
    env, sched, link = make_sched(("link", 100.0))
    t1 = FluidTask("dies", work=1000.0, usage={link: 1.0})
    t2 = FluidTask("lives", work=150.0, usage={link: 1.0})
    d1 = sched.submit(t1)
    d1._defused = True
    d2 = sched.submit(t2)

    def canceller(env, sched, t1):
        yield env.timeout(1.0)
        sched.cancel(t1)

    env.process(canceller(env, sched, t1))
    env.run(until=d2)
    # t2: 50 in the shared second, then 100 at full rate -> t=2.
    assert env.now == pytest.approx(2.0)


def test_multi_resource_path_bottleneck():
    env, sched, nic, wan = make_sched(("nic", 125.0), ("wan", 75.0))
    task = FluidTask("xfer", work=150.0, usage={nic: 1.0, wan: 1.0})
    done = sched.submit(task)
    env.run(until=done)
    assert env.now == pytest.approx(2.0)  # 75/s bottleneck


def test_unregistered_resource_rejected():
    env, sched, link = make_sched(("link", 100.0))
    rogue = FluidResource("rogue", 10.0)
    task = FluidTask("bad", work=1.0, usage={rogue: 1.0})
    with pytest.raises(KeyError):
        sched.submit(task)


def test_double_submit_rejected():
    from repro.simcore.events import SimulationError

    env, sched, link = make_sched(("link", 100.0))
    task = FluidTask("xfer", work=10.0, usage={link: 1.0})
    sched.submit(task)
    with pytest.raises(SimulationError):
        sched.submit(task)


def test_duplicate_resource_name_rejected():
    env = Environment()
    sched = FluidScheduler(env)
    sched.add_resource(FluidResource("r", 1.0))
    with pytest.raises(ValueError):
        sched.add_resource(FluidResource("r", 2.0))


def test_monitored_resource_records_samples():
    env = Environment()
    sched = FluidScheduler(env)
    link = sched.add_resource(FluidResource("link", 100.0, monitor=True))
    t1 = FluidTask("a", work=100.0, usage={link: 1.0})
    t2 = FluidTask("b", work=200.0, usage={link: 1.0})
    sched.submit(t1)
    sched.submit(t2)
    env.run()
    series = link.utilization_timeseries()
    assert series, "expected utilisation samples"
    # While both active the link is fully used.
    assert any(abs(u - 1.0) < 1e-9 for _, u in series)


def test_task_progress_tracking():
    env, sched, link = make_sched(("link", 100.0))
    task = FluidTask("xfer", work=100.0, usage={link: 1.0})
    sched.submit(task)
    env.run(until=0.5)
    sched._advance()
    assert task.progressed == pytest.approx(50.0)


def test_validation_errors():
    env, sched, link = make_sched(("link", 100.0))
    with pytest.raises(ValueError):
        FluidTask("bad", work=-1.0, usage={link: 1.0})
    with pytest.raises(ValueError):
        FluidTask("bad", work=1.0, usage={link: 1.0}, cap=-2.0)
    with pytest.raises(ValueError):
        FluidResource("bad", capacity=-1.0)
    task = FluidTask("ok", work=10.0, usage={link: 1.0})
    sched.submit(task)
    with pytest.raises(ValueError):
        sched.set_cap(task, -1.0)
    with pytest.raises(ValueError):
        sched.add_work(task, -5.0)


@settings(max_examples=40, deadline=None)
@given(
    works=st.lists(
        st.floats(min_value=1.0, max_value=1000.0), min_size=1, max_size=6
    ),
    capacity=st.floats(min_value=10.0, max_value=500.0),
)
def test_total_service_conserved(works, capacity):
    """Makespan equals total work / capacity while the link is busy.

    With all tasks started at t=0 on one shared link, the fluid link
    is work-conserving, so the last completion happens exactly at
    sum(work)/capacity.
    """
    env = Environment()
    sched = FluidScheduler(env)
    link = sched.add_resource(FluidResource("link", capacity))
    tasks = [
        FluidTask(f"t{i}", work=w, usage={link: 1.0})
        for i, w in enumerate(works)
    ]
    for t in tasks:
        sched.submit(t)
    env.run()
    assert env.now == pytest.approx(sum(works) / capacity, rel=1e-6)
    for t in tasks:
        assert t.finish_time is not None
        assert t.remaining == 0.0


@settings(max_examples=40, deadline=None)
@given(
    works=st.lists(
        st.floats(min_value=1.0, max_value=100.0), min_size=2, max_size=5
    )
)
def test_equal_work_equal_finish(works):
    """Tasks with identical work on one link finish simultaneously."""
    env = Environment()
    sched = FluidScheduler(env)
    link = sched.add_resource(FluidResource("link", 50.0))
    w = works[0]
    tasks = [
        FluidTask(f"t{i}", work=w, usage={link: 1.0}) for i in range(len(works))
    ]
    for t in tasks:
        sched.submit(t)
    env.run()
    finishes = {round(t.finish_time, 9) for t in tasks}
    assert len(finishes) == 1


def test_set_usage_batch_is_one_solve():
    env, sched, wan, edge = make_sched(("wan", 100.0), ("edge", 60.0))
    a = FluidTask("a", work=1e3, usage={wan: 1.0})
    b = FluidTask("b", work=1e3, usage={wan: 1.0, edge: 1.0})
    sched.submit(a)
    sched.submit(b)
    env.run(until=env.now)
    solves = sched.stats.components_solved
    sched.set_usage([(a, {wan: 3.0}), (b, {wan: 1.0, edge: 2.0})])
    env.run(until=env.now)
    assert sched.stats.components_solved == solves + 1
    assert a.rate == b.rate == 25.0


@pytest.mark.parametrize(
    "bad, error",
    [
        ("footprint", SimulationError),  # b gains a positive resource
        ("negative", ValueError),  # a zero coefficient goes negative
    ],
)
def test_refused_set_usage_batch_changes_nothing(bad, error):
    """Every pair is validated before any task is touched."""
    env, sched, wan, edge = make_sched(("wan", 100.0), ("edge", 60.0))
    a = FluidTask("a", work=1e3, usage={wan: 1.0})
    b = FluidTask("b", work=1e3, usage={wan: 1.0, edge: 0.0})
    sched.submit(a)
    sched.submit(b)
    before = {t.name: dict(t.usage) for t in (a, b)}
    rates = (a.rate, b.rate)
    solves = sched.stats.components_solved
    b_usage = (
        {wan: 1.0, edge: 1.0} if bad == "footprint" else {wan: 1.0, edge: -1.0}
    )
    with pytest.raises(error):
        sched.set_usage([(a, {wan: 2.0}), (b, b_usage)])
    assert {t.name: t.usage for t in (a, b)} == before
    assert (a.rate, b.rate) == rates
    assert sched.stats.components_solved == solves
