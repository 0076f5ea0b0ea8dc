"""Edge-case coverage for kernel corners not hit elsewhere."""

import pytest

from repro.simcore import (
    Environment,
    FluidResource,
    FluidScheduler,
    FluidTask,
    SimulationError,
)


class TestEnvironmentEdges:
    def test_run_until_event_from_exhausted_queue_raises(self):
        env = Environment()
        never = env.event()
        with pytest.raises(SimulationError, match="queue exhausted"):
            env.run(until=never)

    def test_run_until_already_processed_event(self):
        env = Environment()

        def quick(env):
            yield env.timeout(1.0)
            return "done"

        p = env.process(quick(env))
        env.run()
        assert env.run(until=p) == "done"

    def test_run_until_failed_event_reraises(self):
        env = Environment()

        def boom(env):
            yield env.timeout(1.0)
            raise RuntimeError("kapow")

        p = env.process(boom(env))
        with pytest.raises(RuntimeError, match="kapow"):
            env.run(until=p)

    def test_event_value_before_trigger_raises(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_time_never_regresses(self):
        env = Environment()
        stamps = []

        def proc(env, delay):
            yield env.timeout(delay)
            stamps.append(env.now)

        for d in (3.0, 1.0, 2.0, 1.0):
            env.process(proc(env, d))
        env.run()
        assert stamps == sorted(stamps)


class TestFluidEdges:
    def test_set_capacity_mid_run_changes_rates(self):
        env = Environment()
        sched = FluidScheduler(env)
        link = sched.add_resource(FluidResource("link", 100.0))
        task = FluidTask("t", work=200.0, usage={link: 1.0})
        done = sched.submit(task)

        def throttle(env, sched, link):
            yield env.timeout(1.0)  # 100 units done
            sched.set_capacity(link, 50.0)

        env.process(throttle(env, sched, link))
        env.run(until=done)
        # 100 at 100/s, then 100 at 50/s -> 3 s.
        assert env.now == pytest.approx(3.0)

    def test_set_capacity_validation(self):
        env = Environment()
        sched = FluidScheduler(env)
        link = sched.add_resource(FluidResource("link", 10.0))
        with pytest.raises(ValueError):
            sched.set_capacity(link, -1.0)
        rogue = FluidResource("rogue", 1.0)
        with pytest.raises(KeyError):
            sched.set_capacity(rogue, 5.0)

    def test_capacity_zero_stalls_until_restored(self):
        env = Environment()
        sched = FluidScheduler(env)
        link = sched.add_resource(FluidResource("link", 100.0))
        task = FluidTask("t", work=100.0, usage={link: 1.0})
        done = sched.submit(task)

        def outage(env, sched, link):
            yield env.timeout(0.5)
            sched.set_capacity(link, 0.0)  # link down
            yield env.timeout(2.0)
            sched.set_capacity(link, 100.0)  # restored

        env.process(outage(env, sched, link))
        env.run(until=done)
        # 50 done, 2 s outage, 50 more: finishes at 3.0.
        assert env.now == pytest.approx(3.0)

    def test_withdraw_unsubmitted_task_is_noop(self):
        env = Environment()
        sched = FluidScheduler(env)
        link = sched.add_resource(FluidResource("link", 10.0))
        task = FluidTask("t", work=10.0, usage={link: 1.0})
        sched.withdraw(task)  # never submitted; silently ignored
        assert task.done is None and not sched._active

    def test_monitor_records_zero_after_drain(self):
        env = Environment()
        sched = FluidScheduler(env)
        link = sched.add_resource(
            FluidResource("link", 100.0, monitor=True)
        )
        task = FluidTask("t", work=50.0, usage={link: 1.0})
        env.run(until=sched.submit(task))
        series = link.utilization_timeseries()
        assert series[-1][1] == pytest.approx(0.0)
        assert any(u > 0.9 for _, u in series)

    def test_floor_above_capacity_clamps(self):
        env = Environment()
        sched = FluidScheduler(env)
        link = sched.add_resource(FluidResource("link", 10.0))
        task = FluidTask("t", work=20.0, usage={link: 1.0}, floor=100.0)
        done = sched.submit(task)
        env.run(until=done)
        assert env.now == pytest.approx(2.0)  # capped at capacity


class TestInterruptEdges:
    def test_interrupt_during_fluid_wait_releases_cleanly(self):
        from repro.simcore.events import Interrupt

        env = Environment()
        sched = FluidScheduler(env)
        link = sched.add_resource(FluidResource("link", 10.0))
        outcome = []

        def worker(env, sched, link):
            task = FluidTask("t", work=100.0, usage={link: 1.0})
            done = sched.submit(task)
            try:
                yield done
            except Interrupt:
                sched.withdraw(task)
                outcome.append(("interrupted", env.now))

        def killer(env, victim):
            yield env.timeout(2.0)
            victim.interrupt()

        victim = env.process(worker(env, sched, link))
        env.process(killer(env, victim))
        env.run()
        assert outcome == [("interrupted", 2.0)]
        assert not sched._active
