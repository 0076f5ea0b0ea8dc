"""Tests for the event loop, processes and composite events."""

import pytest

from repro.simcore import (
    Environment,
    Interrupt,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(2.5)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert env.now == pytest.approx(2.5)
    assert p.value == pytest.approx(2.5)


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()

    def proc(env):
        got = yield env.timeout(1.0, value="payload")
        return got

    p = env.process(proc(env))
    env.run()
    assert p.value == "payload"


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc(env):
        for d in (1.0, 2.0, 3.0):
            yield env.timeout(d)
            times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [pytest.approx(1.0), pytest.approx(3.0), pytest.approx(6.0)]


def test_two_processes_interleave():
    env = Environment()
    order = []

    def a(env):
        yield env.timeout(1)
        order.append(("a", env.now))
        yield env.timeout(2)
        order.append(("a", env.now))

    def b(env):
        yield env.timeout(2)
        order.append(("b", env.now))

    env.process(a(env))
    env.process(b(env))
    env.run()
    assert order == [("a", 1), ("b", 2), ("a", 3)]


def test_run_until_time_stops_early():
    env = Environment()
    hits = []

    def proc(env):
        while True:
            yield env.timeout(1.0)
            hits.append(env.now)

    env.process(proc(env))
    env.run(until=3.5)
    assert hits == [1.0, 2.0, 3.0]
    assert env.now == pytest.approx(3.5)


def test_run_until_event():
    env = Environment()

    def proc(env):
        yield env.timeout(4.0)
        return 42

    p = env.process(proc(env))
    result = env.run(until=p)
    assert result == 42
    assert env.now == pytest.approx(4.0)


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_process_waits_on_plain_event():
    env = Environment()
    gate = env.event()

    def opener(env, gate):
        yield env.timeout(2.0)
        gate.succeed("open")

    def waiter(env, gate):
        value = yield gate
        return (env.now, value)

    env.process(opener(env, gate))
    w = env.process(waiter(env, gate))
    env.run()
    assert w.value == (2.0, "open")


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_failed_event_raises_in_process():
    env = Environment()
    gate = env.event()
    caught = []

    def failer(env, gate):
        yield env.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    def waiter(env, gate):
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(failer(env, gate))
    env.process(waiter(env, gate))
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_crash_propagates():
    env = Environment()

    def crasher(env):
        yield env.timeout(1.0)
        raise ValueError("unhandled crash")

    env.process(crasher(env))
    with pytest.raises(ValueError, match="unhandled crash"):
        env.run()


def test_concurrent_crashes_raise_first_and_attach_rest():
    # Two processes crashing off the same event tick: the first crash
    # must surface and the second must NOT be silently discarded -- it
    # rides along on ``sim_concurrent_crashes``.
    env = Environment()
    gate = env.event()

    def crasher(env, gate, label):
        yield gate
        raise ValueError(label)

    def opener(env, gate):
        yield env.timeout(1.0)
        gate.succeed()

    env.process(crasher(env, gate, "first"))
    env.process(crasher(env, gate, "second"))
    env.process(opener(env, gate))
    with pytest.raises(ValueError, match="first") as excinfo:
        env.run()
    dropped = excinfo.value.sim_concurrent_crashes
    assert len(dropped) == 1
    process, other = dropped[0]
    assert isinstance(other, ValueError)
    assert str(other) == "second"
    notes = getattr(excinfo.value, "__notes__", [])
    assert any("concurrent unhandled crash" in note for note in notes)


def test_crash_propagates_to_waiting_process():
    env = Environment()
    outcomes = []

    def crasher(env):
        yield env.timeout(1.0)
        raise ValueError("inner")

    def waiter(env, p):
        try:
            yield p
        except ValueError as exc:
            outcomes.append(str(exc))

    p = env.process(crasher(env))
    env.process(waiter(env, p))
    env.run()
    assert outcomes == ["inner"]


def test_process_return_value_is_event_value():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        return "child result"

    def parent(env):
        result = yield env.process(child(env))
        return result + " seen"

    p = env.process(parent(env))
    env.run()
    assert p.value == "child result seen"


def test_yield_already_completed_process():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        return 7

    def parent(env, c):
        yield env.timeout(5.0)
        value = yield c  # c finished long ago
        return value

    c = env.process(child(env))
    p = env.process(parent(env, c))
    env.run()
    assert p.value == 7
    assert env.now == pytest.approx(5.0)


def test_yield_non_event_rejected():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_interrupt_wakes_process():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
            log.append("slept full")
        except Interrupt as i:
            log.append(("interrupted", env.now, i.cause))

    def interrupter(env, victim):
        yield env.timeout(3.0)
        victim.interrupt(cause="wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [("interrupted", 3.0, "wake up")]


def test_interrupt_before_start_lands_inside_the_body():
    # Interrupted at the instant it was created: the process first runs
    # to its first yield, so its own handler and finally see the
    # Interrupt instead of the generator failing unstarted.
    env = Environment()
    log = []

    def victim(env):
        try:
            log.append("started")
            yield env.timeout(5.0)
            log.append("slept full")
        except Interrupt as i:
            log.append(("interrupted", env.now, i.cause))
            return "torn down"
        finally:
            log.append("cleaned up")

    def launcher(env):
        yield env.timeout(2.0)
        p = env.process(victim(env))
        p.interrupt(cause="too late")
        return (yield p)

    assert env.run(until=env.process(launcher(env))) == "torn down"
    assert log == [
        "started", ("interrupted", 2.0, "too late"), "cleaned up",
    ]


def test_interrupt_before_start_dropped_if_first_step_finishes():
    env = Environment()

    def instant(env):
        return "done"
        yield  # pragma: no cover - makes this a generator

    p = env.process(instant(env))
    p.interrupt()
    assert env.run(until=p) == "done"


def test_interrupt_terminated_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_any_of_fires_on_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        result = yield env.any_of([t1, t2])
        return (env.now, list(result.values()))

    p = env.process(proc(env))
    env.run(until=p)
    assert p.value == (1.0, ["fast"])


def test_all_of_waits_for_all():
    env = Environment()

    def proc(env):
        ts = [env.timeout(d, value=d) for d in (1.0, 3.0, 2.0)]
        result = yield env.all_of(ts)
        return (env.now, sorted(result.values()))

    p = env.process(proc(env))
    env.run()
    assert p.value == (3.0, [1.0, 2.0, 3.0])


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc(env):
        result = yield env.all_of([])
        return result

    p = env.process(proc(env))
    env.run()
    assert p.value == {}


def test_condition_failure_propagates():
    env = Environment()
    gate = env.event()

    def failer(env, gate):
        yield env.timeout(1.0)
        gate.fail(RuntimeError("cond fail"))

    def waiter(env, gate):
        try:
            yield env.all_of([gate, env.timeout(10.0)])
        except RuntimeError as exc:
            return str(exc)

    env.process(failer(env, gate))
    w = env.process(waiter(env, gate))
    env.run()
    assert w.value == "cond fail"


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == pytest.approx(7.0)
    env.run()
    assert env.peek() == float("inf")


def test_determinism_same_seed_same_trace():
    def build():
        env = Environment()
        trace = []

        def proc(env, name, delay):
            for _ in range(3):
                yield env.timeout(delay)
                trace.append((name, env.now))

        env.process(proc(env, "x", 1.5))
        env.process(proc(env, "y", 2.0))
        env.run()
        return trace

    assert build() == build()


def test_timeout_at_fires_at_the_exact_absolute_time():
    """``now + (when - now)`` can round an ulp away from ``when``."""
    now, when = 0.9909626251286945, 3.4028523500198804
    assert now + (when - now) != when
    env = Environment(initial_time=now)
    fired = []

    def waiter(env):
        value = yield env.timeout_at(when)
        fired.append((env.now, value))

    env.process(waiter(env))
    env.run()
    assert fired == [(when, None)]


def test_timeout_at_rejects_the_past():
    env = Environment(initial_time=2.0)
    with pytest.raises(ValueError):
        env.timeout_at(1.0)
    env.timeout_at(2.0)  # now is fine


def test_at_instant_end_runs_after_same_time_events_before_later_ones():
    """Same-time events scheduled after arming still run first; a
    callback that arms again is served before time advances."""
    env = Environment()
    log = []

    def second_flush():
        log.append(("flush2", env.now))

    def first_flush():
        log.append(("flush1", env.now))
        env.at_instant_end(second_flush)

    def proc(env):
        yield env.timeout(1.0)
        env.at_instant_end(first_flush)
        # Scheduled after the flush was armed, at the same instant.
        env.timeout(0.0).callbacks.append(
            lambda _ev: log.append(("late", env.now))
        )
        yield env.timeout(0.0)
        log.append(("proc", env.now))

    env.process(proc(env))
    env.timeout(1.5).callbacks.append(lambda _ev: log.append(("next", env.now)))
    env.run()
    assert log == [
        ("late", 1.0),
        ("proc", 1.0),
        ("flush1", 1.0),
        ("flush2", 1.0),
        ("next", 1.5),
    ]


def test_at_instant_end_yields_to_events_a_callback_schedules():
    """A ``timeout(0)`` armed by one callback runs before the next one."""
    env = Environment()
    log = []

    def first():
        log.append("first")
        env.timeout(0.0).callbacks.append(lambda _ev: log.append("zero"))

    env.at_instant_end(first)
    env.at_instant_end(lambda: log.append("second"))
    env.run()
    assert log == ["first", "zero", "second"]
    assert env.now == 0.0


def test_run_until_now_drains_instant_end_callbacks():
    env = Environment(initial_time=3.0)
    log = []
    env.at_instant_end(lambda: log.append(env.now))
    env.timeout(1.0)
    env.run(until=env.now)
    assert log == [3.0]
    assert env.now == 3.0 and env.peek() == 4.0


def test_peek_is_now_while_instant_end_callbacks_are_pending():
    env = Environment()
    env.timeout(2.0)
    env.run(until=1.0)
    env.at_instant_end(lambda: None)
    assert env.peek() == 1.0
    env.step()
    assert env.peek() == 2.0


def test_instant_end_callback_exception_propagates_out_of_run():
    env = Environment()

    def boom():
        raise RuntimeError("settle failed")

    env.at_instant_end(boom)
    with pytest.raises(RuntimeError, match="settle failed"):
        env.run()


def test_run_until_event_waits_for_pending_instant_end_callbacks():
    """An empty heap is not exhaustion while a callback may still fire
    the awaited event."""
    env = Environment()
    done = env.event()
    env.at_instant_end(lambda: done.succeed("settled"))
    assert env.run(until=done) == "settled"
