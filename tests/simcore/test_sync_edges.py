"""Edge cases for the synchronisation primitives.

The paper's Appendix B handshake depends on SysV semaphore semantics
being exact: a post with no waiter must bank a unit (release before
acquire), and the frame barrier is reused every timestep.
"""

import pytest

from repro.simcore import Environment, SimBarrier, SimSemaphore


class TestSemaphoreReleaseBeforeAcquire:
    def test_post_before_wait_banks_a_unit(self):
        env = Environment()
        sem = SimSemaphore(env)
        sem.post()
        assert sem.value == 1
        ev = sem.wait()
        env.run()
        assert ev.triggered and ev.ok
        assert sem.value == 0

    def test_multiple_posts_bank_multiple_units(self):
        env = Environment()
        sem = SimSemaphore(env)
        for _ in range(3):
            sem.post()
        waits = [sem.wait() for _ in range(3)]
        env.run()
        assert all(w.triggered for w in waits)
        assert sem.value == 0

    def test_fifo_wakeup_order(self):
        """Waiters are released oldest-first, one per post."""
        env = Environment()
        sem = SimSemaphore(env)
        woken = []

        def waiter(env, tag):
            yield sem.wait()
            woken.append(tag)

        for tag in ("a", "b", "c"):
            env.process(waiter(env, tag))

        def poster(env):
            yield env.timeout(1.0)
            sem.post()
            yield env.timeout(1.0)
            sem.post()

        env.process(poster(env))
        env.run()
        assert woken == ["a", "b"]
        assert sem.value == 0

    def test_post_while_waiters_queued_does_not_inflate_value(self):
        """A post that wakes a waiter must not also bank a unit."""
        env = Environment()
        sem = SimSemaphore(env)
        ev = sem.wait()
        sem.post()
        env.run()
        assert ev.triggered
        assert sem.value == 0


class TestBarrierReuse:
    def test_generations_increment_across_rounds(self):
        env = Environment()
        barrier = SimBarrier(env, 2)
        generations = []

        def party(env):
            for _ in range(3):
                gen = yield barrier.wait()
                generations.append(gen)

        env.process(party(env))
        env.process(party(env))
        env.run()
        # Both parties observe each generation, three rounds deep.
        assert sorted(generations) == [1, 1, 2, 2, 3, 3]

    def test_barrier_resets_after_release(self):
        env = Environment()
        barrier = SimBarrier(env, 2)
        barrier.wait()
        assert len(barrier._waiting) == 1
        barrier.wait()
        assert len(barrier._waiting) == 0
        # Reusable: the next arrival queues afresh.
        barrier.wait()
        assert len(barrier._waiting) == 1

    def test_straggler_does_not_join_previous_generation(self):
        """A party arriving after a release waits for a full new round."""
        env = Environment()
        barrier = SimBarrier(env, 2)
        a = barrier.wait()
        b = barrier.wait()
        late = barrier.wait()
        env.run()
        assert a.triggered and b.triggered
        assert not late.triggered


# ------------------------------------------------------------- Semaphore
def test_semaphore_initial_value_consumed():
    env = Environment()
    sem = SimSemaphore(env, value=2)
    times = []

    def waiter(env, sem, name):
        yield sem.wait()
        times.append((name, env.now))

    for i in range(3):
        env.process(waiter(env, sem, i))

    def poster(env, sem):
        yield env.timeout(5.0)
        sem.post()

    env.process(poster(env, sem))
    env.run()
    assert times == [(0, 0.0), (1, 0.0), (2, 5.0)]


def test_semaphore_post_then_wait():
    env = Environment()
    sem = SimSemaphore(env)
    sem.post()
    assert sem.value == 1

    def waiter(env, sem):
        yield sem.wait()
        return env.now

    w = env.process(waiter(env, sem))
    env.run()
    assert w.value == 0.0
    assert sem.value == 0


def test_semaphore_negative_initial_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        SimSemaphore(env, value=-1)


def test_semaphore_ping_pong():
    """The Appendix-B handshake: two processes alternate via a pair."""
    env = Environment()
    sem_a = SimSemaphore(env)
    sem_b = SimSemaphore(env)
    trace = []

    def render(env):
        for step in range(3):
            trace.append(("render requests", step, env.now))
            sem_a.post()
            yield sem_b.wait()
            trace.append(("render got data", step, env.now))

    def reader(env):
        while True:
            yield sem_a.wait()
            yield env.timeout(2.0)  # simulated load time
            trace.append(("reader loaded", env.now))
            sem_b.post()

    env.process(render(env))
    env.process(reader(env))
    env.run(until=100.0)
    loads = [t for t in trace if t[0] == "reader loaded"]
    assert [t[1] for t in loads] == [2.0, 4.0, 6.0]


# --------------------------------------------------------------- Barrier
def test_barrier_releases_all_at_once():
    env = Environment()
    bar = SimBarrier(env, parties=3)
    released = []

    def worker(env, bar, name, delay):
        yield env.timeout(delay)
        yield bar.wait()
        released.append((name, env.now))

    env.process(worker(env, bar, "a", 1.0))
    env.process(worker(env, bar, "b", 5.0))
    env.process(worker(env, bar, "c", 3.0))
    env.run()
    assert sorted(released) == [("a", 5.0), ("b", 5.0), ("c", 5.0)]


def test_barrier_is_reusable():
    env = Environment()
    bar = SimBarrier(env, parties=2)
    gens = []

    def worker(env, bar, delays):
        for d in delays:
            yield env.timeout(d)
            gen = yield bar.wait()
            gens.append((gen, env.now))

    env.process(worker(env, bar, [1.0, 1.0]))
    env.process(worker(env, bar, [2.0, 2.0]))
    env.run()
    assert gens == [(1, 2.0), (1, 2.0), (2, 4.0), (2, 4.0)]


def test_barrier_single_party_never_blocks():
    env = Environment()
    bar = SimBarrier(env, parties=1)

    def solo(env, bar):
        yield bar.wait()
        return env.now

    p = env.process(solo(env, bar))
    env.run()
    assert p.value == 0.0


def test_barrier_invalid_parties():
    env = Environment()
    with pytest.raises(ValueError):
        SimBarrier(env, parties=0)
