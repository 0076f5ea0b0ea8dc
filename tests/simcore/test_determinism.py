"""Determinism and stress properties of the simulation kernel.

The benchmark harness depends on bit-identical reruns; these tests
drive the kernel with randomized (but seeded) process graphs and check
that traces replay exactly and that bookkeeping invariants hold.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import (
    BoundedBuffer,
    Environment,
    FluidResource,
    FluidScheduler,
    FluidTask,
    SimBarrier,
    SimSemaphore,
)


def run_random_graph(seed: int, n_procs: int, n_steps: int):
    """A random producer/consumer/compute mesh; returns its trace."""
    rng = np.random.default_rng(seed)
    env = Environment()
    # Enough slots that a producer never waits: one per producer, + 1.
    buffer = BoundedBuffer(env, n_procs // 2 + 1, name="mesh")
    barrier = SimBarrier(env, n_procs)
    trace = []

    def proc(env, pid, delays):
        for step, d in enumerate(delays):
            yield env.timeout(d)
            trace.append(("tick", pid, step, round(env.now, 9)))
            if pid % 2 == 0:
                yield buffer.reserve()
                buffer.commit((pid, step))
            else:
                item = yield buffer.get()
                trace.append(("got", pid, item))
            yield barrier.wait()

    # Equal producer/consumer counts so gets always complete.
    assert n_procs % 2 == 0
    for pid in range(n_procs):
        delays = rng.random(n_steps) * 3.0
        env.process(proc(env, pid, list(delays)))
    env.run()
    return trace


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n_procs=st.sampled_from([2, 4, 6]),
    n_steps=st.integers(min_value=1, max_value=5),
)
def test_random_graphs_replay_identically(seed, n_procs, n_steps):
    a = run_random_graph(seed, n_procs, n_steps)
    b = run_random_graph(seed, n_procs, n_steps)
    assert a == b


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n_tasks=st.integers(min_value=1, max_value=20),
)
def test_fluid_scheduler_random_arrivals_conserve_work(seed, n_tasks):
    """Tasks arriving at random times all finish, and the busy link is
    never idle while work remains (work conservation)."""
    rng = np.random.default_rng(seed)
    env = Environment()
    sched = FluidScheduler(env)
    link = sched.add_resource(FluidResource("link", 100.0))
    arrivals = np.sort(rng.random(n_tasks) * 10.0)
    works = rng.random(n_tasks) * 200.0 + 1.0
    tasks = []

    def submit_later(env, sched, when, task):
        yield env.timeout(when)
        sched.submit(task)

    for i in range(n_tasks):
        task = FluidTask(f"t{i}", work=float(works[i]), usage={link: 1.0})
        tasks.append(task)
        env.process(submit_later(env, sched, float(arrivals[i]), task))
    env.run()
    for t in tasks:
        assert t.finish_time is not None
        assert t.remaining == 0.0
    # Lower bound: nothing can finish before its arrival plus its
    # work at full capacity; upper bound: all work serialized after
    # the last arrival.
    for i, t in enumerate(tasks):
        assert t.finish_time >= arrivals[i] + works[i] / 100.0 - 1e-6
    makespan = max(t.finish_time for t in tasks)
    assert makespan <= arrivals.max() + works.sum() / 100.0 + 1e-6


def test_semaphore_fifo_under_contention():
    env = Environment()
    sem = SimSemaphore(env)
    order = []

    def waiter(env, sem, name, delay):
        yield env.timeout(delay)
        yield sem.wait()
        order.append(name)

    def poster(env, sem, n):
        yield env.timeout(10.0)
        for _ in range(n):
            sem.post()

    for i in range(5):
        env.process(waiter(env, sem, i, i * 0.1))
    env.process(poster(env, sem, 5))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_thousand_process_barrier_storm():
    """A wide barrier storm completes and stays synchronized."""
    env = Environment()
    n = 500
    barrier = SimBarrier(env, n)
    release_times = []

    def proc(env, pid):
        yield env.timeout(pid * 0.001)
        yield barrier.wait()
        release_times.append(env.now)

    for pid in range(n):
        env.process(proc(env, pid))
    env.run()
    assert len(release_times) == n
    assert len(set(round(t, 12) for t in release_times)) == 1
