"""Seeded concurrency bugs the sanitizer must catch.

Each builder wires an intentionally broken pipeline into a fresh
environment; ``FAULTS`` maps its name to the finding category the
sanitizer is required to report. These double as regression armor for
``simcore.sync``/``pipeline``: if a refactor changes the primitives'
blocking behaviour, the seeded bugs stop reproducing and the tests
fail loudly.
"""

from repro.simcore.env import Environment
from repro.simcore.pipeline import SHUTDOWN, BoundedBuffer, Pipeline
from repro.simcore.sync import SimBarrier, SimSemaphore


def reader_never_commits(env: Environment) -> None:
    """Appendix B gone wrong: the reader takes semaphore A (reserves a
    slab slot) but dies before posting B (committing the data)."""
    buf = BoundedBuffer(env, depth=2, name="slabs")

    def reader(env, buf):
        yield buf.reserve()
        # ... crashes before commit: the credit is never returned.

    def renderer(env, buf):
        while True:
            item = yield buf.get()
            if item is SHUTDOWN:
                break

    env.process(reader(env, buf))
    env.process(renderer(env, buf))


def dropped_semaphore_post(env: Environment) -> None:
    """The handshake partner forgets one ``post``: two waits, one post."""
    sem = SimSemaphore(env, name="data-ready")

    def consumer(env, sem):
        yield sem.wait()
        yield sem.wait()  # never satisfied

    def producer(env, sem):
        yield env.timeout(1.0)
        sem.post()  # the second post is dropped

    env.process(consumer(env, sem))
    env.process(producer(env, sem))


def circular_pipeline(env: Environment) -> None:
    """Two stages feeding each other with nothing in flight: each
    blocks in get() waiting for the other to produce first."""
    pipe = Pipeline(env, name="loop")
    ab = pipe.buffer(2, name="ab")
    ba = pipe.buffer(2, name="ba")
    pipe.stage("forward", lambda x: x, inbound=ab, outbound=ba)
    pipe.stage("backward", lambda x: x, inbound=ba, outbound=ab)
    pipe.start()


def commit_without_reserve(env: Environment) -> None:
    """A producer skips the reserve step of the credit protocol."""
    buf = BoundedBuffer(env, depth=2, name="slabs")

    def rogue(env, buf):
        buf.commit("frame-0")  # no reserve() first
        yield env.timeout(0)

    def consumer(env, buf):
        yield buf.get()

    env.process(rogue(env, buf))
    env.process(consumer(env, buf))


def get_after_shutdown(env: Environment) -> None:
    """A consumer ignores the SHUTDOWN sentinel and asks again."""
    buf = BoundedBuffer(env, depth=2, name="slabs")
    buf.close()

    def consumer(env, buf):
        first = yield buf.get()
        assert first is SHUTDOWN
        yield buf.get()  # protocol violation: the stream ended

    env.process(consumer(env, buf))


def task_done_imbalance(env: Environment) -> None:
    """An ``on_done`` consumer that never acknowledges its item."""
    buf = BoundedBuffer(env, depth=1, name="rendered", release="on_done")

    def producer(env, buf):
        yield buf.put("frame-0")

    def consumer(env, buf):
        yield buf.get()
        # missing buf.task_done(): the slot is never recycled

    env.process(producer(env, buf))
    env.process(consumer(env, buf))


def barrier_understaffed(env: Environment) -> None:
    """A 3-party frame barrier only two PEs ever reach."""
    barrier = SimBarrier(env, parties=3)

    def pe(env, barrier):
        yield barrier.wait()

    env.process(pe(env, barrier))
    env.process(pe(env, barrier))


#: fault name -> (builder, the category the sanitizer must report)
FAULTS = {
    "reader_never_commits": (reader_never_commits, "credit-leak"),
    "dropped_semaphore_post": (dropped_semaphore_post, "lost-wakeup"),
    "circular_pipeline": (circular_pipeline, "deadlock"),
    "commit_without_reserve": (commit_without_reserve, "protocol"),
    "get_after_shutdown": (get_after_shutdown, "protocol"),
    "task_done_imbalance": (task_done_imbalance, "protocol"),
    "barrier_understaffed": (barrier_understaffed, "barrier-stuck"),
}
