"""The DES concurrency sanitizer: detection, cleanliness, reporting."""

import pytest

from repro.analysis import SimSanitizer, attach_sanitizer
from repro.netlogger.events import format_ulm
from repro.netlogger.logger import NetLogger
from repro.simcore.env import Environment
from repro.simcore.events import Interrupt
from repro.simcore.pipeline import SHUTDOWN, BoundedBuffer, Pipeline
from repro.simcore.sync import SimSemaphore

from tests.analysis.faults import FAULTS


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_seeded_fault_detected_with_correct_category(name):
    builder, category = FAULTS[name]
    env = Environment()
    sanitizer = attach_sanitizer(env)
    builder(env)
    env.run()
    report = sanitizer.report()
    assert category in {f.category for f in report.findings}, (
        f"{name}: expected a {category!r} finding, got {report.summary()}"
    )


def test_clean_pipeline_produces_no_findings():
    env = Environment()
    sanitizer = attach_sanitizer(env)
    pipe = Pipeline(env, name="clean")
    buf = pipe.buffer(2, name="hand-off")
    out = []
    pipe.stage("src", lambda x: x * 2, source=range(8), outbound=buf)
    pipe.stage("sink", out.append, inbound=buf)
    done = pipe.run()
    env.run(done)
    env.run()
    assert sanitizer.report().clean
    assert out == [x * 2 for x in range(8)]


def test_clean_on_done_rendezvous_produces_no_findings():
    env = Environment()
    sanitizer = attach_sanitizer(env)
    buf = BoundedBuffer(env, depth=1, name="rendezvous", release="on_done")

    def producer(env, buf):
        for i in range(4):
            yield buf.put(i)
        buf.close()

    got = []

    def consumer(env, buf):
        while True:
            item = yield buf.get()
            if item is SHUTDOWN:
                break
            got.append(item)
            buf.task_done()

    env.process(producer(env, buf))
    env.process(consumer(env, buf))
    env.run()
    assert sanitizer.report().clean
    assert got == [0, 1, 2, 3]


def test_daemon_stages_exempt_from_hang_findings():
    env = Environment()
    sanitizer = attach_sanitizer(env)
    pipe = Pipeline(env, name="service", daemon=True)
    buf = pipe.buffer(None, name="inbox")
    pipe.stage("server", lambda x: None, inbound=buf)
    pipe.start()

    def client(env, buf):
        yield buf.put("request")

    env.process(client(env, buf))
    env.run()
    assert sanitizer.report().clean


def test_interrupted_stage_is_not_reported_as_blocked():
    env = Environment()
    sanitizer = attach_sanitizer(env)
    pipe = Pipeline(env, name="cancelled")
    buf = pipe.buffer(2, name="feed")
    pipe.stage("starved", lambda x: x, inbound=buf)

    def supervisor(env, pipe):
        done = pipe.run()
        yield env.timeout(1.0)
        pipe.cancel()
        try:
            yield done
        except Interrupt:
            pass

    env.process(supervisor(env, pipe))
    env.run()
    assert sanitizer.report().clean


def test_semaphore_satisfied_later_is_not_a_lost_wakeup():
    env = Environment()
    sanitizer = attach_sanitizer(env)
    sem = SimSemaphore(env, name="ready")

    def waiter(env, sem):
        yield sem.wait()

    def poster(env, sem):
        yield env.timeout(2.0)
        sem.post()

    env.process(waiter(env, sem))
    env.process(poster(env, sem))
    env.run()
    assert sanitizer.report().clean


def test_findings_emitted_as_san_events():
    env = Environment()
    logger = NetLogger("san-host", "sanitizer", clock=lambda: env.now)
    sanitizer = attach_sanitizer(env, logger=logger)
    sem = SimSemaphore(env, name="ready")

    def stuck(env, sem):
        yield sem.wait()

    env.process(stuck(env, sem))
    env.run()
    report = sanitizer.report()
    assert not report.clean
    tags = [e.event for e in logger.events]
    assert "SAN_LOST_WAKEUP" in tags
    assert tags[-1] == "SAN_REPORT"
    # Every SAN event must serialise as a legal ULM line.
    for event in logger.events:
        assert "NL.EVNT=SAN_" in format_ulm(event)


def test_attach_installs_the_sanitizer():
    env = Environment()
    assert env.sanitizer is None
    sanitizer = attach_sanitizer(env)
    assert env.sanitizer is sanitizer
    assert isinstance(sanitizer, SimSanitizer)


def test_report_is_idempotent():
    env = Environment()
    sanitizer = attach_sanitizer(env)
    sem = SimSemaphore(env, name="once")

    def stuck(env, sem):
        yield sem.wait()

    env.process(stuck(env, sem))
    env.run()
    first = sanitizer.report()
    second = sanitizer.report()
    assert len(first.findings) == len(second.findings) == 1
