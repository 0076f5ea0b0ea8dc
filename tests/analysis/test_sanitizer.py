"""The DES concurrency sanitizer: detection, cleanliness, reporting."""

import pytest

from repro.analysis import SimSanitizer, attach_sanitizer
from repro.netlogger.daemon import NetLogDaemon
from repro.netlogger.events import format_ulm
from repro.netlogger.logger import NetLogger
from repro.simcore.env import Environment
from repro.simcore.events import Interrupt
from repro.simcore.sync import BoundedBuffer, SimSemaphore

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
    """Appendix B's shape: a reader over a double buffer and a counted
    consumer loop; neither side needs an end-of-stream marker."""
    env = Environment()
    sanitizer = attach_sanitizer(env)
    buf = BoundedBuffer(env, 2, name="hand-off")
    out = []

    def reader(env):
        for x in range(8):
            yield buf.reserve()
            yield env.timeout(1.0)
            buf.commit(x * 2)

    def sink(env):
        for _ in range(8):
            out.append((yield buf.get()))
            yield env.timeout(2.0)

    env.process(reader(env))
    env.process(sink(env))
    env.run()
    assert sanitizer.report().clean
    assert out == [x * 2 for x in range(8)]


def test_interrupted_stage_is_not_reported_as_blocked():
    env = Environment()
    sanitizer = attach_sanitizer(env)
    buf = BoundedBuffer(env, 2, name="feed")

    def starved(env):
        try:
            yield buf.get()
        except Interrupt:
            pass

    def supervisor(env, proc):
        yield env.timeout(1.0)
        proc.interrupt("cancelled")

    env.process(supervisor(env, env.process(starved(env))))
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
    daemon = NetLogDaemon()
    logger = NetLogger(
        "san-host", "sanitizer", clock=lambda: env.now, daemon=daemon
    )
    sanitizer = attach_sanitizer(env, logger=logger)
    sem = SimSemaphore(env, name="ready")

    def stuck(env, sem):
        yield sem.wait()

    env.process(stuck(env, sem))
    env.run()
    report = sanitizer.report()
    assert not report.clean
    tags = [e.event for e in daemon.events]
    assert "SAN_LOST_WAKEUP" in tags
    assert tags[-1] == "SAN_REPORT"
    # Every SAN event must serialise as a legal ULM line.
    for event in daemon.events:
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
