"""The daemon's row store: ULM bytes, round trips, memory and threads.

The daemon keeps each event as a row (timestamp, shape index, values)
and builds :class:`NetLogEvent` objects only for readers. The oracle
for every byte it writes is :func:`format_ulm` over the objects it
hands out, in the stable timestamp order ``sorted(events, key=ts)``.
"""

import gc
import sys
import threading
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import build_session, named_campaign
from repro.netlogger import (
    EventLog,
    NetLogDaemon,
    NetLogEvent,
    NetLogger,
    Tags,
    format_ulm,
    parse_ulm,
)
from repro.service.shard import ShardCampaign, ShardedSessionManager


def ulm_bytes(events):
    return "".join(format_ulm(ev) + "\n" for ev in events).encode()


def assert_rows_match_objects(daemon, tmp_path):
    oracle = sorted(daemon.events, key=lambda e: e.ts)
    assert daemon.sorted_events() == oracle
    path = tmp_path / "rows.ulm"
    assert daemon.write_ulm(str(path)) == len(oracle) == len(daemon)
    assert path.read_bytes() == ulm_bytes(oracle)


class TestWriteUlmOracle:
    def test_sc99_flaky(self, tmp_path):
        net, backend, _viewer, daemon = build_session(
            named_campaign("sc99-flaky")
        )
        net.run(until=backend.run())
        assert len(daemon) > 500
        assert_rows_match_objects(daemon, tmp_path)

    def test_sc99_serve10k_1500_sessions(self, tmp_path):
        manager = ShardedSessionManager(
            ShardCampaign.sc99_serve10k(n_sessions=1500)
        )
        manager.env.run(until=manager.run())
        assert len(manager.daemon) > 5000
        assert_rows_match_objects(manager.daemon, tmp_path)


class TestEventLogSnapshot:
    def test_rows_and_objects_give_the_same_log(self):
        net, backend, _viewer, daemon = build_session(
            named_campaign("sc99-flaky")
        )
        net.run(until=backend.run())
        rows, objects = EventLog(daemon), EventLog(daemon.events)
        assert len(rows) == len(objects) == len(daemon)
        assert rows.events == objects.events
        assert rows.load_spans() == objects.load_spans()
        assert rows.render_spans() == objects.render_spans()
        assert rows.per_frame_load_times() == objects.per_frame_load_times()
        faults = rows.filter(event=Tags.FAULT_INJECT).events
        assert faults
        assert faults == objects.filter(event=Tags.FAULT_INJECT).events

    def test_rows_recorded_later_are_not_seen(self):
        daemon = NetLogDaemon()
        logger = NetLogger("h", "p", clock=lambda: 1.0, daemon=daemon)
        logger.log(Tags.BE_LOAD_START, frame=0)
        log = EventLog(daemon)
        logger.log(Tags.BE_LOAD_END, frame=0)
        logger.log("X")
        assert len(log) == 1
        assert [e.event for e in log.events] == [Tags.BE_LOAD_START]
        assert log.load_spans() == []
        assert len(EventLog(daemon).load_spans()) == 1


identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True)
tokens = st.text(
    st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")),
    max_size=10,
).filter(lambda text: not any(ch.isspace() for ch in text))
values = st.one_of(
    st.integers(min_value=-10**12, max_value=10**12),
    st.floats(allow_nan=True, allow_infinity=True),
    tokens,
)
events = st.builds(
    NetLogEvent,
    ts=st.floats(min_value=-1e6, max_value=1e9),
    event=st.sampled_from([Tags.SVC_ADMIT, Tags.BE_LOAD_END, "X"]),
    host=identifiers,
    prog=identifiers,
    level=st.sampled_from(["Usage", "Debug"]),
    data=st.dictionaries(identifiers, values, max_size=5),
)


class TestUlmRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(events)
    def test_format_parse_format_is_stable(self, ev):
        line = format_ulm(ev)
        assert format_ulm(parse_ulm(line)) == line

    @settings(max_examples=40, deadline=None)
    @given(st.lists(events, max_size=20))
    def test_read_then_write_gives_identical_bytes(self, tmp_path_factory,
                                                   evs):
        tmp = tmp_path_factory.mktemp("ulm")
        daemon = NetLogDaemon()
        for ev in evs:
            daemon.submit(ev)
        first, second = tmp / "a.ulm", tmp / "b.ulm"
        daemon.write_ulm(str(first))
        NetLogDaemon.read_ulm(str(first)).write_ulm(str(second))
        assert second.read_bytes() == first.read_bytes()

    def test_integral_float_stays_a_float(self):
        line = (
            "DATE=1.000000 HOST=h PROG=p LVL=Usage NL.EVNT=X NBYTES=4096.000000"
        )
        ev = parse_ulm(line)
        assert ev.get("nbytes") == 4096.0
        assert isinstance(ev.get("nbytes"), float)
        assert format_ulm(ev) == line

    def test_only_canonical_numbers_parse_as_numbers(self):
        data = parse_ulm(
            "DATE=0.000000 HOST=h PROG=p LVL=Usage NL.EVNT=X "
            "A=-12 B=007 C=1e5 D=inf E=nan F=2.5 G=+3"
        ).data
        assert data["a"] == -12 and isinstance(data["a"], int)
        assert data["b"] == "007"
        assert data["c"] == "1e5"
        assert data["d"] == float("inf")
        assert data["e"] != data["e"]  # nan
        assert data["f"] == "2.5"  # format_ulm writes 2.500000
        assert data["g"] == "+3"


class TestRowStore:
    N = 10_000

    def test_a_logged_event_keeps_at_most_160_bytes(self):
        daemon = NetLogDaemon()
        logger = NetLogger(
            "shard", "session-manager", clock=lambda: 1.5, daemon=daemon
        )
        logger.log(Tags.SVC_ADMIT, session=-1, wait=0.0)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(self.N):
                logger.log(Tags.SVC_ADMIT, session=i, wait=i * 0.25)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(daemon) == self.N + 1
        assert kept / self.N <= 160

    def test_log_returns_nothing(self):
        daemon = NetLogDaemon()
        logger = NetLogger("h", "p", clock=lambda: 0.0, daemon=daemon)
        assert logger.log("A", frame=1) is None
        assert [(e.event, e.data) for e in daemon.events] == [
            ("A", {"frame": 1})
        ]

    def test_shapes_keep_fields_apart(self):
        daemon = NetLogDaemon()
        a = NetLogger("h1", "p", clock=lambda: 2.0, daemon=daemon)
        b = NetLogger("h2", "q", clock=lambda: 1.0, daemon=daemon)
        a.log("A", frame=1, rank=0)
        b.log("A", rank=5, frame=6)
        a.log("A", "Debug", frame=2, rank=1)
        b.log("B")
        assert [
            (e.ts, e.event, e.host, e.prog, e.level, e.data)
            for e in daemon.events
        ] == [
            (2.0, "A", "h1", "p", "Usage", {"frame": 1, "rank": 0}),
            (1.0, "A", "h2", "q", "Usage", {"rank": 5, "frame": 6}),
            (2.0, "A", "h1", "p", "Debug", {"frame": 2, "rank": 1}),
            (1.0, "B", "h2", "q", "Usage", {}),
        ]
        assert [e.data.get("frame") for e in daemon.sorted_events()] == [
            6, None, 1, 2,
        ]

    def test_concurrent_rows_stay_whole(self):
        # Rows of two shapes (one and two values) from more threads than
        # cores, switching as often as the interpreter allows: a row
        # whose columns interleaved with another thread's would pair a
        # host with another rank, or shift every later row's values.
        daemon = NetLogDaemon()

        def worker(i):
            logger = NetLogger(f"h{i}", "p", clock=lambda: float(i),
                               daemon=daemon)
            for n in range(500):
                if n % 2:
                    logger.log("E", rank=i, n=n)
                else:
                    logger.log("F", rank=i)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(daemon) == 3000
        for ev in daemon.events:
            assert ev.host == f"h{ev.data['rank']}"
            assert ev.ts == float(ev.data["rank"])
            assert ("n" in ev.data) == (ev.event == "E")
