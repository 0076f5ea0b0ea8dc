"""Tests for NetLogger events, loggers, the daemon, analysis and NLV."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlogger import (
    EventLog,
    NetLogDaemon,
    NetLogEvent,
    NetLogger,
    Tags,
    format_ulm,
    lifeline_plot,
    parse_ulm,
    series_plot,
)


def make_backend_log(n_frames=3, n_ranks=2, load=2.0, render=1.5):
    """Synthesise a serial-mode back end event stream."""
    events = []
    t = 0.0
    for frame in range(n_frames):
        for rank in range(n_ranks):
            events.append(NetLogEvent(t, Tags.BE_LOAD_START, f"pe{rank}",
                                      "backend", data={"frame": frame, "rank": rank}))
            events.append(NetLogEvent(t + load, Tags.BE_LOAD_END, f"pe{rank}",
                                      "backend", data={"frame": frame, "rank": rank}))
            events.append(NetLogEvent(t + load, Tags.BE_RENDER_START, f"pe{rank}",
                                      "backend", data={"frame": frame, "rank": rank}))
            events.append(NetLogEvent(t + load + render, Tags.BE_RENDER_END,
                                      f"pe{rank}", "backend",
                                      data={"frame": frame, "rank": rank}))
        t += load + render
    return EventLog(events)


class TestUlmFormat:
    def test_roundtrip(self):
        ev = NetLogEvent(
            ts=12.5,
            event=Tags.BE_LOAD_END,
            host="cplant-3",
            prog="backend",
            data={"frame": 7, "rank": 3, "nbytes": 40000000},
        )
        back = parse_ulm(format_ulm(ev))
        assert back.ts == pytest.approx(12.5)
        assert back.event == Tags.BE_LOAD_END
        assert back.host == "cplant-3"
        assert back.get("frame") == 7
        assert back.get("nbytes") == 40000000

    def test_float_data_preserved(self):
        ev = NetLogEvent(1.0, "X", "h", "p", data={"rate": 433.25})
        back = parse_ulm(format_ulm(ev))
        assert back.get("rate") == pytest.approx(433.25)

    def test_string_data_preserved(self):
        ev = NetLogEvent(1.0, "X", "h", "p", data={"axis": "y"})
        assert parse_ulm(format_ulm(ev)).get("axis") == "y"

    def test_whitespace_value_rejected(self):
        ev = NetLogEvent(1.0, "X", "h", "p", data={"bad": "a b"})
        with pytest.raises(ValueError):
            format_ulm(ev)

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_ulm("DATE=1.0 not_a_kv")
        with pytest.raises(ValueError):
            parse_ulm("HOST=h PROG=p LVL=U NL.EVNT=X")  # missing DATE

    @settings(max_examples=50, deadline=None)
    @given(
        ts=st.floats(min_value=0, max_value=1e6),
        frame=st.integers(min_value=0, max_value=10000),
        host=st.from_regex(r"[a-z][a-z0-9\-]{0,12}", fullmatch=True),
    )
    def test_roundtrip_property(self, ts, frame, host):
        ev = NetLogEvent(ts, Tags.V_FRAME_END, host, "viewer",
                         data={"frame": frame})
        back = parse_ulm(format_ulm(ev))
        assert back.ts == pytest.approx(ts, abs=1e-5)
        assert back.get("frame") == frame
        assert back.host == host


class TestLoggerDaemon:
    def test_logger_stamps_with_clock(self):
        t = [0.0]
        logger = NetLogger("h", "p", clock=lambda: t[0])
        logger.log("A")
        t[0] = 5.0
        logger.log("B")
        assert [e.ts for e in logger.events] == [0.0, 5.0]

    def test_logger_forwards_to_daemon(self):
        daemon = NetLogDaemon()
        logger = NetLogger("h", "p", clock=lambda: 1.0, daemon=daemon)
        logger.log("A", frame=1)
        assert len(daemon) == 1
        assert daemon.events[0].get("frame") == 1

    def test_daemon_attached_logger_retains_nothing(self):
        # One copy per event: the daemon's. Local retention is for
        # daemon-less loggers only.
        daemon = NetLogDaemon()
        logger = NetLogger("h", "p", clock=lambda: 1.0, daemon=daemon)
        for _ in range(3):
            logger.log("A")
        assert logger.events == []
        assert len(daemon) == 3

    def test_daemon_sorted_events(self):
        daemon = NetLogDaemon()
        daemon.submit(NetLogEvent(2.0, "B", "h", "p"))
        daemon.submit(NetLogEvent(1.0, "A", "h", "p"))
        assert [e.event for e in daemon.sorted_events()] == ["A", "B"]

    def test_daemon_concurrent_submission(self):
        daemon = NetLogDaemon()

        def worker(i):
            logger = NetLogger(f"h{i}", "p", clock=lambda: float(i),
                               daemon=daemon)
            for _ in range(100):
                logger.log("E")

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(daemon) == 400

    def test_ulm_file_roundtrip(self, tmp_path):
        daemon = NetLogDaemon()
        daemon.submit(NetLogEvent(1.0, "A", "h", "p", data={"frame": 1}))
        daemon.submit(NetLogEvent(2.0, "B", "h", "p"))
        path = str(tmp_path / "log.ulm")
        assert daemon.write_ulm(path) == 2
        loaded = NetLogDaemon.read_ulm(path)
        assert len(loaded) == 2
        assert loaded.events[0].event == "A"

    def test_clear(self):
        daemon = NetLogDaemon()
        daemon.submit(NetLogEvent(1.0, "A", "h", "p"))
        daemon.clear()
        assert len(daemon) == 0
        logger = NetLogger("h", "p", clock=lambda: 0.0)
        logger.log("A")
        logger.clear()
        assert logger.events == []


class TestAnalysis:
    def test_span_pairing(self):
        log = make_backend_log(n_frames=2, n_ranks=2, load=3.0)
        loads = log.load_spans()
        assert len(loads) == 4
        assert all(s.duration == pytest.approx(3.0) for s in loads)

    def test_unmatched_start_ignored(self):
        events = [
            NetLogEvent(0.0, Tags.BE_LOAD_START, "h", "p", data={"frame": 0}),
            NetLogEvent(1.0, Tags.BE_LOAD_START, "h", "p", data={"frame": 1}),
            NetLogEvent(2.0, Tags.BE_LOAD_END, "h", "p", data={"frame": 1}),
        ]
        spans = EventLog(events).load_spans()
        assert len(spans) == 1
        assert spans[0].frame == 1

    def test_filter(self):
        log = make_backend_log()
        only_load_end = log.filter(event=Tags.BE_LOAD_END)
        assert len(only_load_end) == 6

    def test_duration_stats(self):
        log = make_backend_log(load=2.0, render=1.0)
        stats = log.duration_stats(log.render_spans())
        assert stats["mean"] == pytest.approx(1.0)
        assert stats["std"] == pytest.approx(0.0)
        assert stats["n"] == 6
        assert log.duration_stats([])["n"] == 0

    def test_per_frame_makespan(self):
        log = make_backend_log(n_frames=2, n_ranks=3, load=2.5)
        per_frame = log.per_frame_load_times()
        assert set(per_frame) == {0, 1}
        assert per_frame[0] == pytest.approx(2.5)

    def test_throughput(self):
        log = make_backend_log(n_frames=1, n_ranks=4, load=2.0, render=0.5)
        spans = log.load_spans()
        # 4 PEs x 40 MB in 2 s aggregate.
        rate = log.throughput(spans, bytes_per_span=40e6)
        assert rate == pytest.approx(160e6 / 2.0)

    def test_elapsed(self):
        log = make_backend_log(n_frames=2, load=2.0, render=1.0)
        assert log.elapsed() == pytest.approx(6.0)
        assert EventLog([]).elapsed() == 0.0

    def test_mean_duration_empty(self):
        assert EventLog([]).duration_stats([])["mean"] == 0.0


class TestNLV:
    def test_lifeline_contains_tags_and_markers(self):
        log = make_backend_log()
        plot = lifeline_plot(log, width=90)
        assert Tags.BE_LOAD_START in plot
        assert "o" in plot  # even frames
        assert "x" in plot  # odd frames

    def test_lifeline_empty_log(self):
        assert lifeline_plot(EventLog([])) == "(empty log)"

    def test_lifeline_width_validation(self):
        with pytest.raises(ValueError):
            lifeline_plot(make_backend_log(), width=5)

    def test_series_plot_renders_points(self):
        plot = series_plot(
            {"serial": [(0, 1.0), (1, 2.0)], "overlapped": [(0, 0.8)]},
            title="L per frame",
        )
        assert "L per frame" in plot
        assert "serial" in plot and "overlapped" in plot

    def test_series_plot_empty(self):
        assert series_plot({}) == "(no data)"

    def test_series_plot_validation(self):
        with pytest.raises(ValueError):
            series_plot({"a": [(0, 0)]}, width=3)

