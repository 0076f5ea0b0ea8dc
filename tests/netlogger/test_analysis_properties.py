"""Property-based tests for NetLogger span analysis."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlogger import EventLog, NetLogEvent, Tags


@st.composite
def event_stream(draw):
    """A well-formed stream: per (rank, frame), START precedes END."""
    n_ranks = draw(st.integers(min_value=1, max_value=4))
    n_frames = draw(st.integers(min_value=1, max_value=5))
    events = []
    t = 0.0
    for frame in range(n_frames):
        for rank in range(n_ranks):
            t += draw(st.floats(min_value=0.001, max_value=2.0))
            start = t
            t += draw(st.floats(min_value=0.001, max_value=5.0))
            end = t
            events.append(
                NetLogEvent(start, Tags.BE_LOAD_START, f"pe{rank}",
                            "backend", data={"frame": frame, "rank": rank})
            )
            events.append(
                NetLogEvent(end, Tags.BE_LOAD_END, f"pe{rank}",
                            "backend", data={"frame": frame, "rank": rank})
            )
    # Shuffle arrival order; EventLog sorts by timestamp.
    draw(st.randoms(use_true_random=False)).shuffle(events)
    return events, n_ranks, n_frames


@settings(max_examples=60, deadline=None)
@given(event_stream())
def test_all_spans_recovered(stream):
    events, n_ranks, n_frames = stream
    log = EventLog(events)
    spans = log.load_spans()
    assert len(spans) == n_ranks * n_frames
    for s in spans:
        assert s.end >= s.start
        assert s.duration >= 0


@settings(max_examples=60, deadline=None)
@given(event_stream())
def test_per_frame_makespan_bounds_spans(stream):
    events, n_ranks, n_frames = stream
    log = EventLog(events)
    spans = log.load_spans()
    per_frame = log.per_frame_load_times()
    assert set(per_frame) == set(range(n_frames))
    for frame, makespan in per_frame.items():
        frame_spans = [s for s in spans if s.frame == frame]
        assert makespan >= max(s.duration for s in frame_spans) - 1e-12


@settings(max_examples=60, deadline=None)
@given(event_stream())
def test_stats_consistent(stream):
    events, _, _ = stream
    log = EventLog(events)
    spans = log.load_spans()
    stats = log.duration_stats(spans)
    assert stats["min"] <= stats["mean"] <= stats["max"]
    assert stats["n"] == len(spans)
