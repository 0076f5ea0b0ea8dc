"""Span extraction and summary statistics over NetLogger event logs.

This is the analysis NLV supports visually: pairing START/END events
per (host, prog, frame, rank) into spans, from which the paper's L
(load time), R (render time) and per-frame timings are read off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlogger.events import NetLogEvent, Tags


@dataclass(frozen=True)
class Span:
    """A matched START..END interval."""

    start: float
    end: float
    host: str
    prog: str
    frame: Optional[int]
    rank: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class EventLog:
    """Queryable view over a list of NetLogger events."""

    def __init__(self, events: Iterable[NetLogEvent]):
        self.events = sorted(events, key=lambda e: e.ts)

    def __len__(self) -> int:
        return len(self.events)

    def filter(
        self,
        *,
        event: Optional[str] = None,
        prog: Optional[str] = None,
        host: Optional[str] = None,
        predicate: Optional[Callable[[NetLogEvent], bool]] = None,
    ) -> "EventLog":
        """Sub-log matching the given criteria."""
        out = []
        for ev in self.events:
            if event is not None and ev.event != event:
                continue
            if prog is not None and ev.prog != prog:
                continue
            if host is not None and ev.host != host:
                continue
            if predicate is not None and not predicate(ev):
                continue
            out.append(ev)
        return EventLog(out)

    def spans(self, start_tag: str, end_tag: str) -> List[Span]:
        """Pair start/end events by (host, prog, frame, rank).

        Unmatched events are ignored (a run cut short mid-frame leaves
        a dangling START, exactly as in real NetLogger traces).
        """
        open_spans: Dict[Tuple, NetLogEvent] = {}
        spans: List[Span] = []
        for ev in self.events:
            tag = ev.event
            if tag != start_tag and tag != end_tag:
                continue
            key = (ev.host, ev.prog, ev.get("frame"), ev.get("rank"))
            if tag == start_tag:
                open_spans[key] = ev
            elif key in open_spans:
                start_ev = open_spans.pop(key)
                spans.append(
                    Span(
                        start=start_ev.ts,
                        end=ev.ts,
                        host=ev.host,
                        prog=ev.prog,
                        frame=ev.get("frame"),
                        rank=ev.get("rank"),
                    )
                )
        return spans

    # -- Visapult-specific conveniences ------------------------------
    def load_spans(self) -> List[Span]:
        """BE_LOAD_START..BE_LOAD_END spans (the paper's L)."""
        return self.spans(Tags.BE_LOAD_START, Tags.BE_LOAD_END)

    def render_spans(self) -> List[Span]:
        """BE_RENDER_START..BE_RENDER_END spans (the paper's R)."""
        return self.spans(Tags.BE_RENDER_START, Tags.BE_RENDER_END)

    def frame_spans(self, *, viewer: bool = False) -> List[Span]:
        """Whole-frame spans for the back end or the viewer."""
        if viewer:
            return self.spans(Tags.V_FRAME_START, Tags.V_FRAME_END)
        return self.spans(Tags.BE_FRAME_START, Tags.BE_FRAME_END)

    def mean_duration(self, spans: Sequence[Span]) -> float:
        """Mean span duration (0 if empty)."""
        if not spans:
            return 0.0
        return float(np.mean([s.duration for s in spans]))

    def duration_stats(self, spans: Sequence[Span]) -> Dict[str, float]:
        """mean/std/min/max over span durations."""
        if not spans:
            return {"mean": 0.0, "std": 0.0, "min": 0.0, "max": 0.0, "n": 0}
        d = np.array([s.duration for s in spans])
        return {
            "mean": float(d.mean()),
            "std": float(d.std()),
            "min": float(d.min()),
            "max": float(d.max()),
            "n": len(d),
        }

    def per_frame_load_times(self) -> Dict[int, float]:
        """Frame -> makespan of loading across PEs.

        The time a frame's data took to arrive is the span from the
        first PE starting its read to the last PE finishing.
        """
        return self.per_frame_makespan(self.load_spans())

    @staticmethod
    def per_frame_makespan(spans: Sequence[Span]) -> Dict[int, float]:
        """Frame -> first start to last end over the spans of a frame."""
        frames: Dict[int, List[Span]] = {}
        for s in spans:
            if s.frame is None:
                continue
            frames.setdefault(s.frame, []).append(s)
        return {
            f: max(s.end for s in ss) - min(s.start for s in ss)
            for f, ss in frames.items()
        }

    def elapsed(self) -> float:
        """Total wall span of the log."""
        if not self.events:
            return 0.0
        return self.events[-1].ts - self.events[0].ts

    def throughput(
        self, spans: Sequence[Span], bytes_per_span: float
    ) -> float:
        """Aggregate bytes/second across spans of equal payload."""
        if not spans:
            return 0.0
        total = bytes_per_span * len(spans)
        start = min(s.start for s in spans)
        end = max(s.end for s in spans)
        return total / (end - start) if end > start else float("inf")
