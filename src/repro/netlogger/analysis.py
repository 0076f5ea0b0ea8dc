"""Span extraction and summary statistics over NetLogger event logs.

This is the analysis NLV supports visually: pairing START/END events
per (host, prog, frame, rank) into spans, from which the paper's L
(load time), R (render time) and per-frame timings are read off.

An :class:`EventLog` reads the daemon's rows (DESIGN §18) and keeps no
second copy of the log: a query selects rows by their shape's tag, and
event objects are built only for the rows a caller asks for.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.netlogger.daemon import NetLogDaemon
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
    """Queryable view over a snapshot of a daemon's rows.

    ``EventLog(daemon)`` sees the rows recorded so far and none
    appended later. ``EventLog(events)`` records event objects into a
    fresh daemon of its own. Either way the log is the rows plus their
    stable timestamp order.
    """

    def __init__(self, source: Union[NetLogDaemon, Iterable[NetLogEvent]]):
        if not isinstance(source, NetLogDaemon):
            daemon = NetLogDaemon()
            for event in source:
                daemon.submit(event)
            source = daemon
        self._rows = source._rows()
        self._order = self._rows.time_order()

    def __len__(self) -> int:
        return len(self._order)

    @property
    def events(self) -> List[NetLogEvent]:
        """The events as fresh objects, in timestamp order."""
        return NetLogDaemon._build(self._rows, self._order)

    def _select(self, match: Callable[[str], bool]) -> List[int]:
        """The rows, in time order, whose tag satisfies ``match``."""
        shapes = {
            i for i, shape in enumerate(self._rows.shapes) if match(shape[0])
        }
        shape_of = self._rows.shape_of
        return [i for i in self._order if shape_of[i] in shapes]

    def filter(self, *, event: str) -> "EventLog":
        """Sub-log of the events tagged ``event``."""
        sub = copy.copy(self)
        sub._order = self._select(event.__eq__)
        return sub

    def times(self, match: Callable[[str], bool]) -> List[float]:
        """Timestamps, in order, of the events whose tag satisfies
        ``match``."""
        ts = self._rows.ts
        return [ts[i] for i in self._select(match)]

    def spans(self, start_tag: str, end_tag: str) -> List[Span]:
        """Pair start/end events by (host, prog, frame, rank).

        Unmatched events are ignored (a run cut short mid-frame leaves
        a dangling START, exactly as in real NetLogger traces). Only
        the rows of the two tags are built as objects.
        """
        open_spans: Dict[Tuple, float] = {}
        spans: List[Span] = []
        rows = self._select(lambda tag: tag in (start_tag, end_tag))
        for ev in NetLogDaemon._build(self._rows, rows):
            key = (ev.host, ev.prog, ev.get("frame"), ev.get("rank"))
            if ev.event == start_tag:
                open_spans[key] = ev.ts
            elif key in open_spans:
                spans.append(Span(open_spans.pop(key), ev.ts, *key))
        return spans

    # -- Visapult-specific conveniences ------------------------------
    def load_spans(self) -> List[Span]:
        """BE_LOAD_START..BE_LOAD_END spans (the paper's L)."""
        return self.spans(Tags.BE_LOAD_START, Tags.BE_LOAD_END)

    def render_spans(self) -> List[Span]:
        """BE_RENDER_START..BE_RENDER_END spans (the paper's R)."""
        return self.spans(Tags.BE_RENDER_START, Tags.BE_RENDER_END)

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
