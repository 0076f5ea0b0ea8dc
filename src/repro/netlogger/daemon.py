"""The collector daemon: accumulates events from all components.

"Prior to running the application, a NetLogger daemon is launched on a
host accessible to all components of the distributed application ...
events are accumulated into an event log" (section 3.6). In the
simulation the daemon is a plain in-process accumulator; in the live
pipeline many threads submit concurrently, hence the lock.

The log is kept as rows, not as :class:`NetLogEvent` objects: per event
a timestamp, an index into a table of event *shapes* -- one entry per
``(event, host, prog, level, data keys)``. The data values of all
events follow each other in one flat list, each event's in its shape's
key order, so an event's offset is the sum of the key counts before
it. Objects are built only when a reader asks for them
(:attr:`NetLogDaemon.events`, :meth:`NetLogDaemon.sorted_events`), and
:meth:`NetLogDaemon.write_ulm` formats straight from the rows.
"""

from __future__ import annotations

import threading
from array import array
from itertools import accumulate
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Tuple

from repro.netlogger.events import (
    NetLogEvent,
    parse_ulm,
    ulm_head,
    ulm_value,
)

#: ``(event, host, prog, level, *data keys)`` in the caller's key order
Shape = Tuple[str, ...]


class _Rows(NamedTuple):
    """A consistent view of the first ``n`` rows."""

    n: int
    ts: array
    shape_of: array
    values: List[Any]
    shapes: List[Shape]

    def offsets(self) -> array:
        """Each row's first index into ``values``."""
        arity = [len(shape) - 4 for shape in self.shapes]
        return array("Q", accumulate(
            (arity[index] for index in self.shape_of[:self.n]), initial=0
        ))

    def time_order(self) -> List[int]:
        """Row indices in stable timestamp order."""
        return sorted(range(self.n), key=self.ts.__getitem__)


class NetLogDaemon:
    """Thread-safe accumulator with ULM file import/export.

    Appends take the lock and extend all the row columns together,
    so a row count read under the lock only covers complete rows.
    Rows are never changed once appended, and :meth:`clear` swaps in
    new columns rather than emptying the old ones, so a reader indexes
    the columns it took under the lock without holding it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self._shapes: List[Shape] = []
        self._shape_ids: Dict[Shape, int] = {}
        self._ts = array("d")
        self._shape_of = array("I")
        self._values: List[Any] = []

    def record(
        self, ts: float, event: str, host: str, prog: str, level: str,
        data: Mapping[str, Any],
    ) -> None:
        """Append one event as a row (called by loggers)."""
        shape = (event, host, prog, level, *data)
        with self._lock:
            try:
                index = self._shape_ids[shape]
            except KeyError:
                index = self._shape_ids[shape] = len(self._shapes)
                self._shapes.append(shape)
            self._ts.append(ts)
            self._shape_of.append(index)
            self._values += data.values()

    def submit(self, event: NetLogEvent) -> None:
        """Accept one event object."""
        self.record(
            event.ts, event.event, event.host, event.prog, event.level,
            event.data,
        )

    def _rows(self) -> _Rows:
        with self._lock:
            return _Rows(
                len(self._ts), self._ts, self._shape_of, self._values,
                self._shapes,
            )

    @staticmethod
    def _build(rows: _Rows, order: Iterable[int]) -> List[NetLogEvent]:
        ts, shape_of, values = rows.ts, rows.shape_of, rows.values
        offsets = rows.offsets()
        split = [(*shape[:4], shape[4:]) for shape in rows.shapes]
        events = []
        for i in order:
            event, host, prog, level, keys = split[shape_of[i]]
            start = offsets[i]
            data = dict(zip(keys, values[start:start + len(keys)]))
            events.append(NetLogEvent(ts[i], event, host, prog, level, data))
        return events

    @property
    def events(self) -> List[NetLogEvent]:
        """All accumulated events in arrival order."""
        rows = self._rows()
        return self._build(rows, range(rows.n))

    def sorted_events(self) -> List[NetLogEvent]:
        """Events ordered by timestamp (stable for ties)."""
        rows = self._rows()
        return self._build(rows, rows.time_order())

    def __len__(self) -> int:
        with self._lock:
            return len(self._ts)

    def clear(self) -> None:
        """Drop everything (between campaign runs)."""
        with self._lock:
            self._reset()

    # -- persistence -------------------------------------------------
    def write_ulm(self, path: str) -> int:
        """Write the event log as ULM lines in stable timestamp order;
        returns the event count.

        Lines are formatted from the rows: each shape's fixed fields
        and sorted ``KEY=`` labels are computed once.
        """
        rows = self._rows()
        ts, shape_of, values = rows.ts, rows.shape_of, rows.values
        offsets = rows.offsets()
        plans = []
        for event, host, prog, level, *keys in rows.shapes:
            fields = sorted(
                (key, f" {key.upper()}=", i) for i, key in enumerate(keys)
            )
            plans.append((" " + ulm_head(event, host, prog, level), fields))
        with open(path, "w") as f:
            for i in rows.time_order():
                head, fields = plans[shape_of[i]]
                start = offsets[i]
                f.write(
                    f"DATE={ts[i]:.6f}{head}"
                    + "".join(
                        label + ulm_value(key, values[start + j])
                        for key, label, j in fields
                    )
                    + "\n"
                )
        return rows.n

    @classmethod
    def read_ulm(cls, path: str) -> "NetLogDaemon":
        """Load an event log from a ULM file."""
        daemon = cls()
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    daemon.submit(parse_ulm(line))
        return daemon
