"""The collector daemon: accumulates events from all components.

"Prior to running the application, a NetLogger daemon is launched on a
host accessible to all components of the distributed application ...
events are accumulated into an event log" (section 3.6). In the
simulation the daemon is a plain in-process accumulator; in the live
pipeline many threads submit concurrently, hence the lock.
"""

from __future__ import annotations

import threading
from typing import List

from repro.netlogger.events import NetLogEvent, format_ulm, parse_ulm


class NetLogDaemon:
    """Thread-safe accumulator with ULM file import/export."""

    def __init__(self):
        self._events: List[NetLogEvent] = []
        self._lock = threading.Lock()

    def submit(self, event: NetLogEvent) -> None:
        """Accept one event (called by loggers)."""
        with self._lock:
            self._events.append(event)

    @property
    def events(self) -> List[NetLogEvent]:
        """All accumulated events in arrival order."""
        with self._lock:
            return list(self._events)

    def sorted_events(self) -> List[NetLogEvent]:
        """Events ordered by timestamp (stable for ties)."""
        return sorted(self.events, key=lambda e: e.ts)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def clear(self) -> None:
        """Drop everything (between campaign runs)."""
        with self._lock:
            self._events.clear()

    # -- persistence -------------------------------------------------
    def write_ulm(self, path: str) -> int:
        """Write the event log as ULM lines; returns the event count."""
        events = self.sorted_events()
        with open(path, "w") as f:
            for ev in events:
                f.write(format_ulm(ev) + "\n")
        return len(events)

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
