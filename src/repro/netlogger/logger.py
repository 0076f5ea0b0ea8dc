"""Per-component NetLogger clients."""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.netlogger.events import NetLogEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.netlogger.daemon import NetLogDaemon


class NetLogger:
    """Stamps events against a clock and forwards them to a daemon,
    or retains them itself when it has none.

    ``clock`` is any zero-argument callable returning seconds --
    ``env.now`` accessor for simulated components, ``time.monotonic``
    for the live pipeline. The paper's "procedural interface:
    subroutine calls to generate NetLogger events are placed inside the
    source code" maps to :meth:`log` calls in the back end and viewer.
    """

    def __init__(
        self,
        host: str,
        prog: str,
        *,
        clock: Optional[Callable[[], float]] = None,
        daemon: Optional["NetLogDaemon"] = None,
    ):
        self.host = host
        self.prog = prog
        self.clock = clock if clock is not None else time.monotonic
        self.daemon = daemon
        self._events: List[NetLogEvent] = []
        self._lock = threading.Lock()

    def log(self, event: str, level: str = "Usage", **data: Any) -> NetLogEvent:
        """Record an event now; returns the record."""
        record = NetLogEvent(
            ts=float(self.clock()),
            event=event,
            host=self.host,
            prog=self.prog,
            level=level,
            data=data,
        )
        if self.daemon is not None:
            self.daemon.submit(record)
        else:
            with self._lock:
                self._events.append(record)
        return record

    @property
    def events(self) -> List[NetLogEvent]:
        """Snapshot of locally retained events (a logger with a daemon
        retains none: the daemon holds the only copy)."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        """Drop locally retained events."""
        with self._lock:
            self._events.clear()
