"""Per-component NetLogger clients."""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from repro.netlogger.daemon import NetLogDaemon


class NetLogger:
    """Stamps events against a clock and forwards them to a daemon,
    or records them into a private one when it has none.

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
        daemon: Optional[NetLogDaemon] = None,
    ):
        self.host = host
        self.prog = prog
        self.clock = clock if clock is not None else time.monotonic
        self._sink = daemon if daemon is not None else NetLogDaemon()

    def log(self, event: str, level: str = "Usage", **data: Any) -> None:
        """Record an event now, as one row of the daemon's log.

        Returns nothing and builds no event object: readers build them
        from the rows (:attr:`NetLogDaemon.events`).
        """
        self._sink.record(
            float(self.clock()), event, self.host, self.prog, level, data
        )
