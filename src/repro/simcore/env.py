"""The simulation environment: clock, event queue, run loop."""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.simcore.events import (
    AllOf,
    AnyOf,
    Event,
    SimulationError,
    Timeout,
)
from repro.simcore.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.sanitizer import SimSanitizer


class EmptySchedule(Exception):
    """Internal: the event queue ran dry."""


class Environment:
    """Holds the simulated clock and drives event processing.

    Typical use::

        env = Environment()

        def worker(env):
            yield env.timeout(1.0)
            return "done"

        proc = env.process(worker(env))
        env.run()
        assert env.now == 1.0 and proc.value == "done"
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._counter = count()
        #: :meth:`at_instant_end` callbacks pending at ``now``, in order
        self._instant_end: Deque[Callable[[], None]] = deque()
        self._active_process: Optional[Process] = None
        self._unhandled: List[Tuple[Process, BaseException]] = []
        #: opt-in concurrency sanitizer (:mod:`repro.analysis`); the
        #: primitives consult this slot at each hook point, so ``None``
        #: keeps instrumentation at a single attribute test.
        self.sanitizer: Optional["SimSanitizer"] = None

    # -- clock ----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event factories --------------------------------------------------
    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float) -> Event:
        """An event firing at absolute time ``when``, exactly.

        ``timeout(when - now)`` fires at ``now + (when - now)``, which
        can round one ulp away from ``when``; a caller that accumulated
        ``when`` itself (a fixed-period lattice) schedules it here.
        """
        if when < self._now:
            raise ValueError(f"when={when!r} is in the past (now={self._now!r})")
        event = Event(self)
        event._ok = True
        event._value = None
        heapq.heappush(self._queue, (when, 1, next(self._counter), event))
        return event

    def at_instant_end(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once every other event at ``now`` has run.

        It runs after every event due at the current instant --
        including ones scheduled after this call -- and before time
        advances. Callbacks run in the order they were registered; a
        callback that calls this again is served later in the same
        instant. A component that collects several changes per instant
        settles them here in one pass.
        """
        self._instant_end.append(callback)

    def process(self, generator: Generator) -> Process:
        """Register ``generator`` as a new process starting now."""
        return Process(self, generator)

    def any_of(self, events: Sequence[Event]) -> AnyOf:
        """Event that fires when any of ``events`` succeeds."""
        return AnyOf(self, events)

    def all_of(self, events: Sequence[Event]) -> AllOf:
        """Event that fires when all of ``events`` have succeeded."""
        return AllOf(self, events)

    # -- scheduling (kernel API) -------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        heapq.heappush(
            self._queue, (self._now + delay, priority, next(self._counter), event)
        )

    def _crashed(self, process: Process, exc: BaseException) -> None:
        self._unhandled.append((process, exc))

    # -- run loop ----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._instant_end:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event (or one instant-end callback)."""
        queue = self._queue
        if self._instant_end and (not queue or queue[0][0] > self._now):
            self._instant_end.popleft()()
            return
        if not queue:
            raise EmptySchedule()
        when, _prio, _cnt, event = heapq.heappop(queue)
        if when < self._now - 1e-12:
            raise SimulationError("event scheduled in the past")
        self._now = max(self._now, when)
        callbacks = event._mark_processed()
        for cb in callbacks:
            cb(event)
        if self._unhandled:
            process, exc = self._unhandled.pop(0)
            dropped = tuple(self._unhandled)
            self._unhandled.clear()
            # Concurrent crashes in the same step must not vanish: attach
            # the ones we cannot raise to the one we do.
            exc.sim_concurrent_crashes = dropped  # type: ignore[attr-defined]
            add_note = getattr(exc, "add_note", None)  # Python >= 3.11
            if add_note is not None:
                for proc, other in dropped:
                    add_note(
                        f"concurrent unhandled crash in {proc!r}: {other!r}"
                    )
            raise exc
        if event._ok is False and not event._defused:
            raise event._value

    def run(self, until: Optional[Any] = None) -> Any:
        """Run until the queue is empty, a time, or an event fires.

        ``until`` may be ``None`` (exhaust all events), a number
        (simulated time to stop at), or an :class:`Event` (stop when it
        fires; its value is returned).
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event.value
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(
                    f"until={stop_time} is in the past (now={self._now})"
                )

        while True:
            if stop_event is not None and stop_event.processed:
                if not stop_event._ok:
                    stop_event._defused = True
                    raise stop_event._value
                return stop_event.value
            if not self._queue and not self._instant_end:
                if self.sanitizer is not None:
                    self.sanitizer.on_exhausted()
                if stop_event is not None:
                    raise SimulationError(
                        "run(until=event): queue exhausted before event fired"
                    )
                if stop_time is not None:
                    self._now = stop_time
                return None
            if stop_time is not None and self.peek() > stop_time:
                self._now = stop_time
                return None
            try:
                self.step()
            except EmptySchedule:  # pragma: no cover - guarded above
                return None
