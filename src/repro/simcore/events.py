"""Events: the unit of scheduling in the simulation kernel.

An :class:`Event` may *succeed* (carrying a value) or *fail* (carrying
an exception). Processes wait on events by yielding them; when the
event fires, the process resumes with the value (or the exception is
thrown into the generator).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simcore.env import Environment


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double trigger, bad yield, ...)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


_PENDING = object()


class Event:
    """A one-shot occurrence at a point in simulated time.

    Lifecycle: *pending* -> *triggered* (scheduled into the event
    queue) -> *processed* (callbacks ran). ``succeed``/``fail`` move a
    pending event to triggered.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: set True once failure has been delivered somewhere, so the
        #: kernel can complain about unhandled failures.
        self._defused = False

    # -- state predicates ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value or an exception."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None  # type: ignore[return-value]

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def _mark_processed(self) -> List[Callable[["Event"], None]]:
        callbacks, self.callbacks = self.callbacks, None  # type: ignore[assignment]
        return callbacks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending"
        )
        # vis: allow[VIS202] interactive-debugging repr; never reaches
        # logs, names or simulation state.
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay from creation time."""

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, delay=delay)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout is triggered at construction")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout is triggered at construction")


class Condition(Event):
    """Base for AnyOf/AllOf composite events.

    "Done" for a constituent means *processed* (its callbacks ran), not
    merely triggered: a Timeout is triggered at construction but only
    occurs when the clock reaches it.
    """

    def __init__(self, env: "Environment", events: Sequence[Event]):
        super().__init__(env)
        self._events = list(events)
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("events from different environments")
        self._remaining = 0
        failed: Optional[Event] = None
        for ev in self._events:
            if ev.processed:
                if not ev._ok:
                    ev._defused = True
                    failed = failed or ev
            else:
                self._remaining += 1
                ev.callbacks.append(self._check)
        if failed is not None:
            self.fail(failed._value)
        elif self._ready():
            self.succeed(self._collect())

    def _ready(self) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._ready():
            self.succeed(self._collect())

    def _collect(self) -> dict:
        return {
            ev: ev._value for ev in self._events if ev.processed and ev._ok
        }


class AnyOf(Condition):
    """Succeeds as soon as any constituent event succeeds."""

    def _ready(self) -> bool:
        return not self._events or any(
            ev.processed and ev._ok for ev in self._events
        )


class AllOf(Condition):
    """Succeeds once all constituent events have succeeded."""

    def _ready(self) -> bool:
        return self._remaining == 0
