"""Processes: generator-driven activities in simulated time.

A process wraps a generator that yields :class:`~repro.simcore.events.Event`
objects. Each time a yielded event fires, the kernel resumes the
generator with the event's value (or throws the failure exception).
The process itself is an event that triggers when the generator
returns (value = return value) or raises (failure).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.simcore.events import Event, Interrupt, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.env import Environment


class Process(Event):
    """A running generator; also an event for its own completion."""

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        # Kick-start: resume the generator at the next event-queue step.
        init = Event(env)
        init.callbacks.append(self._resume)
        init._ok = True
        init._value = None
        env._schedule(init)
        self._init = init

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process stops waiting on its current target (which remains
        scheduled; its firing is simply ignored by this process) and
        resumes with the exception. A process that has not started yet
        first runs to its first yield, so the exception lands inside its
        body, where its own ``try``/``finally`` sees it (a generator
        thrown into before its first step fails without running any of
        it); if it finishes in that step, the interrupt is dropped.
        """
        if self.triggered:
            raise SimulationError("cannot interrupt a terminated process")
        if self._init.callbacks is not None:
            def after_start(_ev: Event) -> None:
                if not self.triggered:
                    self.interrupt(cause)

            self._init.callbacks.append(after_start)
            return
        interrupt_ev = Event(self.env)
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev._defused = True
        interrupt_ev.callbacks.append(self._resume)
        self.env._schedule(interrupt_ev, priority=0)
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._target = None

    # -- kernel side ---------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self.env._active_process = self
        self._target = None
        try:
            if event._ok:
                next_ev = self._generator.send(event._value)
            else:
                event._defused = True
                next_ev = self._generator.throw(event._value)
        except StopIteration as exc:
            self.env._active_process = None
            self.succeed(getattr(exc, "value", None))
            return
        except BaseException as exc:
            self.env._active_process = None
            self._ok = False
            self._value = exc
            if not self.callbacks:
                # Nobody is waiting on this process: surface the crash
                # now, once -- the queued event must not re-raise it on
                # a later run().
                self.env._crashed(self, exc)
                self._defused = True
            self.env._schedule(self)
            return
        self.env._active_process = None
        if not isinstance(next_ev, Event):
            raise SimulationError(
                f"process yielded non-event {next_ev!r}; yield Event objects"
            )
        if next_ev.env is not self.env:
            raise SimulationError("yielded event from a different environment")
        if next_ev.processed or (next_ev.triggered and next_ev.callbacks is None):
            # Already done: schedule immediate resumption.
            relay = Event(self.env)
            relay._ok = next_ev._ok
            relay._value = next_ev._value
            if not next_ev._ok:
                next_ev._defused = True
            relay.callbacks.append(self._resume)
            self.env._schedule(relay)
            self._target = relay
        else:
            next_ev.callbacks.append(self._resume)
            self._target = next_ev
