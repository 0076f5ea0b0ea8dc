"""Synchronisation primitives for simulated processes.

:class:`SimSemaphore` mirrors the SysV counting semaphores the paper
uses for the reader-thread/render-process handshake (Appendix B), and
:class:`SimBarrier` mirrors the MPI barrier at the end of each back-end
frame.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List

from repro.simcore.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.env import Environment


class SimSemaphore:
    """Counting semaphore with FIFO wakeups.

    ``wait()`` returns an event that fires once a unit is available;
    ``post()`` adds a unit, waking the oldest waiter if any.
    """

    def __init__(
        self,
        env: "Environment",
        value: int = 0,
        *,
        name: str = "sem",
        opaque: bool = False,
    ):
        if value < 0:
            raise ValueError(f"initial value must be >= 0, got {value}")
        self.env = env
        self.name = name
        #: opaque semaphores are internal to a higher-level primitive
        #: that carries its own instrumentation (e.g. the credit
        #: semaphore inside a BoundedBuffer); the sanitizer skips them.
        self.opaque = opaque
        self._value = value
        self._waiters: Deque[Event] = deque()

    @property
    def value(self) -> int:
        """Current semaphore count."""
        return self._value

    def wait(self) -> Event:
        """Event firing when a unit has been acquired (sem_wait)."""
        ev = Event(self.env)
        if self._value > 0 and not self._waiters:
            self._value -= 1
            ev.succeed()
        else:
            self._waiters.append(ev)
            san = self.env.sanitizer
            if san is not None and not self.opaque:
                san.on_block("sem", self, ev)
        return ev

    def try_acquire(self) -> bool:
        """Take a unit immediately if one is free (sem_trywait)."""
        if self._value > 0 and not self._waiters:
            self._value -= 1
            return True
        return False

    def post(self) -> None:
        """Release one unit (sem_post)."""
        san = self.env.sanitizer
        if san is not None and not self.opaque:
            san.on_sem_post(self)
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._value += 1


class SimBarrier:
    """A reusable barrier for ``parties`` processes.

    Each arrival calls :meth:`wait`; the returned event fires for all
    once the last party arrives, then the barrier resets.
    """

    def __init__(self, env: "Environment", parties: int):
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        self.env = env
        self.parties = parties
        self.name = "barrier"
        self._waiting: List[Event] = []
        self._generation = 0

    def wait(self) -> Event:
        """Event firing when all ``parties`` have arrived this round."""
        ev = Event(self.env)
        self._waiting.append(ev)
        san = self.env.sanitizer
        if san is not None:
            san.on_barrier_party(self)
        if len(self._waiting) == self.parties:
            waiters, self._waiting = self._waiting, []
            self._generation += 1
            gen = self._generation
            for w in waiters:
                w.succeed(gen)
        else:
            if san is not None:
                san.on_block("barrier", self, ev)
        return ev
