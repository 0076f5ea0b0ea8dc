"""Synchronisation primitives for simulated processes.

:class:`SimSemaphore` mirrors the SysV counting semaphores the paper
uses for the reader-thread/render-process handshake (Appendix B),
:class:`BoundedBuffer` is that handshake's double buffer, and
:class:`SimBarrier` mirrors the MPI barrier at the end of each back-end
frame.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, List

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


class BoundedBuffer:
    """Appendix B's double buffer, generalised to depth *k*.

    A producer reserves a slot (:meth:`reserve`) *before* it starts
    producing -- the paper's "reader may proceed" semaphore A -- and
    commits the finished item (:meth:`commit`, "data ready", semaphore
    B). A slot is recycled the moment :meth:`get` hands an item to the
    consumer, so ``depth - 1`` production credits circulate: at depth
    2 the producer may work on item N+1 while the consumer holds item
    N, and its request for item N+2 cannot be granted before the
    consumer takes item N+1.
    """

    def __init__(self, env: "Environment", depth: int, *, name: str):
        if depth < 2:
            raise ValueError(f"a bounded buffer needs depth >= 2, got {depth}")
        self.env = env
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        # opaque: the buffer carries its own sanitizer hooks, so the
        # embedded credit semaphore must not double-report.
        self._credits = SimSemaphore(
            env, depth - 1, name=f"{name}.credits", opaque=True
        )

    def reserve(self) -> Event:
        """Event granting one production slot (Appendix B semaphore A)."""
        ev = self._credits.wait()
        san = self.env.sanitizer
        if san is not None:
            proc = self.env.active_process
            san.on_producer(self, proc)
            if ev.triggered:
                san.on_reserve_granted(self, proc)
            else:
                san.on_block("reserve", self, ev, proc)
                ev.callbacks.append(
                    lambda _e: san.on_reserve_granted(self, proc)
                )
        return ev

    def commit(self, item: Any) -> None:
        """Deposit an item produced under a reserved slot (semaphore B)."""
        san = self.env.sanitizer
        if san is not None:
            san.on_commit(self, self.env.active_process)
        if self._getters:
            self._getters.popleft().succeed(item)
            self._credits.post()
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event carrying the next item."""
        san = self.env.sanitizer
        if san is not None:
            san.on_get(self, self.env.active_process)
        ev = Event(self.env)
        if self._items:
            ev.succeed(self._items.popleft())
            self._credits.post()
        else:
            self._getters.append(ev)
            if san is not None:
                san.on_block("get", self, ev)
        return ev
