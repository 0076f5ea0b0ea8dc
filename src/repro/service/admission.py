"""Admission control for the multi-viewer serving layer.

One deterministic gate: at most ``max_sessions`` sessions hold
back-end pipelines at once; arrivals beyond capacity wait in a FIFO
queue of depth ``queue_depth`` or are rejected outright.

The gate is :class:`SlotQueue`, so both the single-site
:class:`~repro.service.manager.SessionManager` and the multi-site
shard layer share one FIFO discipline, and the sharded layer adds
:class:`AdmissionVerdict` -- the Icarus computation-spot outcome
vocabulary (per-site capacity check, queue, spill to a remote site,
or reject).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Optional

from repro.util.validation import check_non_negative

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.env import Environment
    from repro.simcore.events import Event


class AdmissionVerdict:
    """Per-site admission outcomes (the Icarus verdict vocabulary).

    ``LOCAL`` -- a slot is free at the home site; ``SPILL`` -- home is
    saturated, a remote site serves instead; ``QUEUED`` -- no slot
    anywhere allowed, the arrival waits in the home site's FIFO;
    ``REJECTED`` -- capacity and queue are both exhausted.
    """

    LOCAL = "local"
    SPILL = "spill"
    QUEUED = "queued"
    REJECTED = "rejected"

    ALL = (LOCAL, SPILL, QUEUED, REJECTED)


class SlotQueue:
    """FIFO admission slots with O(1) deterministic handoff.

    ``acquire`` either takes a slot immediately (returns ``None``), or
    returns an :class:`~repro.simcore.events.Event` the caller must
    wait on, or raises :class:`QueueFull`. ``release`` hands the freed
    slot *directly* to the oldest waiter -- one ``popleft`` on a
    deque, never a scan or re-sort -- so a 10k-deep queue drains in
    strict arrival order at constant per-release cost, and the active
    count is untouched while anyone is waiting.
    """

    def __init__(
        self,
        env: "Environment",
        max_slots: Optional[int] = None,
        queue_depth: int = 0,
    ):
        if max_slots is not None and max_slots < 0:
            raise ValueError(f"max_slots must be >= 0, got {max_slots}")
        check_non_negative("queue_depth", queue_depth)
        self.env = env
        self.max_slots = max_slots
        self.queue_depth = queue_depth
        self.active = 0
        self._waiting: Deque["Event"] = deque()

    @property
    def depth(self) -> int:
        """Arrivals currently waiting for a slot."""
        return len(self._waiting)

    @property
    def has_slot(self) -> bool:
        """True when an arrival would be admitted immediately."""
        return self.max_slots is None or self.active < self.max_slots

    @property
    def can_queue(self) -> bool:
        """True when an arrival at capacity could wait for a slot."""
        return (
            self.max_slots is not None
            and self.max_slots > 0
            and len(self._waiting) < self.queue_depth
        )

    def acquire(self) -> Optional["Event"]:
        """Take a slot now (``None``) or join the FIFO (an event).

        Raises :class:`QueueFull` when neither is possible. The
        returned event fires when a released slot reaches this waiter;
        the slot is already held at that point -- do not acquire again.
        """
        from repro.simcore.events import Event

        if self.has_slot:
            self.active += 1
            return None
        if not self.can_queue:
            raise QueueFull(
                f"no slot free and the wait queue is full "
                f"(depth {len(self._waiting)})"
            )
        slot = Event(self.env)
        self._waiting.append(slot)
        return slot

    def release(self) -> None:
        """Free a slot; the oldest waiter inherits it in O(1)."""
        if self._waiting:
            self._waiting.popleft().succeed(None)
        else:
            self.active -= 1


class QueueFull(Exception):
    """Raised by :meth:`SlotQueue.acquire` when admission must reject."""


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs for the session-slot gate; defaults admit everyone."""

    #: concurrent session limit; ``None`` = unlimited, 0 = reject all
    max_sessions: Optional[int] = None
    #: arrivals allowed to wait for a slot when at capacity
    queue_depth: int = 0

    def __post_init__(self):
        if self.max_sessions is not None and self.max_sessions < 0:
            raise ValueError(
                f"max_sessions must be >= 0, got {self.max_sessions}"
            )
        check_non_negative("queue_depth", self.queue_depth)

    def with_changes(self, **changes: Any) -> "AdmissionPolicy":
        """A copy with the given fields replaced."""
        return replace(self, **changes)
