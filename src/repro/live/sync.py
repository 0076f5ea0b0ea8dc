"""The live pipeline's thread primitives.

The paper's back end runs "using MPI as the multiprocessing and IPC
framework", with a detached pthread reader per PE behind a pair of
SysV semaphores and a double-buffered shared block (Appendix B); its
viewer needs "a small amount of scene graph access control with
semaphores" (section 3.4). The live pipeline needs no more than that:

- :func:`run_spmd` -- one thread per rank, sharing one barrier;
- :class:`SemaphorePair` and :class:`DoubleBuffer` -- Appendix B's
  reader/render handshake and even/odd frame buffer;
- :class:`SceneLock` -- the viewer's scene-graph access control.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Callable, List, Optional


def run_spmd(
    size: int,
    fn: Callable[[threading.Barrier, int], Any],
    *,
    timeout: Optional[float] = 60.0,
) -> List[Any]:
    """Run ``fn(barrier, rank)`` on ``size`` threads; return rank results.

    Every rank gets the same :class:`threading.Barrier`. A rank's
    exception aborts it, so peers waiting there fail instead of
    hanging, and the first exception is re-raised in the caller after
    all threads have been joined.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    barrier = threading.Barrier(size)
    results: List[Any] = [None] * size
    errors: List[BaseException] = []

    def wrapper(rank: int) -> None:
        try:
            results[rank] = fn(barrier, rank)
        except BaseException as exc:  # noqa: BLE001 - reraised below
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=wrapper, args=(r,), name=f"rank-{r}")
        for r in range(size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
    alive = [t.name for t in threads if t.is_alive()]
    if errors:
        raise errors[0]
    if alive:
        raise TimeoutError(f"ranks did not finish: {alive}")
    return results


class SemaphorePair:
    """The two SysV semaphores of Appendix B.

    Semaphore A is "an execution barrier from the perspective of the
    reader thread"; semaphore B the same for the render process. The
    render process posts A to hand the reader a command and waits on B
    for completion; the reader waits on A and posts B.
    """

    def __init__(self):
        self._a = threading.Semaphore(0)
        self._b = threading.Semaphore(0)
        #: shared control word: which timestep to read, or EXIT
        self.command: Optional[int] = None

    EXIT = -1

    # -- render-process side ----------------------------------------------
    def request(self, timestep: int) -> None:
        """Ask the reader to load ``timestep`` (sem_post A)."""
        if timestep < 0:
            raise ValueError(f"timestep must be >= 0, got {timestep}")
        self.command = timestep
        self._a.release()

    def request_exit(self) -> None:
        """Ask the reader to terminate."""
        self.command = self.EXIT
        self._a.release()

    def wait_data(self, timeout: Optional[float] = None) -> bool:
        """Wait until the reader posts completion (sem_wait B)."""
        return self._b.acquire(timeout=timeout)

    # -- reader-thread side ---------------------------------------------------
    def wait_command(self, timeout: Optional[float] = None) -> Optional[int]:
        """Wait for a command (sem_wait A); None on timeout."""
        if not self._a.acquire(timeout=timeout):
            return None
        return self.command

    def post_data(self) -> None:
        """Signal that the requested data is resident (sem_post B)."""
        self._b.release()


class DoubleBuffer:
    """The even/odd shared memory block of Appendix B.

    "This memory is considered to be double-buffered: its size is
    twice that of a single time step's worth of data, and the reader
    thread will use one half of the buffer for writing into, while the
    render process reads from the other half. Access control is
    implicit as a function of the time step using an even-odd
    decomposition."
    """

    def __init__(self):
        self._slots: list = [None, None]
        self._stamped: list = [None, None]

    def write(self, timestep: int, data: Any) -> None:
        """Reader side: deposit a timestep's data in its parity slot."""
        if timestep < 0:
            raise ValueError(f"timestep must be >= 0, got {timestep}")
        slot = timestep % 2
        self._slots[slot] = data
        self._stamped[slot] = timestep

    def read(self, timestep: int) -> Any:
        """Render side: fetch a timestep's data from its parity slot.

        Raises if the slot holds a different timestep -- that would
        mean the semaphore protocol was violated and the reader
        overwrote data still being rendered.
        """
        if timestep < 0:
            raise ValueError(f"timestep must be >= 0, got {timestep}")
        slot = timestep % 2
        if self._stamped[slot] != timestep:
            raise RuntimeError(
                f"double-buffer violation: slot {slot} holds timestep "
                f"{self._stamped[slot]!r}, wanted {timestep}"
            )
        return self._slots[slot]


class SceneLock:
    """A mutex plus a monotonically increasing update counter.

    I/O service threads take it to swap textures into the scene graph;
    the render thread takes it to draw a frame, and sleeps on the
    counter between updates instead of redrawing an unchanged scene.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self._version = 0

    @property
    def version(self) -> int:
        """Number of updates committed so far."""
        with self._lock:
            return self._version

    @contextmanager
    def update(self):
        """Context for mutating the scene; bumps the version on exit."""
        with self._lock:
            yield
            self._version += 1
            self._changed.notify_all()

    @contextmanager
    def read(self):
        """Context for reading the scene consistently."""
        with self._lock:
            yield self._version

    def wait_for_change(
        self, last_seen: int, timeout: Optional[float] = None
    ) -> int:
        """Block until the version exceeds ``last_seen``; returns it."""
        with self._lock:
            self._changed.wait_for(
                lambda: self._version > last_seen, timeout=timeout
            )
            return self._version
