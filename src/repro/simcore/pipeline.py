"""Staged-pipeline framework: bounded buffers wiring sim processes.

The paper's overlapped producer/consumer pattern -- Appendix B's
reader/render semaphore handshake over a double buffer -- appears in
three places (back end PE loop, DPSS client fan-out, viewer receive
threads). This module extracts it once:

:class:`BoundedBuffer`
    Generalises Appendix B's double buffer to depth *k*. A producer
    *reserves* a slot before starting to produce (the paper's
    "reader may proceed" semaphore A) and *commits* the finished item
    ("data ready" semaphore B). Two slot-release disciplines exist:

    ``"on_get"``
        A slot is recycled the moment a consumer takes an item. With
        the reserve-before-produce protocol this is exactly the
        Appendix B handshake: at depth 2 the producer may work on
        frame N+1 while the consumer holds frame N, and the request
        for frame N+2 cannot be granted before the consumer takes
        frame N+1. ``depth - 1`` production credits circulate.

    ``"on_done"``
        A slot is recycled only when the consumer calls
        :meth:`BoundedBuffer.task_done`. At depth 1 this is a strict
        rendezvous -- the upstream stage cannot start its next item
        until the downstream stage has *finished* the previous one --
        which is how the in-line ``render; send`` sequence of the
        Appendix B loop is expressed as two stages.

    Shutdown is sentinel-based: :meth:`BoundedBuffer.close` drains the
    buffer, then every pending and future ``get`` resolves to
    :data:`SHUTDOWN`.

:class:`Stage`
    A sim process consuming from an inbound buffer (or iterating a
    ``source``) and producing to an outbound one, with per-stage
    accounting of busy time, inbound-wait (starvation) and
    outbound-stall (backpressure) time.

:class:`Pipeline`
    Wires stages and buffers, runs them, auto-closes each buffer once
    all stages feeding it have finished, propagates failures by
    interrupting the surviving stages, and reports per-stage
    occupancy/stall/throughput through NetLogger ``PIPE_*`` events.
"""

from __future__ import annotations

import inspect
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
)

from repro.simcore.events import Event
from repro.simcore.sync import SimSemaphore

if TYPE_CHECKING:  # pragma: no cover
    from repro.netlogger.logger import NetLogger
    from repro.simcore.env import Environment
    from repro.simcore.process import Process


class _Sentinel:
    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self._name


#: Delivered by :meth:`BoundedBuffer.get` once the buffer is closed
#: and drained (Appendix B's EXIT command).
SHUTDOWN = _Sentinel("SHUTDOWN")

#: Returned by stage work to consume an item without emitting one.
DROP = _Sentinel("DROP")


class BufferClosed(RuntimeError):
    """Produce operation on a closed :class:`BoundedBuffer`."""


@dataclass
class BufferStats:
    """Occupancy accounting for one buffer."""

    puts: int = 0
    gets: int = 0
    peak_occupancy: int = 0
    #: time-integral of committed-but-unconsumed items
    occupancy_area: float = 0.0
    #: total producer time spent waiting for a slot
    reserve_wait: float = 0.0
    #: total consumer time spent waiting for an item
    get_wait: float = 0.0

    def mean_occupancy(self, elapsed: float) -> float:
        """Average number of buffered items over ``elapsed`` seconds."""
        return self.occupancy_area / elapsed if elapsed > 0 else 0.0


class BoundedBuffer:
    """A depth-*k* hand-off buffer with Appendix-B credit semantics.

    ``depth=None`` gives an unbounded buffer (reserve never blocks);
    bounded ``"on_get"`` buffers need ``depth >= 2`` (the double buffer
    is the smallest instance), bounded ``"on_done"`` buffers need
    ``depth >= 1``.
    """

    def __init__(
        self,
        env: "Environment",
        depth: Optional[int] = 2,
        *,
        name: str = "buffer",
        release: str = "on_get",
    ):
        if release not in ("on_get", "on_done"):
            raise ValueError(f"unknown release discipline {release!r}")
        if depth is not None:
            if release == "on_get" and depth < 2:
                raise ValueError(
                    f"on_get buffers need depth >= 2, got {depth}"
                )
            if release == "on_done" and depth < 1:
                raise ValueError(
                    f"on_done buffers need depth >= 1, got {depth}"
                )
        self.env = env
        self.depth = depth
        self.name = name
        self.release = release
        self.stats = BufferStats()
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._closed = False
        self._producers = 0
        self._pending_puts: List[Event] = []
        self._occ_mark = env.now
        if depth is None:
            self._credits: Optional[SimSemaphore] = None
        else:
            initial = depth - 1 if release == "on_get" else depth
            # opaque: the buffer carries its own sanitizer hooks, so
            # the embedded credit semaphore must not double-report.
            self._credits = SimSemaphore(
                env, initial, name=f"{name}.credits", opaque=True
            )

    # -- state --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    def _account_occupancy(self) -> None:
        now = self.env.now
        self.stats.occupancy_area += len(self._items) * (now - self._occ_mark)
        self._occ_mark = now

    # -- producer side ------------------------------------------------
    def reserve(self) -> Event:
        """Event granting one production slot (Appendix B semaphore A)."""
        if self._closed:
            raise BufferClosed(f"reserve on closed buffer {self.name!r}")
        san = self.env.sanitizer
        proc = self.env.active_process if san is not None else None
        if san is not None:
            san.on_producer(self, proc)
        if self._credits is None:
            ev = Event(self.env)
            ev.succeed()
            return ev
        t0 = self.env.now
        ev = self._credits.wait()
        if san is not None:
            if ev.triggered:
                san.on_reserve_granted(self, proc)
            else:
                san.on_block("reserve", self, ev, proc)
                ev.callbacks.append(
                    lambda _e: san.on_reserve_granted(self, proc)
                )
        ev.callbacks.append(
            lambda _e: self._note_reserve_wait(self.env.now - t0)
        )
        return ev

    def _note_reserve_wait(self, waited: float) -> None:
        self.stats.reserve_wait += waited

    def commit(self, item: Any) -> None:
        """Deposit an item produced under a reserved slot (semaphore B)."""
        san = self.env.sanitizer
        proc = self.env.active_process if san is not None else None
        self._commit_checked(item, proc)

    def _commit_checked(self, item: Any, proc: Optional["Process"]) -> None:
        """Commit with the producing process pinned by the caller.

        ``put()`` completes blocked deposits from an event callback,
        where ``active_process`` is no longer the producer; it threads
        the process it captured at call time through here instead.
        """
        if self._closed:
            raise BufferClosed(f"commit on closed buffer {self.name!r}")
        san = self.env.sanitizer
        if san is not None:
            san.on_commit(self, proc)
        self.stats.puts += 1
        if self._getters:
            self._getters.popleft().succeed(item)
            self._on_deliver()
        else:
            self._account_occupancy()
            self._items.append(item)
            self.stats.peak_occupancy = max(
                self.stats.peak_occupancy, len(self._items)
            )
        return None

    def put(self, item: Any) -> Event:
        """Reserve-then-commit; fires once the item is deposited.

        If a slot is free the deposit happens immediately; a put left
        blocked when the buffer closes fails with :class:`BufferClosed`
        (pre-defused, so an unobserved failure cannot crash the run).
        """
        done = Event(self.env)
        if self._closed:
            done.fail(BufferClosed(f"put on closed buffer {self.name!r}"))
            done._defused = True
            return done
        san = self.env.sanitizer
        proc = self.env.active_process if san is not None else None
        if san is not None:
            san.on_producer(self, proc)
        if self._credits is None or self._credits.try_acquire():
            if san is not None and self._credits is not None:
                san.on_reserve_granted(self, proc)
            self._commit_checked(item, proc)
            done.succeed(item)
            return done
        t0 = self.env.now
        grant = self._credits.wait()
        self._pending_puts.append(done)
        if san is not None:
            # The producer yields `done`, not the credit grant, so the
            # wait record must point at `done` for liveness tracking.
            san.on_block("reserve", self, done, proc)

        def _commit(_ev: Event) -> None:
            self.stats.reserve_wait += self.env.now - t0
            if done in self._pending_puts:
                self._pending_puts.remove(done)
            if done.triggered:  # failed by close() while blocked
                return
            inner_san = self.env.sanitizer
            if inner_san is not None:
                inner_san.on_reserve_granted(self, proc)
            self._commit_checked(item, proc)
            done.succeed(item)

        grant.callbacks.append(_commit)
        return done

    def release_credit(self) -> None:
        """Return an unused reserved slot (e.g. on shutdown)."""
        san = self.env.sanitizer
        if san is not None:
            san.on_release(self, self.env.active_process)
        self._recycle()

    def _recycle(self) -> None:
        """Recycle a consumed slot (no protocol accounting)."""
        if self._credits is not None:
            self._credits.post()

    # -- consumer side ------------------------------------------------
    def get(self) -> Event:
        """Next item, or :data:`SHUTDOWN` once closed and drained."""
        san = self.env.sanitizer
        proc = self.env.active_process if san is not None else None
        if san is not None:
            san.on_get(self, proc)
        ev = Event(self.env)
        if self._items:
            self._account_occupancy()
            ev.succeed(self._items.popleft())
            self._on_deliver()
        elif self._closed:
            ev.succeed(SHUTDOWN)
            if san is not None:
                san.on_shutdown(self, proc)
        else:
            t0 = self.env.now
            self._getters.append(ev)
            if san is not None:
                san.on_block("get", self, ev, proc)
            ev.callbacks.append(
                lambda _e: self._note_get_wait(self.env.now - t0)
            )
        return ev

    def _note_get_wait(self, waited: float) -> None:
        self.stats.get_wait += waited

    def _on_deliver(self) -> None:
        self.stats.gets += 1
        san = self.env.sanitizer
        if san is not None:
            san.on_delivered(self)
        if self.release == "on_get":
            self._recycle()

    def task_done(self) -> None:
        """Recycle the consumed item's slot (``on_done`` discipline)."""
        if self.release == "on_done":
            san = self.env.sanitizer
            if san is not None:
                san.on_task_done(self, self.env.active_process)
            self._recycle()

    # -- shutdown -----------------------------------------------------
    def add_producer(self) -> None:
        """Track one more stage feeding this buffer."""
        self._producers += 1

    def producer_done(self) -> None:
        """One feeding stage finished; close once all are done."""
        self._producers -= 1
        if self._producers <= 0:
            self.close()

    def close(self) -> None:
        """Stop accepting items; blocked/future getters get SHUTDOWN."""
        if self._closed:
            return
        self._closed = True
        # Items still queued are drained by later get() calls; only
        # starved getters can be waiting when items is empty.
        while self._getters and not self._items:
            self._getters.popleft().succeed(SHUTDOWN)
        # Puts still blocked on a slot can never complete now.
        for done in self._pending_puts:
            if not done.triggered:
                done.fail(
                    BufferClosed(f"put on closed buffer {self.name!r}")
                )
                done._defused = True
        self._pending_puts.clear()


@dataclass
class StageStats:
    """Per-stage accounting reported through NetLogger."""

    name: str
    items_in: int = 0
    items_out: int = 0
    busy_seconds: float = 0.0
    #: time blocked waiting for inbound items (starvation)
    wait_seconds: float = 0.0
    #: time blocked reserving an outbound slot (backpressure)
    stall_seconds: float = 0.0
    started_at: float = 0.0
    finished_at: Optional[float] = None
    error: Optional[BaseException] = field(default=None, repr=False)

    @property
    def elapsed(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def throughput(self) -> float:
        """Items emitted per second of stage lifetime."""
        elapsed = self.elapsed
        if not elapsed:
            return 0.0
        return self.items_out / elapsed


class Stage:
    """One pipeline stage: a sim process pumping items through work.

    ``work(item)`` may be a plain function or a generator function
    (yielding simulation events); its return value is the item emitted
    downstream. Returning :data:`DROP` consumes the item without
    emitting. A transform stage reserves its outbound slot *before*
    taking the inbound item, which is what makes a chain of stages
    reproduce the strictly serial Appendix B loop exactly (see
    :class:`BoundedBuffer`).
    """

    def __init__(
        self,
        env: "Environment",
        name: str,
        work: Callable[[Any], Any],
        *,
        source: Optional[Iterable[Any]] = None,
        inbound: Optional[BoundedBuffer] = None,
        outbound: Optional[BoundedBuffer] = None,
        daemon: bool = False,
    ):
        if (source is None) == (inbound is None):
            raise ValueError("stage needs exactly one of source/inbound")
        self.env = env
        self.name = name
        self.work = work
        self.source = source
        self.inbound = inbound
        self.outbound = outbound
        #: daemon stages serve for the whole run and are expected to be
        #: blocked on get() when the simulation ends (e.g. the viewer's
        #: receive loops); the sanitizer does not flag them as hung.
        self.daemon = daemon
        self.stats = StageStats(name=name)
        self.process: Optional["Process"] = None
        if outbound is not None:
            outbound.add_producer()

    def start(self) -> "Process":
        """Launch the stage process (idempotent)."""
        if self.process is None:
            self.process = self.env.process(self._run())
        return self.process

    def _do_work(self, item: Any):
        """Run one work invocation; generator-or-plain transparent."""
        t0 = self.env.now
        result = self.work(item)
        if inspect.isgenerator(result):
            result = yield self.env.process(result)
        self.stats.busy_seconds += self.env.now - t0
        self.stats.items_in += 1
        return result

    def _emit(self, result: Any) -> None:
        if self.outbound is None or result is DROP:
            if self.outbound is not None:
                # Slot was reserved but nothing shipped: recycle it.
                self.outbound.release_credit()
            return
        self.outbound.commit(result)
        self.stats.items_out += 1

    def _run(self):
        self.stats.started_at = self.env.now
        san = self.env.sanitizer
        if san is not None:
            san.on_stage_start(self)
        try:
            if self.source is not None:
                for item in self.source:
                    if self.outbound is not None:
                        t0 = self.env.now
                        yield self.outbound.reserve()
                        self.stats.stall_seconds += self.env.now - t0
                    result = yield from self._do_work(item)
                    self._emit(result)
            else:
                inbound = self.inbound
                assert inbound is not None  # constructor: source xor inbound
                while True:
                    if self.outbound is not None:
                        t0 = self.env.now
                        yield self.outbound.reserve()
                        self.stats.stall_seconds += self.env.now - t0
                    t0 = self.env.now
                    item = yield inbound.get()
                    self.stats.wait_seconds += self.env.now - t0
                    if item is SHUTDOWN:
                        if self.outbound is not None:
                            self.outbound.release_credit()
                        break
                    result = yield from self._do_work(item)
                    inbound.task_done()
                    self._emit(result)
        except BaseException as exc:
            self.stats.error = exc
            raise
        finally:
            self.stats.finished_at = self.env.now
            if self.outbound is not None:
                self.outbound.producer_done()


@dataclass
class PipelineSummary:
    """Snapshot of a pipeline's per-stage and per-buffer accounting."""

    name: str
    elapsed: float
    stages: Dict[str, StageStats]
    buffers: Dict[str, BufferStats]

    def stage(self, name: str) -> StageStats:
        return self.stages[name]

    def buffer(self, name: str) -> BufferStats:
        return self.buffers[name]

    def mean_occupancy(self, buffer_name: str) -> float:
        """Average committed-item occupancy of one buffer."""
        return self.buffers[buffer_name].mean_occupancy(self.elapsed)


class Pipeline:
    """Wires stages over bounded buffers and supervises the run."""

    def __init__(
        self,
        env: "Environment",
        *,
        name: str = "pipeline",
        daemon: bool = False,
    ):
        self.env = env
        self.name = name
        self.daemon = daemon
        self.stages: List[Stage] = []
        self.buffers: List[BoundedBuffer] = []
        self._started_at: Optional[float] = None

    # -- construction -------------------------------------------------
    def buffer(
        self,
        depth: Optional[int] = 2,
        *,
        name: Optional[str] = None,
        release: str = "on_get",
    ) -> BoundedBuffer:
        """Create and register a :class:`BoundedBuffer`."""
        buf = BoundedBuffer(
            self.env,
            depth,
            name=name or f"{self.name}.buf{len(self.buffers)}",
            release=release,
        )
        self.buffers.append(buf)
        return buf

    def stage(
        self,
        name: str,
        work: Callable[[Any], Any],
        *,
        source: Optional[Iterable[Any]] = None,
        inbound: Optional[BoundedBuffer] = None,
        outbound: Optional[BoundedBuffer] = None,
    ) -> Stage:
        """Create and register a :class:`Stage`."""
        st = Stage(
            self.env,
            name,
            work,
            source=source,
            inbound=inbound,
            outbound=outbound,
            daemon=self.daemon,
        )
        self.stages.append(st)
        return st

    # -- execution ----------------------------------------------------
    def start(self) -> List["Process"]:
        """Launch every stage without waiting (daemon-style use)."""
        if self._started_at is None:
            self._started_at = self.env.now
        return [st.start() for st in self.stages]

    def run(self) -> "Process":
        """Process that completes (with a summary) when all stages do.

        A stage failure interrupts the surviving stages and re-raises.
        """
        return self.env.process(self._run())

    def _run(self):
        procs = self.start()
        try:
            yield self.env.all_of(procs)
        except BaseException:
            self.cancel()
            raise
        return self.summary()

    def cancel(self) -> None:
        """Interrupt every stage still running and close all buffers."""
        for st in self.stages:
            if st.process is not None and st.process.is_alive:
                st.process.interrupt("pipeline cancelled")
        for buf in self.buffers:
            buf.close()

    # -- reporting ----------------------------------------------------
    def summary(self) -> PipelineSummary:
        """Current per-stage/per-buffer accounting."""
        started = self._started_at if self._started_at is not None else 0.0
        return PipelineSummary(
            name=self.name,
            elapsed=self.env.now - started,
            stages={st.name: st.stats for st in self.stages},
            buffers={buf.name: buf.stats for buf in self.buffers},
        )

    def report(self, log: "NetLogger") -> None:
        """Emit per-stage occupancy/stall/throughput NetLogger events."""
        from repro.netlogger.events import Tags

        summary = self.summary()
        for st in summary.stages.values():
            log.log(
                Tags.PIPE_SUMMARY,
                level="Pipeline",
                pipeline=self.name,
                stage=st.name,
                items_in=st.items_in,
                items_out=st.items_out,
                busy=st.busy_seconds,
                wait=st.wait_seconds,
                stall=st.stall_seconds,
                throughput=st.throughput,
            )
        for name, buf in summary.buffers.items():
            log.log(
                Tags.PIPE_BUFFER,
                level="Pipeline",
                pipeline=self.name,
                buffer=name,
                puts=buf.puts,
                gets=buf.gets,
                peak=buf.peak_occupancy,
                mean_occupancy=buf.mean_occupancy(summary.elapsed),
                reserve_wait=buf.reserve_wait,
                get_wait=buf.get_wait,
            )
