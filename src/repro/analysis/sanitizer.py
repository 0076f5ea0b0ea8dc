"""A tsan-for-the-DES: runtime concurrency sanitizer for sim runs.

The paper's correctness story rests on a small set of handshake
disciplines -- Appendix B's semaphore pair over a double buffer (the
back end's reader and render loop over a
:class:`~repro.simcore.sync.BoundedBuffer`), the barrier closing each
back-end frame. This module machine-checks those disciplines. It is
**opt-in**: the primitives consult ``env.sanitizer`` (``None`` by
default) at each hook point, so an un-sanitized run executes exactly
the same event sequence with a single attribute test of overhead per
operation, and a sanitized run only *observes* (it never schedules
events, so sim timings are bit-identical either way).

Detectors and their finding categories:

``deadlock``
    A cycle in the wait-for graph among blocked processes (consumer
    waits its producer which waits the consumer, ...).
``hang``
    Blocked at event exhaustion with no cycle: a consumer whose
    producers all terminated, a producer stalled on a slot no consumer
    will ever free.
``credit-leak``
    A production slot was reserved (Appendix B semaphore A granted)
    but the holder terminated without committing it.
``protocol``
    A buffer-protocol violation: commit without reserve.
``lost-wakeup``
    A semaphore still has blocked waiters at sim end -- some ``post``
    was dropped or never issued.
``barrier-stuck``
    A barrier round never filled: fewer than ``parties`` arrivals.

Findings are reported as NetLogger ``SAN_*`` events plus a structured
:class:`~repro.analysis.findings.SanitizerReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from repro.analysis.findings import Finding, SanitizerReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.netlogger.logger import NetLogger
    from repro.simcore.env import Environment
    from repro.simcore.events import Event
    from repro.simcore.process import Process
    from repro.simcore.sync import BoundedBuffer, SimBarrier, SimSemaphore


@dataclass
class _Wait:
    """One currently blocked wait on a tracked primitive."""

    kind: str  # "sem" | "barrier" | "get" | "reserve"
    primitive: Any  # SimSemaphore | SimBarrier | BoundedBuffer
    event: "Event"
    proc: Optional["Process"]
    since: float


class _BufState:
    """Per-buffer accounting the sanitizer maintains."""

    def __init__(self) -> None:
        self.producers: Dict["Process", None] = {}  # insertion-ordered set
        self.consumers: Dict["Process", None] = {}
        #: reserve credits granted but not yet committed
        self.outstanding: Dict[Optional["Process"], int] = {}


class SimSanitizer:
    """Observes one :class:`Environment`; builds findings, never events."""

    def __init__(
        self,
        env: "Environment",
        *,
        logger: Optional["NetLogger"] = None,
    ):
        self.env = env
        self.logger = logger
        self.findings: List[Finding] = []
        self._seen: Set[Tuple[str, str, str]] = set()
        self._waits: Dict["Event", _Wait] = {}
        self._buffers: Dict["BoundedBuffer", _BufState] = {}
        self._sem_posters: Dict["SimSemaphore", Dict["Process", None]] = {}
        self._barrier_parties: Dict["SimBarrier", Dict["Process", None]] = {}
        self._proc_names: Dict["Process", str] = {}
        self._prim_names: Dict[int, str] = {}
        self._name_counts: Dict[str, int] = {}

    # -- lifecycle ----------------------------------------------------
    def install(self) -> "SimSanitizer":
        """Attach to the environment (idempotent)."""
        self.env.sanitizer = self
        return self

    # -- naming -------------------------------------------------------
    def _name(self, obj: object) -> str:
        key = id(obj)
        # vis: allow[VIS202] identity-keyed memo of live primitives;
        # the reported name is the deterministic registration-order
        # alias, never the id itself, and keys die with the run.
        if key not in self._prim_names:
            base = getattr(obj, "name", None) or type(obj).__name__.lower()
            n = self._name_counts.get(base, 0)
            self._name_counts[base] = n + 1
            # vis: allow[VIS202] see above: deterministic alias store
            self._prim_names[key] = base if n == 0 else f"{base}#{n + 1}"
        return self._prim_names[key]

    def _proc_name(self, proc: Optional["Process"]) -> str:
        if proc is None:
            return "<no-process>"
        if proc not in self._proc_names:
            self._proc_names[proc] = f"proc#{len(self._proc_names)}"
        return self._proc_names[proc]

    def _record(self, category: str, subject: str, message: str) -> None:
        key = (category, subject, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(Finding(category, subject, message))

    # -- hooks: blocking ----------------------------------------------
    def on_block(
        self,
        kind: str,
        primitive: object,
        event: "Event",
        proc: Optional["Process"] = None,
    ) -> None:
        """A wait on a tracked primitive did not complete immediately."""
        if proc is None:
            proc = self.env.active_process
        self._waits[event] = _Wait(kind, primitive, event, proc, self.env.now)
        event.callbacks.append(self._unblocked)

    def _unblocked(self, event: "Event") -> None:
        self._waits.pop(event, None)

    # -- hooks: semaphores and barriers -------------------------------
    def on_sem_post(self, sem: "SimSemaphore") -> None:
        """Record who posts each semaphore (wait-for edge targets)."""
        proc = self.env.active_process
        if proc is not None:
            self._sem_posters.setdefault(sem, {})[proc] = None

    def on_barrier_party(self, barrier: "SimBarrier") -> None:
        """Record barrier membership as parties arrive."""
        proc = self.env.active_process
        if proc is not None:
            self._barrier_parties.setdefault(barrier, {})[proc] = None

    # -- hooks: bounded buffers ---------------------------------------
    def _buf(self, buffer: "BoundedBuffer") -> _BufState:
        state = self._buffers.get(buffer)
        if state is None:
            state = self._buffers[buffer] = _BufState()
        return state

    def on_producer(
        self, buffer: "BoundedBuffer", proc: Optional["Process"]
    ) -> None:
        """A process entered the producer side of a buffer."""
        if proc is not None:
            self._buf(buffer).producers[proc] = None

    def on_reserve_granted(
        self, buffer: "BoundedBuffer", proc: Optional["Process"]
    ) -> None:
        """A production credit was handed out (Appendix B semaphore A)."""
        state = self._buf(buffer)
        state.outstanding[proc] = state.outstanding.get(proc, 0) + 1

    def on_commit(
        self, buffer: "BoundedBuffer", proc: Optional["Process"]
    ) -> None:
        """An item was deposited (Appendix B semaphore B)."""
        state = self._buf(buffer)
        if proc is not None:
            state.producers[proc] = None
        held = state.outstanding.get(proc, 0)
        if held <= 0:
            self._record(
                "protocol",
                f"buffer:{self._name(buffer)}",
                f"{self._proc_name(proc)} committed without a reserved "
                "slot (commit without reserve)",
            )
        else:
            state.outstanding[proc] = held - 1

    def on_get(
        self, buffer: "BoundedBuffer", proc: Optional["Process"]
    ) -> None:
        """A consumer asked for the next item."""
        if proc is not None:
            self._buf(buffer).consumers[proc] = None

    # -- end-of-run analysis ------------------------------------------
    def on_exhausted(self) -> None:
        """The event queue ran dry: analyse everything still blocked."""
        self._end_checks()

    def _live_waits(self) -> List[_Wait]:
        """Blocked waits whose process is really still parked on them."""
        live = []
        for event, wait in self._waits.items():
            if event.triggered:
                continue
            proc = wait.proc
            if proc is not None and (
                proc.triggered or proc.target is not event
            ):
                # Interrupted, terminated, or moved on: not a real block.
                continue
            live.append(wait)
        return live

    def _edges(
        self, waits: List[_Wait]
    ) -> Dict["Process", List["Process"]]:
        """Wait-for edges: blocked process -> who could unblock it."""
        edges: Dict["Process", List["Process"]] = {}
        blocked_on = {w.proc: w for w in waits if w.proc is not None}
        for wait in waits:
            proc = wait.proc
            if proc is None:
                continue
            targets: List["Process"] = []
            if wait.kind == "get":
                state = self._buf(wait.primitive)
                targets = [
                    p for p in state.producers if not p.triggered
                ]
            elif wait.kind == "reserve":
                state = self._buf(wait.primitive)
                targets = [
                    p for p in state.consumers if not p.triggered
                ]
            elif wait.kind == "sem":
                posters = self._sem_posters.get(wait.primitive, {})
                targets = [p for p in posters if not p.triggered]
            elif wait.kind == "barrier":
                # A party already parked at the same barrier cannot be
                # the one to complete the round; without this filter a
                # merely under-attended barrier would read as a cycle.
                parties = self._barrier_parties.get(wait.primitive, {})
                targets = [
                    p
                    for p in parties
                    if p is not proc
                    and not p.triggered
                    and not (
                        p in blocked_on
                        and blocked_on[p].kind == "barrier"
                        and blocked_on[p].primitive is wait.primitive
                    )
                ]
            edges[proc] = targets
        return edges

    def _cycles(
        self, edges: Dict["Process", List["Process"]]
    ) -> List[List["Process"]]:
        """Strongly connected components of size > 1 among blocked procs."""
        index: Dict["Process", int] = {}
        low: Dict["Process", int] = {}
        on_stack: Set["Process"] = set()
        stack: List["Process"] = []
        counter = [0]
        sccs: List[List["Process"]] = []

        def strongconnect(v: "Process") -> None:
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            for w in edges.get(v, ()):
                if w not in edges:
                    continue  # not blocked: can still make progress
                if w not in index:
                    strongconnect(w)
                    low[v] = min(low[v], low[w])
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w is v:
                        break
                if len(component) > 1:
                    sccs.append(list(reversed(component)))

        for v in list(edges):
            if v not in index:
                strongconnect(v)
        return sccs

    def _end_checks(self) -> None:
        waits = self._live_waits()
        edges = self._edges(waits)
        deadlocked: Set["Process"] = set()
        for cycle in self._cycles(edges):
            deadlocked.update(cycle)
            names = [self._proc_name(p) for p in cycle]
            self._record(
                "deadlock",
                "cycle:" + "->".join(names),
                "wait-for cycle among blocked processes: "
                + " -> ".join(names + [names[0]]),
            )

        sem_hangs: Dict[object, List[_Wait]] = {}
        barrier_hangs: Dict[object, List[_Wait]] = {}
        for wait in waits:
            if wait.proc in deadlocked:
                continue
            if wait.kind == "sem":
                sem_hangs.setdefault(wait.primitive, []).append(wait)
            elif wait.kind == "barrier":
                barrier_hangs.setdefault(wait.primitive, []).append(wait)
            else:
                self._hang_finding(wait)

        for sem, blocked in sem_hangs.items():
            names = ",".join(self._proc_name(w.proc) for w in blocked)
            self._record(
                "lost-wakeup",
                f"semaphore:{self._name(sem)}",
                f"{len(blocked)} waiter(s) still blocked at sim end "
                f"({names}): a post was dropped or never issued",
            )
        for barrier, blocked in barrier_hangs.items():
            parties = getattr(barrier, "parties", "?")
            self._record(
                "barrier-stuck",
                f"barrier:{self._name(barrier)}",
                f"{len(blocked)} of {parties} parties arrived; the "
                "round never completed",
            )

        self._leak_checks()

    def _hang_finding(self, wait: _Wait) -> None:
        buffer = wait.primitive
        state = self._buf(buffer)
        who = self._proc_name(wait.proc)
        if wait.kind == "get":
            alive = [p for p in state.producers if not p.triggered]
            if alive:
                detail = (
                    "producers "
                    + ",".join(self._proc_name(p) for p in alive)
                    + " are still alive but blocked"
                )
            else:
                detail = "all producers terminated"
            self._record(
                "hang",
                f"buffer:{self._name(buffer)}",
                f"{who} blocked in get() at event exhaustion; {detail}",
            )
        else:  # reserve
            self._record(
                "hang",
                f"buffer:{self._name(buffer)}",
                f"{who} blocked reserving a slot at event exhaustion; "
                "no consumer will free a credit",
            )

    def _leak_checks(self) -> None:
        for buffer, state in self._buffers.items():
            for proc, held in state.outstanding.items():
                if held > 0 and (proc is None or proc.triggered):
                    self._record(
                        "credit-leak",
                        f"buffer:{self._name(buffer)}",
                        f"{self._proc_name(proc)} terminated holding "
                        f"{held} reserved slot(s) it never committed "
                        "(reserve without commit)",
                    )

    # -- reporting -----------------------------------------------------
    def report(self) -> SanitizerReport:
        """Run the end-of-run checks and return the structured report.

        Also emits ``SAN_*`` NetLogger events when a logger is
        attached. Safe to call more than once (findings de-duplicate).
        """
        self._end_checks()
        result = SanitizerReport(findings=list(self.findings))
        result.emit(self.logger)
        return result


def attach_sanitizer(
    env: "Environment", *, logger: Optional["NetLogger"] = None
) -> SimSanitizer:
    """Create a :class:`SimSanitizer` and install it on ``env``."""
    return SimSanitizer(env, logger=logger).install()
