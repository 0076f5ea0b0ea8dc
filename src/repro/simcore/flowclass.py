"""Flow classes: aggregate same-profile sessions into one fluid flow.

A :class:`FlowClass` describes a *profile* -- the per-member usage
coefficients and rate cap shared by every session of that profile
(e.g. "home viewer behind a 45 Mb/s WAN path"). A
:class:`FlowClassPool` admits individual member transfers against a
class and serves them through **one** aggregate
:class:`~repro.simcore.fluid.FluidTask` per class, so the allocator's
re-solve cost scales with the number of *profiles*, not the number of
concurrent sessions (DESIGN.md section 15).

The aggregate flow is a *per-member representative*: its usage
coefficients are the class coefficients scaled by the live member
count ``k`` (``usage[r] = k * c_r``) while its cap stays per-member,
so the rate the solver assigns **is** the per-member rate -- no
division round-trip. Member progress is banked with exactly the
arithmetic :class:`~repro.simcore.fluid.FluidScheduler` uses
(``remaining = max(remaining - rate*dt, 0)`` at each bitwise rate
change, ``eta = now + remaining/rate``), at exactly the instants the
allocator banks (the ``FluidTask.on_rate`` hook), which makes member
completion times bitwise identical to running one fluid flow per
member whenever the class usage coefficients are ``1.0`` (``k``
repeated additions of 1.0 equal ``k * 1.0`` exactly -- integer float
sums).

With non-unit coefficients the aggregation is still exact weighted
max-min fairness, but float rounding may differ from the per-session
solve by ulps. ``tests/oracles/per_session_pool.py`` runs
the same API as a per-session oracle (one FluidTask per member) --
parity tests pin the two against each other.

Within one class, members complete in fixed order (all members
progress at the shared per-member rate, so relative order is set by
remaining work at join time); the pool tracks that order with a
cumulative-progress threshold heap, and only its head ever needs a
completion estimate. A bitwise rate change is therefore O(1): it
appends one segment (change time, outgoing rate, and the product
``old * (t_n - t_(n-1))`` every member already in the class loses) to
the class's log. A member is brought up to date only when it heads the
order, by replaying the segments it has not seen -- the same
subtractions in the same order, so each member folds each segment of
its lifetime exactly once (DESIGN.md section 15.1 has the exactness
argument, ``tests/oracles/eager_flowclass.py`` the per-change sweep
this replaced). Join / complete stay O(log members); the log is
dropped when the class drains.

Membership settles once per simulated instant. A join to a live class,
or a completion that leaves members behind, only queues the class's
head at the standing rate and marks the class pending. At the end of
the instant (:meth:`~repro.simcore.env.Environment.at_instant_end`)
the pool re-scales every pending class and drops those whose usage and
cap came back bitwise unchanged. A session that leaves and is replaced
at one instant costs no solve. The rest go to the allocator as one
:meth:`~repro.simcore.fluid.FluidScheduler.set_usage` batch, so two
classes on one resource cost one solve (DESIGN.md section 15.1). Class
activation and drain stay immediate.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.simcore.events import Event
from repro.simcore.fluid import (
    _CAP_SENTINEL,
    _WORK_EPS,
    FluidResource,
    FluidScheduler,
    FluidTask,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.env import Environment


class FlowClass:
    """A session profile: per-member usage and rate cap."""

    def __init__(
        self,
        name: str,
        usage: Mapping[FluidResource, float],
        cap: float = float("inf"),
    ):
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        for coeff in usage.values():
            if coeff < 0:
                raise ValueError(f"usage must be >= 0, got {coeff}")
        self.name = name
        self.usage = dict(usage)
        self.cap = float(cap)

    def __repr__(self) -> str:  # pragma: no cover
        return f"FlowClass({self.name!r}, cap={self.cap:.3g})"


class _Member:
    """One admitted transfer inside a class."""

    __slots__ = (
        "name",
        "work",
        "remaining",
        "synced_at",
        "seen",
        "seq",
        "active",
        "done",
        "state",
    )

    def __init__(
        self, name: str, work: float, now: float, seq: int,
        state: "_ClassState", done: Event,
    ):
        self.name = name
        self.work = work
        self.remaining = work  # as of ``synced_at``
        self.synced_at = now
        #: segments of ``state``'s log already folded into ``remaining``
        self.seen = len(state.seg_prod)
        self.seq = seq  # global admit order; breaks completion ties
        self.active = True
        self.done = done
        self.state = state


class _ClassState:
    """Live members and the aggregate flow of one class."""

    __slots__ = (
        "spec",
        "agg",
        "members",
        "order",
        "progress",
        "p_synced",
        "rate",
        "epoch",
        "seg_t",
        "seg_rate",
        "seg_prod",
    )

    def __init__(self, spec: FlowClass):
        self.spec = spec
        self.agg: Optional[FluidTask] = None
        #: live members by name (duplicate check, member count ``k``)
        self.members: Dict[str, _Member] = {}
        #: completion-order heap keyed by the cumulative per-member
        #: progress at which each member finishes (progress-at-join +
        #: work). All members drain at the shared rate, so this order
        #: is invariant between joins.
        self.order: List[Tuple[float, int, _Member]] = []
        self.progress = 0.0  # cumulative per-member work served
        self.p_synced = 0.0
        self.rate = 0.0  # mirror of agg.rate (per-member)
        #: rate changes so far, never reset: a wake-heap entry is live
        #: only in the epoch it was pushed in.
        self.epoch = 0
        #: segment log, one entry per rate change since the class last
        #: activated: the change time, the rate that ended there, and
        #: ``rate * (t - previous change)`` -- what a member that sat
        #: through the whole segment lost in it. Unboxed: a busy class
        #: logs thousands of segments.
        self.seg_t = array("d")
        self.seg_rate = array("d")
        self.seg_prod = array("d")


@dataclass
class FlowClassStats:
    """Counters for the pool (``FlowClassPool.stats``)."""

    classes: int = 0  # aggregate flows created (class activations)
    members_submitted: int = 0
    members_completed: int = 0
    disaggregations: int = 0  # aggregate rate changes (segments logged)
    wakes_scheduled: int = 0
    stale_wakes: int = 0
    replays: int = 0  # members brought up to date from the segment log
    fold_steps: int = 0  # segments those replays folded, in total

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


# Pool wake-heap entry: (eta, push id, member, class epoch, horizon,
# anchor) -- same shape and arming discipline as the fluid ETA heap.
_HeapEntry = Tuple[float, int, _Member, int, float, float]


class FlowClassPool:
    """Admits member transfers against flow classes.

    Each class is served through one scaled aggregate flow;
    :meth:`submit` returns an event whose value is the member's
    completion time.
    """

    def __init__(self, env: "Environment", sched: FluidScheduler):
        self.env = env
        self.sched = sched
        self._classes: Dict[str, _ClassState] = {}
        self._heap: List[_HeapEntry] = []
        self._push_ids = 0
        self._seq_ids = 0
        self._wake_token = 0
        self._next_wake = float("inf")
        #: live classes whose member count changed this instant, in
        #: first-change order; settled together at the instant's end
        self._pending: Dict[str, _ClassState] = {}
        self.stats = FlowClassStats()

    # -- introspection -------------------------------------------------------
    def active_members(self, class_name: str) -> int:
        """Live member count of ``class_name`` (0 if idle/unknown)."""
        state = self._classes.get(class_name)
        return len(state.members) if state is not None else 0

    def class_rate(self, class_name: str) -> float:
        """Current per-member rate of ``class_name`` (0 if idle)."""
        state = self._classes.get(class_name)
        return state.rate if state is not None and state.agg is not None else 0.0

    # -- admission -----------------------------------------------------------
    def submit(self, spec: FlowClass, work: float, name: str) -> Event:
        """Admit one member transfer of ``work`` units against ``spec``.

        Returns the event fired at completion; its value is the
        completion time (matching ``FluidScheduler.submit``).
        """
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work}")
        now = self.env.now
        if work <= _WORK_EPS:
            done = Event(self.env)
            done.succeed(now)
            self.stats.members_submitted += 1
            self.stats.members_completed += 1
            return done
        state = self._state_of(spec)
        if name in state.members:
            raise ValueError(f"duplicate member name {name!r}")
        # Counted once nothing can refuse the member any more, so
        # submitted == completed balances at the end of every run.
        self.stats.members_submitted += 1
        self._seq_ids += 1
        member = _Member(
            name, float(work), now, self._seq_ids, state, Event(self.env)
        )
        # Sync cumulative progress to now so the ordering threshold is
        # comparable with members admitted at other instants.
        if state.agg is not None:
            dt = now - state.p_synced
            if dt > 0:
                state.progress += state.rate * dt
        state.p_synced = now
        state.members[name] = member
        heapq.heappush(
            state.order, (state.progress + member.work, member.seq, member)
        )
        if state.agg is None:
            agg = FluidTask(
                f"fc:{spec.name}",
                float("inf"),
                spec.usage,
                cap=self._member_cap(state),
            )
            agg.on_rate = (
                lambda task, old, new, t, st=state:  # type: ignore[misc]
                self._on_agg_rate(st, old, new, t)
            )
            state.agg = agg
            state.rate = 0.0
            self.stats.classes += 1
            # The solve queues the head through ``_on_agg_rate``; a rate
            # left at zero has no head to queue.
            self.sched.submit(agg)
        else:
            # The rate cannot change before the settle, so the new
            # member -- possibly the head now -- is queued at it.
            self._push_head(state)
            self._mark_pending(state)
        return member.done

    def set_class_cap(self, spec: FlowClass, cap: float) -> None:
        """Change a class's per-member cap for current and future members."""
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        spec.cap = float(cap)
        state = self._classes.get(spec.name)
        if state is not None and state.agg is not None:
            self.sched.set_cap(state.agg, self._member_cap(state))

    # -- internals -----------------------------------------------------------
    def _mark_pending(self, state: _ClassState) -> None:
        """Defer ``state``'s re-scaling to the end of this instant."""
        if not self._pending:
            self.env.at_instant_end(self._settle)
        self._pending[state.spec.name] = state

    def _settle(self) -> None:
        """Re-scale every class whose membership changed, in one solve.

        A class that lost and regained a member (or whose changes
        cancel out otherwise) ends with its usage and cap bitwise where
        they began: it is dropped, and costs no solve and no segment.
        """
        pending = self._pending
        self._pending = {}
        batch = []
        for state in pending.values():
            agg = state.agg
            if agg is None:
                continue  # drained since it was marked
            usage = self._scaled_usage(state)
            cap = self._member_cap(state)
            if usage == agg.usage and cap == agg.cap:
                continue
            agg.cap = cap
            batch.append((agg, usage))
        if batch:
            self.sched.set_usage(batch)
        self._arm_after_settle()

    def _state_of(self, spec: FlowClass) -> _ClassState:
        state = self._classes.get(spec.name)
        if state is None:
            state = _ClassState(spec)
            self._classes[spec.name] = state
        elif state.spec is not spec:
            if state.spec.usage != spec.usage or state.spec.cap != spec.cap:
                raise ValueError(
                    f"flow class {spec.name!r} redefined with a different "
                    f"profile"
                )
        return state

    def _scaled_usage(self, state: _ClassState) -> Dict[FluidResource, float]:
        k = len(state.members)
        return {r: c * k for r, c in state.spec.usage.items()}

    def _member_cap(self, state: _ClassState) -> float:
        """Finite per-member cap, mirroring the fluid stand-in.

        An uncapped per-session flow gets ``min(capacity/coeff)`` as
        its finite stand-in; the aggregate must carry the *per-member*
        number (its scaled coefficients would otherwise shrink the
        stand-in by ``k``), so the pool computes it here from current
        capacities at every membership change.
        """
        if state.spec.cap != float("inf"):
            return state.spec.cap
        best = float("inf")
        for res, coeff in state.spec.usage.items():
            if coeff > 0:
                best = min(best, res.capacity / coeff)
        return best if best != float("inf") else _CAP_SENTINEL

    def _on_agg_rate(
        self, state: _ClassState, old: float, new: float, now: float
    ) -> None:
        """Log the segment served at ``old``; re-anchor the head's ETA.

        Members catch up from the log when they head the completion
        order (:meth:`_sync`). Runs from inside the allocator's solve
        (the ``on_rate`` hook), so it must not mutate the scheduler --
        it only touches pool state and arms the pool's own wake timeout.
        """
        state.rate = new
        dt = now - state.p_synced
        if dt > 0:
            state.progress += old * dt
        state.p_synced = now
        seg_t = state.seg_t
        # A member reads the product only of a segment it sat through
        # whole, so the first entry of a log is never read.
        state.seg_prod.append(old * (now - seg_t[-1]) if seg_t else 0.0)
        seg_t.append(now)
        state.seg_rate.append(old)
        state.epoch += 1
        self.stats.disaggregations += 1
        self._push_head(state)
        self._arm_wake()

    def _sync(self, member: _Member, state: _ClassState) -> None:
        """Bank ``member`` through every segment it has not seen.

        The subtractions a per-change sweep would have made, in its
        order: the segment the member joined (or was last synced) in
        ends ``seg_t - synced_at`` later, every further one costs the
        shared product. No step raises ``remaining``, so one clip at
        the end equals a clip at every step.
        """
        first = member.seen
        n = len(state.seg_prod)
        if first == n:
            return
        remaining = member.remaining
        dt = state.seg_t[first] - member.synced_at
        if dt > 0:
            remaining -= state.seg_rate[first] * dt
        for lost in state.seg_prod[first + 1:]:
            remaining -= lost
        member.remaining = remaining if remaining > 0.0 else 0.0
        member.synced_at = state.seg_t[-1]
        member.seen = n
        self.stats.replays += 1
        self.stats.fold_steps += n - first

    def _push_head(self, state: _ClassState) -> None:
        """Queue the class's next completion on the pool wake heap."""
        order = state.order
        while order and not order[0][2].active:
            heapq.heappop(order)
        if not order or not state.rate > 0:
            return
        head = order[0][2]
        self._sync(head, state)
        # ``remaining`` was measured at ``synced_at`` -- the last rate
        # change, or the join if none came since -- and the rate has
        # been ``state.rate`` from then on: that instant is the anchor.
        t0 = head.synced_at
        horizon = head.remaining / state.rate
        self._push_ids += 1
        heapq.heappush(
            self._heap,
            (t0 + horizon, self._push_ids, head, state.epoch, horizon, t0),
        )

    def _arm_after_settle(self) -> None:
        """Arm the wake once the allocator has settled this instant.

        While the allocator's settle is queued, the heads sit at rates
        it is about to change: ``_on_agg_rate`` re-queues them there,
        so a wake armed now could be superseded before time moves.
        """
        if self.sched._settle_armed:
            self.env.at_instant_end(self._arm_wake)
        else:
            self._arm_wake()

    def _arm_wake(self) -> None:
        """One outstanding timeout covering the earliest member ETA.

        Identical discipline to ``FluidScheduler._arm_wake``: lazy
        deletion of superseded entries, re-arm only when the earliest
        completion moved earlier, and the raw horizon reused when
        arming at the anchor instant so the wake lands exactly on
        ``fl(anchor + horizon)``.
        """
        heap = self._heap
        while heap:
            _eta, _pid, member, epoch, _horizon, _t0 = heap[0]
            if member.active and member.state.epoch == epoch:
                break
            heapq.heappop(heap)
        if not heap:
            self._next_wake = float("inf")
            return
        eta, _pid, _member, _epoch, horizon, t0 = heap[0]
        if eta >= self._next_wake:
            return
        self._wake_token += 1
        self._next_wake = eta
        self.stats.wakes_scheduled += 1
        token = self._wake_token
        delay = horizon if self.env.now == t0 else max(eta - self.env.now, 0.0)
        wake = self.env.timeout(delay)
        wake.callbacks.append(lambda _ev, tok=token: self._on_wake(tok))

    def _on_wake(self, token: int) -> None:
        if token != self._wake_token:
            self.stats.stale_wakes += 1
            return
        self._next_wake = float("inf")
        now = self.env.now
        heap = self._heap
        while heap:
            eta, _pid, member, epoch, _horizon, _t0 = heap[0]
            if not (member.active and member.state.epoch == epoch):
                heapq.heappop(heap)
                continue
            if eta > now:
                break
            heapq.heappop(heap)
            self._complete_member(member, now)
        if not self._pending:
            self._arm_after_settle()  # otherwise the settle arms it

    def _complete_member(self, member: _Member, now: float) -> None:
        state = member.state
        member.active = False
        member.remaining = 0.0
        del state.members[member.name]
        self.stats.members_completed += 1
        member.done.succeed(now)
        if not state.members:
            agg = state.agg
            state.agg = None
            state.rate = 0.0
            state.order = []
            state.progress = 0.0
            # Every reader of the log is gone; the next activation
            # starts a fresh one at index 0.
            del state.seg_t[:], state.seg_rate[:], state.seg_prod[:]
            if agg is not None:
                agg.on_rate = None  # no members left to disaggregate to
                self.sched.withdraw(agg)
        else:
            # The next head is queued at the standing rate; the settle
            # re-queues it if the rate moves.
            self._push_head(state)
            self._mark_pending(state)
