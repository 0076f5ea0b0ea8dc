"""The per-change banking sweep :class:`FlowClassPool` used before the
segment log: every bitwise rate change of a class walks all of its
members, banks each at the outgoing rate and recomputes each one's ETA
-- although only the head of the completion order is ever armed.

Membership changes take the production path: they are marked pending
and settled once at the end of the instant (``FlowClassPool._settle``),
so the two pools solve at the same instants with the same usage.

``tests/simcore/test_flowclass_lazy.py`` runs it beside the production
pool and demands identical bits. ``swept`` counts the per-member
bankings, the number the production pool's ``fold_steps`` may not
exceed.
"""

import heapq

from repro.simcore.events import Event
from repro.simcore.flowclass import FlowClassPool
from repro.simcore.fluid import _WORK_EPS, FluidTask


class _EagerMember:
    """A member carrying its own, always current, completion estimate."""

    __slots__ = (
        "name", "work", "remaining", "synced_at", "eta", "eta_horizon",
        "eta_anchor", "eta_seq", "seq", "active", "done", "state",
    )

    def __init__(self, name, work, now, seq):
        self.name = name
        self.work = work
        self.remaining = work
        self.synced_at = now
        self.eta = float("inf")
        self.eta_horizon = float("inf")
        self.eta_anchor = now
        self.eta_seq = 0  # bumped at each refresh; lazy heap deletion
        self.seq = seq
        self.active = True
        self.done = None
        self.state = None


class EagerFlowClassPool(FlowClassPool):
    """:class:`FlowClassPool` with the historical O(members) rate change.

    Class state, caps, usage scaling and the aggregate flow are the
    production pool's; member banking, ETAs and wake-heap validation
    (per-member ``eta_seq``) are the historical ones.
    """

    def __init__(self, env, sched):
        super().__init__(env, sched)
        self.swept = 0

    def submit(self, spec, work, name):
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
        self.stats.members_submitted += 1
        self._seq_ids += 1
        member = _EagerMember(name, float(work), now, self._seq_ids)
        member.done = Event(self.env)
        member.state = state
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
                f"fc:{spec.name}", float("inf"), spec.usage,
                cap=self._member_cap(state),
            )
            agg.on_rate = (
                lambda task, old, new, t, st=state:
                self._on_agg_rate(st, old, new, t)
            )
            state.agg = agg
            state.rate = 0.0
            self.stats.classes += 1
            self.sched.submit(agg)
        else:
            # Membership settles at the end of the instant (the
            # production rule); until then the new member's ETA is
            # anchored at the standing rate.
            self._refresh_member(member, state.rate, now)
            self._push_head(state)
            self._mark_pending(state)
        return member.done

    def _on_agg_rate(self, state, old, new, now):
        state.rate = new
        dt = now - state.p_synced
        if dt > 0:
            state.progress += old * dt
        state.p_synced = now
        for member in state.members.values():
            mdt = now - member.synced_at
            if mdt > 0:
                member.remaining = max(member.remaining - old * mdt, 0.0)
            member.synced_at = now
            self._refresh_member(member, new, now)
            self.swept += 1
        self.stats.disaggregations += 1
        self._push_head(state)
        self._arm_wake()

    def _refresh_member(self, member, rate, now):
        member.eta_seq += 1
        if rate > 0:
            horizon = member.remaining / rate
            member.eta = now + horizon
            member.eta_horizon = horizon
            member.eta_anchor = now
        else:
            member.eta = float("inf")

    def _push_head(self, state):
        order = state.order
        while order and not order[0][2].active:
            heapq.heappop(order)
        if not order:
            return
        head = order[0][2]
        if head.eta == float("inf"):
            return
        self._push_ids += 1
        heapq.heappush(
            self._heap,
            (head.eta, self._push_ids, head, head.eta_seq,
             head.eta_horizon, head.eta_anchor),
        )

    def _arm_wake(self):
        heap = self._heap
        while heap:
            _eta, _pid, member, eta_seq, _horizon, _t0 = heap[0]
            if member.active and member.eta_seq == eta_seq:
                break
            heapq.heappop(heap)
        if not heap:
            self._next_wake = float("inf")
            return
        eta, _pid, _member, _eseq, horizon, t0 = heap[0]
        if eta >= self._next_wake:
            return
        self._wake_token += 1
        self._next_wake = eta
        self.stats.wakes_scheduled += 1
        token = self._wake_token
        delay = horizon if self.env.now == t0 else max(eta - self.env.now, 0.0)
        wake = self.env.timeout(delay)
        wake.callbacks.append(lambda _ev, tok=token: self._on_wake(tok))

    def _on_wake(self, token):
        if token != self._wake_token:
            self.stats.stale_wakes += 1
            return
        self._next_wake = float("inf")
        now = self.env.now
        heap = self._heap
        while heap:
            eta, _pid, member, eta_seq, _horizon, _t0 = heap[0]
            if not (member.active and member.eta_seq == eta_seq):
                heapq.heappop(heap)
                continue
            if eta > now:
                break
            heapq.heappop(heap)
            self._complete_member(member, now)
        if not self._pending:
            self._arm_after_settle()

    def _complete_member(self, member, now):
        member.eta_seq += 1
        super()._complete_member(member, now)
