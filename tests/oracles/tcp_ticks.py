"""The per-RTT tick loop :class:`TcpConnection` used before lazy window
schedules: the send process wakes every RTT, grows the window and pushes
the new cap into the allocator -- and the allocator re-solves every time,
whether or not the cap was holding the flow back.

``tests/netsim/test_window_schedule.py`` runs it beside the production
connection and demands identical bits.
"""

from repro.netsim.tcp import TcpConnection, TransferStats
from repro.simcore.events import Interrupt
from repro.simcore.fluid import FluidTask


class TickingTcpConnection(TcpConnection):
    """:class:`TcpConnection` with the historical ``_send_proc``."""

    def _send_proc(self, nbytes, label):
        env = self.network.env
        sched = self.network.sched
        rtt = self.route.rtt
        start = env.now
        try:
            if not self._established:
                yield env.timeout(rtt)
                self._established = True

            task = FluidTask(
                f"{label}:{self.src}->{self.dst}",
                work=float(nbytes),
                usage=self._usage,
                cap=self._rate_cap(),
                floor=self.reserved_rate,
            )
            self._current_task = task
            done = sched.submit(task)

            while not done.processed:
                if self.params.slow_start and self._cwnd < self.params.max_window:
                    tick = env.timeout(rtt)
                    yield env.any_of([done, tick])
                    if done.processed:
                        break
                    if self._cwnd < self.params.ssthresh:
                        grown = self._cwnd * 2.0
                    else:
                        grown = self._cwnd + self.params.mss
                    self._cwnd = min(grown, self.params.max_window)
                    self._push_cap(task)
                else:
                    yield done
            self._current_task = None
            sent = env.now
            if self.route.latency > 0:
                yield env.timeout(self.route.latency)
            stats = TransferStats(
                nbytes=float(nbytes), start=start, sent=sent, delivered=env.now
            )
            self.history.append(stats)
            return stats
        except Interrupt:
            if self._current_task is not None:
                sched.withdraw(self._current_task)
            self._established = False
            self._cwnd = self.params.init_cwnd
            return TransferStats(
                nbytes=float(nbytes), start=start, sent=env.now,
                delivered=env.now, aborted=True,
            )
        finally:
            self._current_task = None
            self._current_proc = None
            self._busy = False

    def _push_cap(self, task):
        sched = self.network.sched
        sched.set_cap(task, self._rate_cap())
        if task.name in sched._active:
            # set_cap used to solve unconditionally; do so here, so the
            # oracle also checks that eliding the solve of a slack cap
            # changes nothing.
            sched._touch_task(task)
            sched._after_change()


class BatchedTickingTcpConnection(TickingTcpConnection):
    """The tick loop, solving once per instant instead of once per tick.

    When N connections tick on the same timestamp (opened together over
    one route), the historical loop solved N times there, each solve
    seeing one more raised cap. The final rates are those of the last
    solve alone -- a solve is a pure function of the caps -- but a flow
    whose rate differs by an ulp in an intermediate solve and returns
    to its old value in the last is banked, and its completion
    re-estimated, by the N-solve sequence only. The lazy schedule
    solves once with every cap raised; this variant is the tick loop
    with that one difference, and must match it bit for bit.
    """

    def _push_cap(self, task):
        sched = self.network.sched
        if task.name not in sched._active:
            return
        task.cap = self._rate_cap()
        task._flow = None
        sched._touch_task(task)
        if not getattr(sched, "_oracle_flush_armed", False):
            sched._oracle_flush_armed = True
            flush = self.network.env.timeout(0.0)
            flush.callbacks.append(lambda _ev: self._flush(sched))

    @staticmethod
    def _flush(sched):
        sched._oracle_flush_armed = False
        sched._after_change()
