"""The per-RTT tick loop :class:`TcpConnection` used before lazy window
schedules: the send process wakes every RTT, grows the window and pushes
the new cap into the allocator -- and the allocator re-solves at every
instant a tick lands on, whether or not the cap was holding the flow
back.

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
            return TransferStats(
                nbytes=float(nbytes), start=start, sent=sent, delivered=env.now
            )
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

