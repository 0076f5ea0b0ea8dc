"""TCP connection model: slow start, window/RTT caps, persistence.

The model captures the two TCP effects the paper's campaigns surface:

1. **Slow start** -- the first frame over a fresh connection loads
   visibly slower; "after the first time step's worth of data was
   loaded and the TCP window fully opened, we were able to steadily
   consume in excess of 100 Mbps" (section 4.4.2). The congestion
   window doubles each RTT from ``init_cwnd`` until ``ssthresh``, then
   grows one MSS per RTT until ``max_window``; the flow's rate cap is
   ``cwnd / rtt`` throughout.
2. **Window/RTT ceiling** -- on high-latency paths a single stream
   cannot exceed ``max_window / rtt`` even on an idle link, which is
   why a single iperf stream saw ~100 Mbps over ESnet while Visapult's
   parallel streams consumed ~128 Mbps.

Connections are persistent: the congestion window survives across
``send`` calls, so only the first transfer pays the ramp.

A send does not tick. The window is a step function of time
(:class:`_WindowSchedule`) handed to the transfer's fluid task; the
allocator reads it when it solves and wakes for a step only while the
window is what holds the flow back (DESIGN.md section 12.6). The send
process itself just waits for the transfer to finish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.simcore.events import Event, Interrupt
from repro.simcore.fluid import FluidResource, FluidTask
from repro.simcore.process import Process
from repro.util.units import KIB
from repro.util.validation import check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.topology import Network


@dataclass(frozen=True)
class TcpParams:
    """Tunable TCP parameters (bytes / seconds)."""

    mss: float = 1460.0
    init_cwnd: float = 2 * 1460.0
    max_window: float = 512 * KIB
    #: slow-start threshold: exponential growth below, linear above
    ssthresh: float = 64 * KIB
    #: disable the ramp entirely (useful for idealised experiments)
    slow_start: bool = True

    def __post_init__(self):
        check_positive("mss", self.mss)
        check_positive("init_cwnd", self.init_cwnd)
        check_positive("max_window", self.max_window)
        check_positive("ssthresh", self.ssthresh)
        if self.init_cwnd > self.max_window:
            raise ValueError("init_cwnd must not exceed max_window")


@dataclass
class TransferStats:
    """Outcome of one ``send``: timings and achieved throughput."""

    nbytes: float
    start: float
    #: time the last byte left the sender
    sent: float
    #: time the last byte arrived at the receiver
    delivered: float
    #: the transfer was torn down by :meth:`TcpConnection.abort`
    #: before completing; timings cover only the attempted span
    aborted: bool = False

    @property
    def duration(self) -> float:
        """Receiver-perceived transfer time."""
        return self.delivered - self.start

    @property
    def throughput(self) -> float:
        """Goodput in bytes/second as the receiver perceives it."""
        return self.nbytes / self.duration if self.duration > 0 else float("inf")


class _WindowSchedule:
    """One send's congestion window as a step function of time.

    Steps sit on the lattice ``t_k = t_(k-1) + rtt`` accumulated from
    the instant the transfer was submitted (``t_0 + k * rtt`` rounds
    differently). Implements
    :class:`~repro.simcore.fluid.CapSchedule`; the window itself lives
    on the connection, which outlasts the send.
    """

    __slots__ = ("conn", "next_at")

    def __init__(self, conn: "TcpConnection", start: float):
        self.conn = conn
        self.next_at = start + conn.route.rtt

    def advance(self, now: float) -> float:
        conn = self.conn
        next_at = self.next_at
        if next_at <= now:
            # Catch up over locals; written back once.
            params = conn.params
            ssthresh = params.ssthresh
            mss = params.mss
            max_window = params.max_window
            rtt = conn.route.rtt
            cwnd = conn._cwnd
            while next_at <= now:
                if cwnd < ssthresh:
                    # Slow start: exponential growth per RTT.
                    grown = cwnd * 2.0
                else:
                    # Congestion avoidance: one MSS per RTT -- the slow
                    # climb that makes the first timestep over a
                    # long-RTT path visibly laggard (Figure 17).
                    grown = cwnd + mss
                # min(grown, max_window), without the call
                cwnd = max_window if max_window < grown else grown
                if cwnd < max_window:
                    next_at += rtt
                else:
                    next_at = float("inf")
            conn._cwnd = cwnd
            self.next_at = next_at
        return conn._rate_cap()


class TcpConnection:
    """A persistent, simulated TCP stream between two hosts.

    ``extra_usage`` adds fluid resources every transfer on this
    connection must also traverse (e.g. a DPSS server's disk pool), so
    storage and network contention are resolved by one allocator.
    """

    _ids = 0

    def __init__(
        self,
        network: "Network",
        src: str,
        dst: str,
        params: Optional[TcpParams] = None,
        *,
        extra_usage: Optional[Dict[FluidResource, float]] = None,
    ):
        TcpConnection._ids += 1
        self.id = TcpConnection._ids
        self.network = network
        self.src = src
        self.dst = dst
        self.params = params if params is not None else TcpParams()
        self.route = network.route(src, dst)
        usage: Dict[FluidResource, float] = {
            res: 1.0 for res in network.path_resources(src, dst)
        }
        if extra_usage:
            for res, coeff in extra_usage.items():
                usage[res] = usage.get(res, 0.0) + coeff
        self._usage = usage
        #: QoS bandwidth reservation applied to every transfer (bytes/s)
        self.reserved_rate = 0.0
        self._cwnd = self.params.init_cwnd
        self._established = False
        self._busy = False
        self.history: List[TransferStats] = []
        #: optional external cap (bytes/s) from host-side effects, e.g.
        #: a reader thread pinned to half a CPU; inf = unconstrained.
        self.host_cap: float = float("inf")
        self._current_task: Optional[FluidTask] = None
        self._current_proc: Optional[Process] = None

    # -- dynamics ---------------------------------------------------------
    @property
    def cwnd(self) -> float:
        """Current congestion window in bytes."""
        self._sync_window()
        return self._cwnd

    def _sync_window(self) -> None:
        """Apply the window steps due by now; call before reading ``_cwnd``.

        While a send's window is still opening ``_cwnd`` lags the
        schedule its fluid task carries.
        """
        task = self._current_task
        if task is not None and task.schedule is not None:
            task.schedule.advance(self.network.env.now)

    def _rate_cap(self) -> float:
        rtt = max(self.route.rtt, 1e-9)
        window = self._cwnd if self.params.slow_start else self.params.max_window
        return min(window / rtt, self.host_cap)

    def set_host_cap(self, cap: float) -> None:
        """Apply/update a host-side rate cap, mid-transfer if needed."""
        check_non_negative("cap", cap)
        self.host_cap = cap if cap > 0 else 1e-9
        if self._current_task is not None:
            self._sync_window()
            self.network.sched.set_cap(self._current_task, self._rate_cap())

    def send(self, nbytes: float, *, label: str = "tcp") -> Event:
        """Transfer ``nbytes``; the event fires when the receiver has all.

        The event value is a :class:`TransferStats`. Sends on one
        connection are sequential; issuing a second send while one is
        in flight raises, mirroring a byte-stream socket.
        """
        check_positive("nbytes", nbytes)
        if self._busy:
            raise RuntimeError(
                f"connection {self.src}->{self.dst} already has a send in flight"
            )
        self._busy = True
        proc = self.network.env.process(self._send_proc(nbytes, label))
        self._current_proc = proc
        return proc

    def abort(self) -> bool:
        """Tear down the in-flight send (policy timeout, injected fault).

        The send process resumes immediately and resolves *successfully*
        with a :class:`TransferStats` whose ``aborted`` flag is set, so
        waiters never see an unhandled failure. The connection resets:
        it must re-establish and re-run slow start on the next send
        (TCP's behaviour after a reset/loss storm). Returns ``True``
        if a transfer was actually in flight.
        """
        proc = self._current_proc
        if not self._busy or proc is None or not proc.is_alive:
            return False
        proc.interrupt("abort")
        return True

    def _send_proc(self, nbytes: float, label: str):
        env = self.network.env
        sched = self.network.sched
        rtt = self.route.rtt
        start = env.now
        try:
            if not self._established:
                # SYN handshake: one RTT before data flows.
                yield env.timeout(rtt)
                self._established = True

            task = FluidTask(
                f"{label}:{self.src}->{self.dst}",
                work=float(nbytes),
                usage=self._usage,
                cap=self._rate_cap(),
                floor=self.reserved_rate,
            )
            if self.params.slow_start and self._cwnd < self.params.max_window:
                task.schedule = _WindowSchedule(self, env.now)
            self._current_task = task
            yield sched.submit(task)
            if task.schedule is not None:
                # Once, so the persistent window carries to the next send.
                task.schedule.advance(env.now)
                if task.schedule.next_at != float("inf"):
                    # A send that finished with its window still opening
                    # used to be resumed through the AnyOf it shared with
                    # its RTT timer, one queue hop after the transfer's
                    # done event. Other processes resumed at this instant
                    # kept their place relative to that hop (two
                    # same-DATE lines in unstriped sc99-flaky swap
                    # without it), so it stays.
                    yield env.timeout(0.0)
            self._current_task = None
            sent = env.now
            # Last byte still has to propagate to the receiver.
            if self.route.latency > 0:
                yield env.timeout(self.route.latency)
            stats = TransferStats(
                nbytes=float(nbytes), start=start, sent=sent, delivered=env.now
            )
            self.history.append(stats)
            return stats
        except Interrupt:
            # abort(): withdraw the fluid task (its done event succeeds,
            # so abandoned waiters never see an undefused failure) and
            # reset the connection. Aborted transfers do not enter
            # ``history``; the bytes never fully arrived.
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
