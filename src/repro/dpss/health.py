"""Per-server health tracking for redundant DPSS reads.

The :class:`~repro.dpss.stripe.StripeMap` makes every server optional;
the :class:`HealthTracker` decides *which* one to leave out. It fuses
two deterministic signal streams, both on the simulated clock:

- **latency EWMA** from completed transfers
  (:meth:`observe_latency`), normalised to seconds per MiB so big and
  small reads feed one scale, and
- **fault observations** (:meth:`observe_fault`) fed by the
  :class:`~repro.faults.injector.FaultInjector` observer hook:
  crashes, slowdowns and link flaps add a penalty that decays
  exponentially with a configurable half-life, so a server that
  crashed recently is read around while one that flapped long ago has
  been forgiven.

Everything is deterministic: no RNG, no wall clock -- "seeded" means
the tracker is driven entirely by the seeded simulation, so the same
campaign seed always produces the same avoidance decisions. Ties in
the ranking break on the server name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.netlogger.events import Tags

__all__ = ["ServerHealth", "HealthTracker"]

_MIB = float(2**20)

#: penalty mass added per fault kind when a fault is injected
_FAULT_PENALTY = {
    "server_crash": 1.0,
    "server_slowdown": 0.6,
    "link_flap": 0.4,
    "loss_spike": 0.2,
}


@dataclass
class ServerHealth:
    """Decayed health state for one server."""

    name: str
    #: EWMA of observed seconds-per-MiB (None until first observation)
    latency_ewma: Optional[float] = None
    #: decayed fault penalty mass
    penalty: float = 0.0
    #: sim time the penalty was last decayed to
    penalty_at: float = 0.0
    #: lifetime fault observations (for reporting)
    faults_seen: int = 0
    #: per-kind fault observation counts
    fault_kinds: Dict[str, int] = field(default_factory=dict)


class HealthTracker:
    """Fuses latency EWMAs and decayed fault penalties into a ranking.

    ``now`` is a zero-argument callable returning the current sim
    time (pass ``lambda: env.now``). ``logger`` (a NetLogger) gets
    ``HEALTH_FAULT`` events when fault observations arrive.
    """

    #: the fault penalty's exponential half-life in sim seconds
    half_life = 20.0
    #: the latency EWMA gain
    alpha = 0.3

    def __init__(self, *, now: Callable[[], float], logger=None):
        self._now = now
        self.logger = logger
        self.servers: Dict[str, ServerHealth] = {}

    # -- observation ----------------------------------------------------
    def _state(self, name: str) -> ServerHealth:
        state = self.servers.get(name)
        if state is None:
            state = self.servers[name] = ServerHealth(name=name)
        return state

    def observe_latency(self, name: str, seconds: float, nbytes: float) -> None:
        """Fold one completed transfer into the server's latency EWMA."""
        if nbytes <= 0 or seconds < 0:
            return
        rate = seconds / (nbytes / _MIB)
        state = self._state(name)
        if state.latency_ewma is None:
            state.latency_ewma = rate
        else:
            state.latency_ewma += self.alpha * (rate - state.latency_ewma)

    def observe_fault(self, action: str, kind: str, target: str) -> None:
        """Fault-injector observer: fold FAULT_INJECT events in.

        ``action`` is ``"inject"`` or ``"clear"``; only injections add
        penalty (clears just mean the fault window ended -- the decay
        handles forgiveness). Link-level targets are recorded against
        the target name verbatim; callers map link names to servers if
        they want link faults to bias reads.
        """
        if action != "inject":
            return
        penalty = _FAULT_PENALTY.get(kind)
        if penalty is None:
            return
        state = self._state(target)
        self._decay(state)
        state.penalty += penalty
        state.faults_seen += 1
        state.fault_kinds[kind] = state.fault_kinds.get(kind, 0) + 1
        if self.logger is not None:
            self.logger.log(
                Tags.HEALTH_FAULT,
                server=target,
                kind=kind,
                penalty=round(state.penalty, 6),
            )

    def _decay(self, state: ServerHealth) -> None:
        now = self._now()
        dt = now - state.penalty_at
        if dt > 0 and state.penalty > 0:
            state.penalty *= math.exp(-math.log(2.0) * dt / self.half_life)
        state.penalty_at = now

    # -- ranking --------------------------------------------------------
    def score(self, name: str) -> float:
        """Current badness: decayed penalty + normalised latency term."""
        state = self.servers.get(name)
        if state is None:
            return 0.0
        self._decay(state)
        latency_term = 0.0
        if state.latency_ewma is not None:
            known = [
                s.latency_ewma
                for s in self.servers.values()
                if s.latency_ewma is not None
            ]
            floor = min(known)
            if floor > 0:
                # 0 for the fastest server, grows with the slowdown ratio
                latency_term = max(state.latency_ewma / floor - 1.0, 0.0)
        return state.penalty + latency_term

    def rank(self, names: List[str]) -> List[str]:
        """Names ordered healthiest first; ties break on the name."""
        return sorted(names, key=lambda n: (self.score(n), n))

    def worst(self, names: List[str]) -> Optional[str]:
        """The least healthy of ``names`` (None if the list is empty)."""
        ranked = self.rank(names)
        return ranked[-1] if ranked else None

    def should_avoid(self, name: str, *, threshold: float) -> bool:
        """True when the server's score crosses the avoidance bar."""
        return self.score(name) >= threshold
