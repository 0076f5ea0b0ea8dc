"""Fault plans: deterministic schedules of injected failures.

A :class:`FaultPlan` is an immutable, time-sorted schedule of fault
events -- server crashes and slowdowns, link flaps, loss spikes, and
master stalls -- that the :class:`~repro.faults.injector.FaultInjector`
replays against a simulated session. Plans are plain data: they can be
read from JSON (``--faults plan.json`` on the CLI) and
carry no randomness of their own, so a given (plan, seed) pair always
produces a bit-identical event stream.

The event vocabulary mirrors what the paper's WAN testbeds actually
did to Visapult: DPSS block servers dropped out or ran hot (section
3.5's commodity hardware), NTON/SciNet segments flapped and carried
competing traffic (section 4.4), and TCP collapsed under loss
(section 7's "wide area network behaviors observed during testing").
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import Any, ClassVar, Dict, Iterable, List, Tuple, Type, Union

from repro.util.validation import check_non_negative, check_positive


def _check_window(at: float, duration: float) -> None:
    check_non_negative("at", at)
    check_positive("duration", duration)


def _check_factor(factor: float) -> None:
    if not 0.0 < factor <= 1.0:
        raise ValueError(f"factor must be in (0, 1], got {factor}")


@dataclass(frozen=True)
class ServerCrash:
    """A DPSS block server goes dark for ``duration`` seconds.

    The server refuses new reads (``online`` drops) and anything in
    flight against its disks or NIC stalls until the window closes --
    "the DPSS stripes without replication, so losing a server makes a
    stripe's blocks unreachable until it returns" (unless the dataset
    carries replicas and the master re-balances).
    """

    at: float
    duration: float
    server: str
    kind: ClassVar[str] = "server_crash"

    def __post_init__(self):
        _check_window(self.at, self.duration)


@dataclass(frozen=True)
class ServerSlowdown:
    """A server's disk pool degrades to ``factor`` of its bandwidth.

    Models a failing disk or a busy co-tenant on the commodity block
    server; reads still complete, just slower.
    """

    at: float
    duration: float
    server: str
    factor: float = 0.25
    kind: ClassVar[str] = "server_slowdown"

    def __post_init__(self):
        _check_window(self.at, self.duration)
        _check_factor(self.factor)


@dataclass(frozen=True)
class LinkFlap:
    """A network link drops to (effectively) zero capacity.

    ``link`` names a :class:`~repro.netsim.link.Link`; the injector
    also understands the alias ``"wan"`` for a campaign's WAN segment.
    """

    at: float
    duration: float
    link: str
    kind: ClassVar[str] = "link_flap"

    def __post_init__(self):
        _check_window(self.at, self.duration)


@dataclass(frozen=True)
class LossSpike:
    """Packet loss collapses a link's usable throughput to ``factor``.

    The fluid model carries goodput, not packets, so a loss episode is
    expressed as the throughput multiplier TCP would realise under
    that loss rate -- section 7's observation that "TCP performance
    over the WAN" was the limiting factor.
    """

    at: float
    duration: float
    link: str
    factor: float = 0.3
    kind: ClassVar[str] = "loss_spike"

    def __post_init__(self):
        _check_window(self.at, self.duration)
        _check_factor(self.factor)


@dataclass(frozen=True)
class MasterStall:
    """The DPSS master stops answering lookups until the window ends.

    Open/lookup requests issued during the stall wait for the master
    to come back; established block streams are unaffected (Figure 7
    separates the control path from the data paths).
    """

    at: float
    duration: float
    kind: ClassVar[str] = "master_stall"

    def __post_init__(self):
        _check_window(self.at, self.duration)


FaultEvent = Union[ServerCrash, ServerSlowdown, LinkFlap, LossSpike, MasterStall]

_KINDS: Dict[str, Type[Any]] = {
    cls.kind: cls
    for cls in (ServerCrash, ServerSlowdown, LinkFlap, LossSpike, MasterStall)
}


#: the JSON values each event field accepts, by its annotation
_FIELD_TYPES: Dict[Any, Tuple[type, ...]] = {
    "float": (int, float),
    "str": (str,),
}


def event_from_dict(data: Any) -> FaultEvent:
    """Build one fault event from its JSON dictionary form.

    Anything but an object holding one kind's fields, each of its JSON
    type, raises ``ValueError`` naming the kind.
    """
    if not isinstance(data, dict):
        raise ValueError(f"must be an object, got {data!r}")
    payload = dict(data)
    kind = payload.pop("kind", None)
    if kind not in _KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    declared = {f.name: f for f in fields(_KINDS[kind])}
    unknown = sorted(set(payload) - set(declared))
    if unknown:
        raise ValueError(
            f"{kind}: unknown key(s) {unknown}; keys: {list(declared)}"
        )
    missing = [
        name
        for name, f in declared.items()
        if f.default is MISSING and name not in payload
    ]
    if missing:
        raise ValueError(f"{kind}: missing key(s) {missing}")
    for name, value in payload.items():
        kinds = _FIELD_TYPES[declared[name].type]
        if not isinstance(value, kinds) or isinstance(value, bool):
            noun = "number" if float in kinds else "string"
            raise ValueError(
                f"{kind}: key {name!r} must be a JSON {noun}, got {value!r}"
            )
    try:
        return _KINDS[kind](**payload)
    except ValueError as exc:
        raise ValueError(f"{kind}: {exc}") from None


def plan_from_data(data: Any) -> "FaultPlan":
    """A plan from parsed JSON: a list of events or ``{"events": [...]}``.

    Any other shape, and any bad event, raises ``ValueError``; an
    event's error names its index.
    """
    if isinstance(data, dict):
        unknown = sorted(set(data) - {"events"})
        if unknown:
            raise ValueError(
                f"unknown fault plan key(s) {unknown}; keys: ['events']"
            )
        data = data.get("events", [])
    if not isinstance(data, list):
        raise ValueError("fault plan JSON must be a list or {'events': [...]}")
    events = []
    for index, item in enumerate(data):
        try:
            events.append(event_from_dict(item))
        except ValueError as exc:
            raise ValueError(f"fault event {index}: {exc}") from None
    return FaultPlan.of(events)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-ordered schedule of fault events."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self):
        ordered = tuple(sorted(self.events, key=lambda ev: ev.at))
        object.__setattr__(self, "events", ordered)

    @classmethod
    def empty(cls) -> "FaultPlan":
        """A plan that injects nothing (bit-identical to no plan)."""
        return cls()

    @classmethod
    def of(cls, events: Iterable[FaultEvent]) -> "FaultPlan":
        """A plan from any iterable of fault events."""
        return cls(events=tuple(events))

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def horizon(self) -> float:
        """Time at which the last fault window closes."""
        return max((ev.at + ev.duration for ev in self.events), default=0.0)

    def targets(self) -> List[str]:
        """Distinct server/link names the plan touches (sorted)."""
        names = set()
        for ev in self.events:
            name = getattr(ev, "server", None) or getattr(ev, "link", None)
            if name:
                names.add(name)
        return sorted(names)
