"""Max-min fair allocation with per-flow caps and usage coefficients.

This pure function is the core of the fluid network/CPU model. Each
*flow* f has a rate cap ``cap_f`` and consumes each *resource* r at
``a[f][r] * rate_f``. Allocation is classic progressive filling in
rate space: all unfrozen flows raise their rates together; a flow
freezes when it hits its cap, or when any resource it uses saturates.

With unit coefficients this is textbook max-min fairness (parallel TCP
streams across a bottleneck, render threads on a CPU pool).
Coefficients let a flow weigh on a resource more than once (e.g. a
transfer crossing the same switch fabric twice).

Unit convention: every flow sharing a resource must be expressed in
the same units (bytes/s for links and NICs, CPU-seconds/s for CPU
pools), because "equal rate increase" is only meaningful within one
unit system. Cross-domain couplings (reader-thread CPU overhead
slowing both the transfer and a co-located render) are modelled at the
host layer (:mod:`repro.netsim.host`) by adjusting caps/capacities,
not by mixing units inside one allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping

_EPS = 1e-12
_REL = 1e-9


def cap_binds(rate: float, cap: float, floor: float = 0.0) -> bool:
    """Whether ``cap`` held a flow back in the solve that gave it ``rate``.

    The negation of progressive filling's own tests: a flow that ends a
    solve strictly inside its cap (by both ``_EPS`` and ``_REL``) never
    supplied a round's ``dt`` and never froze at cap, so *raising* its
    cap reproduces every round -- and every rate -- bit for bit. A
    floor is granted as ``min(floor, cap)`` before filling starts, so
    a reserved flow always counts as bound.
    """
    return (
        floor > 0
        or rate + _EPS >= cap
        or rate >= cap - _REL * max(1.0, cap)
    )


@dataclass(frozen=True)
class ResourceSpec:
    """A capacity constraint, e.g. a link, NIC, disk pool or CPU pool."""

    name: str
    capacity: float

    def __post_init__(self):
        if self.capacity < 0:
            raise ValueError(
                f"resource {self.name!r} capacity must be >= 0, "
                f"got {self.capacity}"
            )


@dataclass(frozen=True)
class FlowSpec:
    """A continuously divisible demand over a set of resources.

    ``usage`` maps resource name -> consumption per unit of flow rate.
    Coefficients must be >= 0; zero-coefficient entries are ignored.

    ``floor`` is a QoS bandwidth reservation (the paper's section 5
    asks for exactly this): the flow is granted ``min(floor, cap)``
    before any fair sharing happens, then competes normally for more.
    If reservations oversubscribe a resource they are scaled back
    proportionally (admission control belongs to the caller).
    """

    name: str
    cap: float
    usage: Mapping[str, float] = field(default_factory=dict)
    floor: float = 0.0

    def __post_init__(self):
        if self.cap < 0:
            raise ValueError(f"flow {self.name!r} cap must be >= 0, got {self.cap}")
        if self.floor < 0:
            raise ValueError(
                f"flow {self.name!r} floor must be >= 0, got {self.floor}"
            )
        for rname, coeff in self.usage.items():
            if coeff < 0:
                raise ValueError(
                    f"flow {self.name!r} has negative usage {coeff} "
                    f"on resource {rname!r}"
                )


def max_min_allocation(
    flows: Iterable[FlowSpec], resources: Iterable[ResourceSpec]
) -> Dict[str, float]:
    """Allocate a rate to each flow under max-min fairness.

    Returns ``{flow_name: rate}``. Unknown resource names in a flow's
    usage raise ``KeyError`` so that topology wiring bugs fail loudly.
    """
    flows = list(flows)
    res_by_name = {r.name: r for r in resources}
    for f in flows:
        for rname in f.usage:
            if rname not in res_by_name:
                raise KeyError(
                    f"flow {f.name!r} references unknown resource {rname!r}"
                )
    names = [f.name for f in flows]
    if len(set(names)) != len(names):
        raise ValueError("duplicate flow names in allocation request")
    return fill_rates(flows, res_by_name)


def fill_rates(
    flows: List[FlowSpec], res_by_name: Mapping[str, ResourceSpec]
) -> Dict[str, float]:
    """Progressive-filling core of :func:`max_min_allocation`.

    Skips the input validation so callers that already guarantee
    well-formed specs (the fluid scheduler solving one connected
    component at a time) avoid re-walking every flow. ``res_by_name``
    only needs the resources actually referenced by ``flows``: filling
    is separable across disjoint resource components, so restricting
    the inputs to one component yields that component's rates exactly.
    """
    rates: Dict[str, float] = {f.name: 0.0 for f in flows}
    residual = {r.name: float(r.capacity) for r in res_by_name.values()}

    # -- phase 1: grant QoS reservations (floors) ------------------------
    reserved = [f for f in flows if f.floor > _EPS and f.cap > _EPS]
    if reserved:
        # Most-constrained scale factor so oversubscribed reservations
        # degrade together instead of starving later grants.
        scale = 1.0
        demand_r: Dict[str, float] = {}
        for f in reserved:
            grant = min(f.floor, f.cap)
            for rname, coeff in f.usage.items():
                demand_r[rname] = demand_r.get(rname, 0.0) + coeff * grant
        for rname, d in demand_r.items():
            if d > residual[rname] + _EPS:
                scale = min(scale, residual[rname] / d)
        for f in reserved:
            grant = min(f.floor, f.cap) * scale
            rates[f.name] = grant
            for rname, coeff in f.usage.items():
                residual[rname] = max(residual[rname] - coeff * grant, 0.0)

    # -- phase 2: max-min fill the remainder ------------------------------
    # Flows pinned: zero cap, already at cap via the floor, or using an
    # exhausted resource.
    active: List[FlowSpec] = []
    for f in flows:
        usable = (
            f.cap > rates[f.name] + _EPS
            and all(
                residual[rname] > _EPS or coeff <= _EPS
                for rname, coeff in f.usage.items()
            )
        )
        if usable:
            active.append(f)

    while active:
        # Aggregate demand per resource per unit of common rate increase.
        demand: Dict[str, float] = {}
        for f in active:
            for rname, coeff in f.usage.items():
                if coeff > _EPS:
                    demand[rname] = demand.get(rname, 0.0) + coeff

        # Largest common increase before a cap or a resource limit.
        dt = min(f.cap - rates[f.name] for f in active)
        for rname, d in demand.items():
            if d > _EPS:
                dt = min(dt, residual[rname] / d)
        dt = max(dt, 0.0)

        for f in active:
            rates[f.name] += dt
        for rname, d in demand.items():
            residual[rname] = max(residual[rname] - dt * d, 0.0)

        # Freeze flows at cap or on a saturated resource.
        saturated = {
            rname
            for rname in demand
            if residual[rname]
            <= _REL * max(1.0, res_by_name[rname].capacity)
        }
        still_active: List[FlowSpec] = []
        for f in active:
            at_cap = rates[f.name] >= f.cap - _REL * max(1.0, f.cap)
            on_sat = any(
                rname in saturated and coeff > _EPS
                for rname, coeff in f.usage.items()
            )
            if at_cap or on_sat:
                if at_cap:
                    rates[f.name] = f.cap
            else:
                still_active.append(f)
        if len(still_active) == len(active):  # pragma: no cover - guard
            # dt == 0 without any freeze is numerically impossible, but
            # never loop forever if float weirdness proves otherwise.
            break
        active = still_active

    return rates
