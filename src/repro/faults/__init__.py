"""Deterministic fault injection for Visapult campaign replays.

The paper ran Visapult over live WANs -- NTON, ESnet, the SC99 show
floor -- where block servers dropped out, links flapped, and TCP
collapsed under loss. This package recreates those conditions *on
purpose*: a :class:`FaultPlan` schedules failures against the
simulated session, a :class:`FaultInjector` replays them on the sim
clock, and a :class:`RequestPolicy` gives the DPSS client the
timeout/retry/hedging machinery to ride them out.

Everything is seeded and replayable: the same (plan, seed) pair yields
a bit-identical NetLogger event stream, and an empty plan is
bit-identical to running without the subsystem at all.

A *drill* file bundles a plan with the campaign context it was tuned
for (``examples/plans/sc99_flaky.json``)::

    {
      "campaign": "sc99_showfloor",
      "scaled": true,
      "seed": 1,
      "policy": "aggressive",
      "events": [ {"kind": "server_crash", "at": 1.0, ...}, ... ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Union

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FaultEvent,
    FaultPlan,
    LinkFlap,
    LossSpike,
    MasterStall,
    ServerCrash,
    ServerSlowdown,
    event_from_dict,
    plan_from_data,
)
from repro.faults.policy import RequestPolicy

__all__ = [
    "FaultDrill",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "LinkFlap",
    "LossSpike",
    "MasterStall",
    "RequestPolicy",
    "ServerCrash",
    "ServerSlowdown",
    "event_from_dict",
    "load_drill",
    "plan_from_data",
    "policy_from_spec",
]


@dataclass(frozen=True)
class FaultDrill:
    """A fault plan plus the campaign context it was tuned against.

    Fields other than ``plan`` are optional overrides the CLI applies
    when the user does not specify them explicitly.
    """

    plan: FaultPlan
    campaign: Optional[str] = None
    scaled: bool = False
    overlapped: bool = False
    policy: Optional[RequestPolicy] = None
    seed: Optional[int] = None


def policy_from_spec(
    spec: Union[None, str, Dict[str, Any], RequestPolicy],
) -> Optional[RequestPolicy]:
    """Build a policy from JSON-ish input.

    Accepts ``None``, an existing policy, the named presets
    ``"default"``/``"aggressive"``, or a dict of
    :class:`RequestPolicy` keyword arguments.
    """
    if spec is None or isinstance(spec, RequestPolicy):
        return spec
    if isinstance(spec, str):
        if spec == "default":
            return RequestPolicy()
        if spec == "aggressive":
            return RequestPolicy.aggressive()
        raise ValueError(
            f"unknown policy preset {spec!r}; expected 'default' or 'aggressive'"
        )
    if isinstance(spec, dict):
        accepted = [f.name for f in fields(RequestPolicy)]
        unknown = [key for key in spec if key not in accepted]
        if unknown:
            raise ValueError(
                f"unknown policy key(s) {', '.join(map(repr, unknown))}; "
                f"accepted keys: {', '.join(accepted)}"
            )
        return RequestPolicy(**spec)
    raise ValueError(
        f"policy must be 'default', 'aggressive' or an object, got {spec!r}"
    )


def load_drill(path: str) -> FaultDrill:
    """Load a drill file: a fault plan plus optional campaign context.

    The file may be a bare event list (plan only), or an object with
    an ``events`` list plus any of ``campaign``, ``scaled``,
    ``overlapped``, ``policy``, ``seed``. An unknown key, a value of
    the wrong JSON type or a bad event raises ``ValueError``.
    """
    # repro.config imports this package, so its table loads late.
    from repro.config import _check_json_types

    with open(path) as f:
        data = json.loads(f.read())
    if not isinstance(data, dict):
        return FaultDrill(plan=plan_from_data(data))
    accepted = ["events"] + [
        f.name for f in fields(FaultDrill) if f.name != "plan"
    ]
    unknown = [key for key in data if key not in accepted]
    if unknown:
        raise ValueError(
            f"unknown drill key(s) {', '.join(map(repr, unknown))}; "
            f"accepted keys: {', '.join(accepted)}"
        )
    _check_json_types(data, "drill")
    return FaultDrill(
        plan=plan_from_data(data.get("events", [])),
        campaign=data.get("campaign"),
        scaled=bool(data.get("scaled", False)),
        overlapped=bool(data.get("overlapped", False)),
        policy=policy_from_spec(data.get("policy")),
        seed=data.get("seed"),
    )
