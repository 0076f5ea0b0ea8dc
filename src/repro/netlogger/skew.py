"""Clock-skew estimation and correction for distributed event logs.

NetLogger's "precision event logs ... end-to-end" only line up if the
participating hosts' clocks agree; the original toolkit leaned on NTP.
When logs arrive skewed, causality in the traces breaks: a viewer can
appear to receive a payload before the back end sent it.

This module estimates per-host offsets from the causality constraints
inherent in the Visapult protocol -- a V_*PAYLOAD_END on the viewer
can never truly precede its BE_*_SEND on a back end host, and can lag
it by at most the observed span of the exchange -- and rewrites event
timestamps onto the reference host's clock, the host whose name sorts
first.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.netlogger.events import NetLogEvent, Tags

#: (send tag on the back end, receive tag on the viewer) exchange pairs
_EXCHANGES: Tuple[Tuple[str, str], ...] = (
    (Tags.BE_LIGHT_SEND, Tags.V_LIGHTPAYLOAD_END),
    (Tags.BE_HEAVY_SEND, Tags.V_HEAVYPAYLOAD_END),
)


def estimate_offsets(events: Iterable[NetLogEvent]) -> Dict[str, float]:
    """Per-host clock offsets relative to the reference host.

    For every (send, receive) exchange between host pair (A, B), the
    true one-way delay d satisfies ``t_B_recv - t_A_send = d + skew``
    with ``d >= 0``. Using the *minimum* observed difference over many
    exchanges as the skew estimate is the classic Cristian/NTP-style
    bound: it is exact when at least one exchange experienced
    negligible delay, and an upper bound on skew otherwise.

    Returns ``{host: offset}`` where ``corrected = ts - offset``.
    Hosts with no exchange against the reference keep offset 0.
    """
    events = list(events)
    if not events:
        return {}
    hosts = sorted({e.host for e in events})
    reference_host = hosts[0]

    # Collect min(t_recv - t_send) per (send_host, recv_host) pair.
    sends: Dict[Tuple[str, object, object, str], NetLogEvent] = {}
    for e in events:
        for send_tag, _ in _EXCHANGES:
            if e.event == send_tag:
                sends[(send_tag, e.get("rank"), e.get("frame"), e.host)] = e
    pair_min: Dict[Tuple[str, str], float] = {}
    for e in events:
        for send_tag, recv_tag in _EXCHANGES:
            if e.event != recv_tag:
                continue
            for (tag, rank, frame, send_host), s in sends.items():
                if tag != send_tag:
                    continue
                if rank != e.get("rank") or frame != e.get("frame"):
                    continue
                diff = e.ts - s.ts
                key = (send_host, e.host)
                if key not in pair_min or diff < pair_min[key]:
                    pair_min[key] = diff

    # Offsets: assume the true minimal one-way delay is ~0, so the
    # minimal observed difference IS the receiver's skew relative to
    # the sender.
    offsets: Dict[str, float] = {h: 0.0 for h in hosts}
    # Propagate from the reference outward (single-hub topology:
    # viewer <-> each back end host covers Visapult's graph).
    changed = True
    resolved = {reference_host}
    while changed:
        changed = False
        for (a, b), diff in pair_min.items():
            if a in resolved and b not in resolved:
                offsets[b] = offsets[a] + diff
                resolved.add(b)
                changed = True
            elif b in resolved and a not in resolved:
                offsets[a] = offsets[b] - diff
                resolved.add(a)
                changed = True
    return offsets


def correct_skew(events: Iterable[NetLogEvent]) -> List[NetLogEvent]:
    """Rewrite all timestamps onto the reference host's clock."""
    events = list(events)
    offsets = estimate_offsets(events)
    out = []
    for e in events:
        offset = offsets.get(e.host, 0.0)
        out.append(
            NetLogEvent(
                ts=e.ts - offset,
                event=e.event,
                host=e.host,
                prog=e.prog,
                level=e.level,
                data=dict(e.data),
            )
        )
    return sorted(out, key=lambda e: e.ts)


def causality_violations(events: Iterable[NetLogEvent]) -> int:
    """Count receive-before-send pairs (the skew symptom)."""
    events = list(events)
    count = 0
    sends: Dict[Tuple[str, object, object], float] = {}
    for e in events:
        for send_tag, recv_tag in _EXCHANGES:
            if e.event == send_tag:
                sends[(send_tag, e.get("rank"), e.get("frame"))] = e.ts
    for e in events:
        for send_tag, recv_tag in _EXCHANGES:
            if e.event != recv_tag:
                continue
            key = (send_tag, e.get("rank"), e.get("frame"))
            if key in sends and e.ts < sends[key] - 1e-12:
                count += 1
    return count
