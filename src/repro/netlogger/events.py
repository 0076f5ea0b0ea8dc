"""NetLogger event records, the Visapult tag vocabulary, ULM format.

Tags follow Tables 1 and 2 of the paper exactly; the ULM line format
follows the NetLogger convention of ``KEY=value`` fields with ``DATE``,
``HOST``, ``PROG``, ``LVL`` and ``NL.EVNT`` always present.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict

from repro.util.compat import DATACLASS_SLOTS

#: what ``str.isspace`` accepts: a ULM value is one token
_WHITESPACE = re.compile(r"\s")


class Tags:
    """Event tags instrumenting the Visapult pipeline (Tables 1-2)."""

    # -- back end (Table 2) ------------------------------------------
    BE_FRAME_START = "BE_FRAME_START"
    BE_LOAD_START = "BE_LOAD_START"
    BE_LOAD_END = "BE_LOAD_END"
    BE_LIGHT_SEND = "BE_LIGHT_SEND"
    BE_LIGHT_END = "BE_LIGHT_END"
    BE_RENDER_START = "BE_RENDER_START"
    BE_RENDER_END = "BE_RENDER_END"
    BE_HEAVY_SEND = "BE_HEAVY_SEND"
    BE_HEAVY_END = "BE_HEAVY_END"
    BE_FRAME_END = "BE_FRAME_END"

    # -- viewer (Table 1) --------------------------------------------
    V_FRAME_START = "V_FRAME_START"
    V_LIGHTPAYLOAD_START = "V_LIGHTPAYLOAD_START"
    V_LIGHTPAYLOAD_END = "V_LIGHTPAYLOAD_END"
    V_HEAVYPAYLOAD_START = "V_HEAVYPAYLOAD_START"
    V_HEAVYPAYLOAD_END = "V_HEAVYPAYLOAD_END"
    V_FRAME_END = "V_FRAME_END"

    # -- staged-pipeline framework (not in the paper's tables;
    # instruments the shared producer/consumer machinery) -------------
    PIPE_SUMMARY = "PIPE_SUMMARY"
    PIPE_BUFFER = "PIPE_BUFFER"

    # -- concurrency sanitizer (repro.analysis): one tag per finding
    # category, plus the end-of-run summary record ---------------------
    SAN_DEADLOCK = "SAN_DEADLOCK"
    SAN_HANG = "SAN_HANG"
    SAN_CREDIT_LEAK = "SAN_CREDIT_LEAK"
    SAN_PROTOCOL = "SAN_PROTOCOL"
    SAN_LOST_WAKEUP = "SAN_LOST_WAKEUP"
    SAN_BARRIER_STUCK = "SAN_BARRIER_STUCK"
    SAN_REPORT = "SAN_REPORT"

    # -- fault injection (repro.faults): the injector stamps one
    # FAULT_INJECT/FAULT_CLEAR pair per scheduled fault window ---------
    FAULT_INJECT = "FAULT_INJECT"
    FAULT_CLEAR = "FAULT_CLEAR"

    # -- request policy (DpssClient retries under faults): the paper's
    # lossy-WAN degradation story, visible on NLV timelines ------------
    RETRY_TIMEOUT = "RETRY_TIMEOUT"
    RETRY_REFUSED = "RETRY_REFUSED"
    RETRY_BACKOFF = "RETRY_BACKOFF"
    RETRY_FAILOVER = "RETRY_FAILOVER"
    RETRY_HEDGE = "RETRY_HEDGE"
    RETRY_OK = "RETRY_OK"
    RETRY_GIVEUP = "RETRY_GIVEUP"

    # -- graceful degradation: a PE whose read gave up ships a stale or
    # absent texture; the viewer composites the remaining slabs --------
    BE_LOAD_DEGRADED = "BE_LOAD_DEGRADED"
    BE_HEAVY_SKIP = "BE_HEAVY_SKIP"
    V_SLAB_MISSING = "V_SLAB_MISSING"

    # -- multi-viewer serving layer (repro.service): one lifeline per
    # session from arrival through admission control to completion ----
    SVC_ARRIVAL = "SVC_ARRIVAL"
    SVC_QUEUE = "SVC_QUEUE"
    SVC_ADMIT = "SVC_ADMIT"
    SVC_REJECT = "SVC_REJECT"
    SVC_START = "SVC_START"
    SVC_END = "SVC_END"
    #: shard layer: the placement decision (serving site + verdict)
    SVC_PLACE = "SVC_PLACE"
    #: shard layer: a saturated home site spilling to a remote site
    SVC_SPILL = "SVC_SPILL"

    # -- shared render cache (repro.service.cache): lookup outcomes and
    # LRU bookkeeping, keyed (dataset, timestep, axis, slab) -----------
    CACHE_HIT = "CACHE_HIT"
    CACHE_MISS = "CACHE_MISS"
    CACHE_WAIT = "CACHE_WAIT"
    CACHE_INSERT = "CACHE_INSERT"
    CACHE_EVICT = "CACHE_EVICT"
    CACHE_ABANDON = "CACHE_ABANDON"

    # -- tile-based distributed framebuffer (repro.volren.tiles): the
    # owner-routed fragment hop, per-rank tile batches with delta
    # transmission, and the viewer-side receive/assembly lane ----------
    TILE_ROUTE_START = "TILE_ROUTE_START"
    TILE_ROUTE_END = "TILE_ROUTE_END"
    TILE_SEND = "TILE_SEND"
    TILE_SEND_END = "TILE_SEND_END"
    TILE_SKIP = "TILE_SKIP"
    TILE_RECV = "TILE_RECV"
    TILE_RECV_END = "TILE_RECV_END"
    TILE_FRAME_END = "TILE_FRAME_END"

    # -- parity-striped DPSS (repro.dpss.stripe): redundant k-of-n
    # reads that reconstruct a slow server's blocks from parity
    # instead of retrying, plus the health model that biases which
    # servers get the initial reads --------------------------------
    STRIPE_READ = "STRIPE_READ"
    STRIPE_REPAIR = "STRIPE_REPAIR"
    STRIPE_RECONSTRUCT = "STRIPE_RECONSTRUCT"
    STRIPE_CANCEL = "STRIPE_CANCEL"
    STRIPE_GIVEUP = "STRIPE_GIVEUP"
    STRIPE_WRITE = "STRIPE_WRITE"
    HEALTH_FAULT = "HEALTH_FAULT"
    HEALTH_AVOID = "HEALTH_AVOID"

    # -- fluid allocator counters (opt-in via --alloc-stats): sampled
    # re-solve batches plus an end-of-run summary, so NLV can show the
    # allocator's cost alongside the experiment it paid for ------------
    ALLOC_REALLOC = "ALLOC_REALLOC"
    ALLOC_SUMMARY = "ALLOC_SUMMARY"


#: the prefixes a tag may legally carry; ``visapult lint`` enforces
#: that every declared tag and every literal event name matches.
TAG_PREFIXES = (
    "BE_", "V_", "DPSS_", "PIPE_", "SAN_", "FAULT_", "RETRY_",
    "SVC_", "CACHE_", "TILE_", "ALLOC_", "STRIPE_", "HEALTH_",
)


def declared_tags() -> frozenset:
    """The full event-name vocabulary declared on :class:`Tags`."""
    return frozenset(
        value
        for name, value in vars(Tags).items()
        if name.isupper() and isinstance(value, str)
    )


BACKEND_TAGS = (
    Tags.BE_FRAME_START,
    Tags.BE_LOAD_START,
    Tags.BE_LOAD_END,
    Tags.BE_LIGHT_SEND,
    Tags.BE_LIGHT_END,
    Tags.BE_RENDER_START,
    Tags.BE_RENDER_END,
    Tags.BE_HEAVY_SEND,
    Tags.BE_HEAVY_END,
    Tags.BE_FRAME_END,
)

VIEWER_TAGS = (
    Tags.V_FRAME_START,
    Tags.V_LIGHTPAYLOAD_START,
    Tags.V_LIGHTPAYLOAD_END,
    Tags.V_HEAVYPAYLOAD_START,
    Tags.V_HEAVYPAYLOAD_END,
    Tags.V_FRAME_END,
)

SERVICE_TAGS = (
    Tags.SVC_ARRIVAL,
    Tags.SVC_QUEUE,
    Tags.SVC_ADMIT,
    Tags.SVC_REJECT,
    Tags.SVC_START,
    Tags.SVC_END,
    Tags.SVC_PLACE,
    Tags.SVC_SPILL,
)

CACHE_TAGS = (
    Tags.CACHE_HIT,
    Tags.CACHE_MISS,
    Tags.CACHE_WAIT,
    Tags.CACHE_INSERT,
    Tags.CACHE_EVICT,
    Tags.CACHE_ABANDON,
)

TILE_TAGS = (
    Tags.TILE_ROUTE_START,
    Tags.TILE_ROUTE_END,
    Tags.TILE_SEND,
    Tags.TILE_SEND_END,
    Tags.TILE_SKIP,
    Tags.TILE_RECV,
    Tags.TILE_RECV_END,
    Tags.TILE_FRAME_END,
)

STRIPE_TAGS = (
    Tags.STRIPE_READ,
    Tags.STRIPE_REPAIR,
    Tags.STRIPE_RECONSTRUCT,
    Tags.STRIPE_CANCEL,
    Tags.STRIPE_GIVEUP,
    Tags.STRIPE_WRITE,
)

HEALTH_TAGS = (
    Tags.HEALTH_FAULT,
    Tags.HEALTH_AVOID,
)

ALLOC_TAGS = (
    Tags.ALLOC_REALLOC,
    Tags.ALLOC_SUMMARY,
)


@dataclass(frozen=True, **DATACLASS_SLOTS)
class NetLogEvent:
    """One instrumentation event."""

    ts: float
    event: str
    host: str
    prog: str
    level: str = "Usage"
    data: Dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        """Fetch an auxiliary field (FRAME, RANK, NBYTES, ...)."""
        return self.data.get(key, default)


def ulm_head(event: str, host: str, prog: str, level: str) -> str:
    """The fixed fields of a ULM line after ``DATE``."""
    return f"HOST={host} PROG={prog} LVL={level} NL.EVNT={event}"


def ulm_value(key: str, value: Any) -> str:
    """One data value as ULM text: floats to six places, else ``str``."""
    text = f"{value:.6f}" if isinstance(value, float) else str(value)
    if _WHITESPACE.search(text):
        raise ValueError(
            f"ULM values may not contain whitespace: {key}={text!r}"
        )
    return text


def format_ulm(event: NetLogEvent) -> str:
    """Serialise an event as one ULM log line."""
    data = event.data
    fields = "".join(
        f" {key.upper()}={ulm_value(key, data[key])}" for key in sorted(data)
    )
    head = ulm_head(event.event, event.host, event.prog, event.level)
    return f"DATE={event.ts:.6f} {head}{fields}"


def _parse_value(text: str) -> Any:
    """The int, float or str that :func:`format_ulm` writes as ``text``.

    A token is an int or a float exactly when formatting that number
    gives the token back, so ``format_ulm(parse_ulm(line)) == line`` for
    every line :func:`format_ulm` writes: ``4096.000000`` stays a float,
    and ``007`` or ``1e5`` stay strings.
    """
    try:
        number: Any = int(text)
        if str(number) == text:
            return number
    except ValueError:
        pass
    try:
        number = float(text)
        if f"{number:.6f}" == text:
            return number
    except ValueError:
        pass
    return text


def parse_ulm(line: str) -> NetLogEvent:
    """Parse one ULM log line back into an event."""
    fields: Dict[str, str] = {}
    for token in line.split():
        if "=" not in token:
            raise ValueError(f"malformed ULM token {token!r} in {line!r}")
        key, _, value = token.partition("=")
        fields[key] = value
    try:
        ts = float(fields.pop("DATE"))
        host = fields.pop("HOST")
        prog = fields.pop("PROG")
        level = fields.pop("LVL")
        event = fields.pop("NL.EVNT")
    except KeyError as exc:
        raise ValueError(f"ULM line missing required field {exc}") from exc
    data = {key.lower(): _parse_value(value) for key, value in fields.items()}
    return NetLogEvent(
        ts=ts, event=event, host=host, prog=prog, level=level, data=data
    )
