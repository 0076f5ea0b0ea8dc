"""NetLogger-style instrumentation and analysis.

"NetLogger includes tools for generating precision event logs that can
be used to provide detailed end-to-end application and system level
monitoring, and for visualizing log data to view the state of the
distributed system" (section 3.6). This package reproduces the parts
Visapult uses:

- :mod:`~repro.netlogger.events` -- the event vocabulary of Tables 1-2
  (BE_*/V_* tags) and the ULM wire format;
- :mod:`~repro.netlogger.logger` -- per-component loggers stamping
  events against a sim or wall clock, forwarding to a collector;
- :mod:`~repro.netlogger.daemon` -- the netlogd-like collector;
- :mod:`~repro.netlogger.analysis` -- span extraction (load time L,
  render time R, frame times) from event pairs;
- :mod:`~repro.netlogger.nlv` -- NLV-style ASCII lifeline plots of the
  kind shown in Figures 10 and 12-17.
"""

from repro.netlogger.events import (
    ALLOC_TAGS,
    BACKEND_TAGS,
    TAG_PREFIXES,
    TILE_TAGS,
    VIEWER_TAGS,
    NetLogEvent,
    Tags,
    declared_tags,
    format_ulm,
    parse_ulm,
)
from repro.netlogger.logger import NetLogger
from repro.netlogger.daemon import NetLogDaemon
from repro.netlogger.analysis import EventLog, Span
from repro.netlogger.nlv import lifeline_plot, series_plot
from repro.netlogger.skew import causality_violations, correct_skew, estimate_offsets

__all__ = [
    "ALLOC_TAGS",
    "BACKEND_TAGS",
    "TAG_PREFIXES",
    "TILE_TAGS",
    "VIEWER_TAGS",
    "declared_tags",
    "NetLogEvent",
    "Tags",
    "format_ulm",
    "parse_ulm",
    "NetLogger",
    "NetLogDaemon",
    "EventLog",
    "Span",
    "lifeline_plot",
    "series_plot",
    "causality_violations",
    "correct_skew",
    "estimate_offsets",
]
