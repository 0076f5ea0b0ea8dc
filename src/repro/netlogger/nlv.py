"""NLV-style plots, rendered as text.

"NLV, the NetLogger visualization tool, generates two dimensional
plots from the raw data accumulated during a run" (section 3.6). The
figures in the paper put event tags on the vertical axis and time on
the horizontal axis, one mark per event; :func:`lifeline_plot`
reproduces that layout in a terminal. :func:`series_plot` is a small
scatter/series plot for derived quantities (per-frame load times
etc.).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.netlogger.analysis import EventLog
from repro.netlogger.events import (
    ALLOC_TAGS,
    BACKEND_TAGS,
    CACHE_TAGS,
    HEALTH_TAGS,
    SERVICE_TAGS,
    STRIPE_TAGS,
    TILE_TAGS,
    VIEWER_TAGS,
)


def lifeline_plot(log: EventLog, *, width: int = 100) -> str:
    """ASCII event-lifeline plot in the style of Figures 10/12-17.

    Rows are event tags bottom-to-top in pipeline order; columns are
    time. Events on even frames are marked ``o``, odd frames ``x``,
    mirroring the red/blue alternation of the paper's NLV figures.
    """
    if width < 20:
        raise ValueError("width must be >= 20")
    events = log.events
    present = {ev.event for ev in events}
    # Service/cache lanes sit above the per-session pipeline lanes,
    # mirroring how admission happens "above" the data path. Tile
    # lanes span backend-to-viewer, so they sit between the viewer
    # and cache groups rather than being dropped as unknown tags.
    # Allocator-cost lanes sit at the bottom, under the data path
    # whose events they account for; stripe/health lanes sit just
    # above them, at the DPSS end of the pipeline.
    lanes = (
        SERVICE_TAGS[::-1]
        + CACHE_TAGS[::-1]
        + TILE_TAGS[::-1]
        + VIEWER_TAGS[::-1]
        + BACKEND_TAGS[::-1]
        + STRIPE_TAGS[::-1]
        + HEALTH_TAGS[::-1]
        + ALLOC_TAGS[::-1]
    )
    tags = [t for t in lanes if t in present]
    if not tags:
        return "(empty log)"

    t0 = events[0].ts
    t1 = events[-1].ts
    span = max(t1 - t0, 1e-9)
    label_width = max(len(t) for t in tags) + 1
    plot_width = width - label_width - 1

    rows: Dict[str, List[str]] = {
        tag: [" "] * plot_width for tag in tags
    }
    for ev in events:
        if ev.event not in rows:
            continue
        col = int((ev.ts - t0) / span * (plot_width - 1))
        frame = ev.get("frame", 0) or 0
        marker = "o" if frame % 2 == 0 else "x"
        rows[ev.event][col] = marker

    lines = []
    for tag in tags:
        lines.append(f"{tag:>{label_width}}|{''.join(rows[tag])}")
    axis = f"{'':>{label_width}}+{'-' * plot_width}"
    labels = (
        f"{'':>{label_width}} {t0:<12.2f}"
        f"{'time/sec':^{max(plot_width - 24, 8)}}{t1:>12.2f}"
    )
    return "\n".join(lines + [axis, labels])


def series_plot(
    series: Dict[str, Sequence[Tuple[float, float]]],
    *,
    width: int = 72,
    height: int = 16,
    title: str = "",
) -> str:
    """Scatter multiple (x, y) series in one ASCII frame.

    Each series gets a distinct marker; axes autoscale over all data.
    """
    if width < 20 or height < 5:
        raise ValueError("plot too small")
    markers = "ox+*#@%&"
    points = [
        (x, y, markers[i % len(markers)])
        for i, (_, pts) in enumerate(sorted(series.items()))
        for x, y in pts
    ]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = max(x_hi - x_lo, 1e-12)
    y_span = max(y_hi - y_lo, 1e-12)

    grid = [[" "] * width for _ in range(height)]
    for x, y, m in points:
        col = int((x - x_lo) / x_span * (width - 1))
        row = height - 1 - int((y - y_lo) / y_span * (height - 1))
        grid[row][col] = m

    lines = []
    if title:
        lines.append(title)
    legend = "  ".join(
        f"{markers[i % len(markers)]}={name}"
        for i, name in enumerate(sorted(series))
    )
    lines.append(legend)
    lines.append(f"y: [{y_lo:.3g}, {y_hi:.3g}]")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f" x: [{x_lo:.3g}, {x_hi:.3g}]")
    return "\n".join(lines)

