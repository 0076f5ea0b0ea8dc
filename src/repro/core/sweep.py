"""Parameter sweeps over campaigns, with tabular output.

The paper's evaluation is a set of point measurements; a downstream
user of this reproduction usually wants curves (PE counts, WAN rates,
TCP windows). This module runs a family of campaign variants and
collects the per-run quantities into a small result table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

from repro.core.campaign import CampaignConfig, run_campaign
from repro.core.report import CampaignResult


@dataclass
class SweepResult:
    """One sweep: the varied values and the resulting campaign results."""

    parameter: str
    values: List[Any]
    results: List[CampaignResult]
    metrics: Dict[str, List[float]] = field(default_factory=dict)

    def series(self, metric: str) -> List[tuple]:
        """(value, metric) pairs, e.g. for
        :func:`repro.netlogger.nlv.series_plot`. Non-numeric sweep
        values are enumerated by index."""
        ys = self.metrics[metric]
        xs = []
        for i, v in enumerate(self.values):
            xs.append(v if isinstance(v, (int, float)) else i)
        return list(zip(xs, ys))

    def table(self) -> str:
        """A fixed-width text table of every collected metric."""
        names = sorted(self.metrics)
        header = [self.parameter] + names
        rows = [header]
        for i, v in enumerate(self.values):
            rows.append(
                [str(v)] + [f"{self.metrics[m][i]:.3f}" for m in names]
            )
        widths = [
            max(len(r[c]) for r in rows) for c in range(len(header))
        ]
        lines = []
        for r_i, r in enumerate(rows):
            lines.append(
                "  ".join(cell.rjust(w) for cell, w in zip(r, widths))
            )
            if r_i == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)


#: metric name -> extractor over a CampaignResult
DEFAULT_METRICS: Dict[str, Callable[[CampaignResult], float]] = {
    "total_s": lambda r: r.total_time,
    "load_s": lambda r: r.mean_load,
    "render_s": lambda r: r.mean_render,
    "period_s": lambda r: r.seconds_per_timestep,
    "goodput_mbps": lambda r: r.load_throughput_mbps,
}


def sweep(
    base: CampaignConfig,
    parameter: str,
    values: Sequence[Any],
) -> SweepResult:
    """Run ``base`` once per value of ``parameter``, set with
    ``with_changes``, and collect :data:`DEFAULT_METRICS`.

    Each variant gets a unique name so reports stay distinguishable.
    """
    if not values:
        raise ValueError("sweep needs at least one value")
    results: List[CampaignResult] = []
    collected: Dict[str, List[float]] = {m: [] for m in DEFAULT_METRICS}
    for value in values:
        cfg = base.with_changes(
            **{parameter: value, "name": f"{base.name}[{parameter}={value}]"}
        )
        result = run_campaign(cfg)
        results.append(result)
        for m, fn in DEFAULT_METRICS.items():
            collected[m].append(float(fn(result)))
    return SweepResult(
        parameter=parameter,
        values=list(values),
        results=results,
        metrics=collected,
    )
