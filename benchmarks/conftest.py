"""Shared helpers for the reproduction benchmarks.

Each benchmark regenerates one of the paper's figures or quantitative
claims, prints a ``paper vs measured`` table, and asserts the *shape*
of the result (who wins, by roughly what factor) rather than exact
numbers. A plain ``pytest`` runs them with timing disabled; to time
them::

    pytest benchmarks/ --benchmark-enable --benchmark-only
"""

from __future__ import annotations

import pytest


class PaperComparison:
    """Accumulates paper-vs-measured rows and prints them as a table."""

    def __init__(self, experiment: str, title: str):
        self.experiment = experiment
        self.title = title
        self.rows = []

    def row(
        self,
        quantity: str,
        paper: str,
        measured: str,
        note: str = "",
    ) -> None:
        """Record one comparison line."""
        self.rows.append((quantity, paper, measured, note))

    def render(self) -> str:
        header = f"[{self.experiment}] {self.title}"
        widths = [
            max(len(r[i]) for r in self.rows + [("quantity", "paper",
                                                 "measured", "note")])
            for i in range(4)
        ]
        lines = [header, "-" * len(header)]
        fmt = (
            f"  {{:<{widths[0]}}}  {{:<{widths[1]}}}  "
            f"{{:<{widths[2]}}}  {{}}"
        )
        lines.append(fmt.format("quantity", "paper", "measured", "note"))
        for r in self.rows:
            lines.append(fmt.format(*r))
        return "\n".join(lines)


@pytest.fixture
def comparison(request, capsys):
    """Provide a PaperComparison; print it at teardown."""
    comparisons = []

    def factory(experiment: str, title: str) -> PaperComparison:
        comp = PaperComparison(experiment, title)
        comparisons.append(comp)
        return comp

    yield factory
    for comp in comparisons:
        with capsys.disabled():
            print()
            print(comp.render())


def once(benchmark, fn, *args, **kwargs):
    """Run a whole-campaign benchmark exactly once under timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
