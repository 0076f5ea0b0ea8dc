"""``cap_binds`` vs ``fill_rates``: raising a slack cap is a no-op.

The fluid scheduler skips the solve when a cap that did not bind is
raised, and leaves such caps stale between solves (DESIGN.md section
12.6). That is exact only if progressive filling returns *exactly* the
same ``{flow: rate}`` dict -- same keys, same float bits -- with the
slack caps raised, across randomized topologies: shared bottlenecks,
capped flows, floors, multi-resource flows and disconnected components.
"""

from __future__ import annotations

import random

import pytest

from dataclasses import replace

from repro.simcore.fairshare import FlowSpec, ResourceSpec, cap_binds, fill_rates


def _random_component(seed: int):
    rng = random.Random(seed)
    n_resources = rng.randint(1, 12)
    n_flows = rng.randint(1, 40)
    resources = {
        f"r{j}": ResourceSpec(f"r{j}", rng.uniform(1.0, 80.0))
        for j in range(n_resources)
    }
    flows = []
    for i in range(n_flows):
        degree = rng.randint(1, min(4, n_resources))
        usage = {
            f"r{j}": rng.uniform(0.1, 2.5)
            for j in rng.sample(range(n_resources), degree)
        }
        floor = rng.uniform(0.0, 0.8) if rng.random() < 0.3 else 0.0
        cap = rng.uniform(0.5, 30.0) if rng.random() < 0.7 else 1e9
        flows.append(FlowSpec(f"f{i}", cap=cap, usage=usage, floor=floor))
    return flows, resources


@pytest.mark.parametrize("chunk", range(8))
def test_raising_slack_caps_changes_no_rate_200_random_topologies(chunk):
    slack_seen = bound_seen = 0
    for seed in range(chunk * 25, chunk * 25 + 25):
        flows, resources = _random_component(seed)
        rates = fill_rates(flows, resources)
        slack = [
            f for f in flows if not cap_binds(rates[f.name], f.cap, f.floor)
        ]
        slack_seen += len(slack)
        bound_seen += len(flows) - len(slack)
        rng = random.Random(seed)
        # One at a time (a window step), then all at once (a solve
        # bringing every schedule of the component up to now).
        for raised in [[f] for f in slack] + [slack]:
            names = {f.name for f in raised}
            lifted = [
                replace(f, cap=f.cap * rng.choice([1.0001, 2.0, 1e6]))
                if f.name in names else f
                for f in flows
            ]
            assert fill_rates(lifted, resources) == rates, f"seed {seed}"
    assert slack_seen and bound_seen  # the predicate splits both ways


def test_a_binding_cap_is_never_called_slack():
    """Every flow whose rate moves when its cap alone is raised must
    have been reported as bound."""
    for seed in range(200):
        flows, resources = _random_component(seed)
        rates = fill_rates(flows, resources)
        for i, f in enumerate(flows):
            lifted = flows[:i] + [replace(f, cap=f.cap * 2.0)] + flows[i + 1:]
            if fill_rates(lifted, resources) != rates:
                assert cap_binds(rates[f.name], f.cap, f.floor), (seed, f.name)


def test_empty_flow_list():
    assert fill_rates([], {}) == {}
