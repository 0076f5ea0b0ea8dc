"""Lazy TCP window schedules against the per-RTT tick loop they replaced.

The production :class:`TcpConnection` hands the allocator a step function
and sleeps until the transfer is done; ``tests/oracles/tcp_ticks.py``
wakes every RTT and forces a solve each time, as every release before
did. Both must produce the same bits: every ``TransferStats`` field,
every fluid task's ``finish_time``, ``cwnd`` wherever it is read, and
the ULM stream of every registry campaign.
"""

import hashlib
import random
from dataclasses import dataclass, field
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CampaignConfig, campaign_names, run_campaign
import repro.netsim.topology as topology
from repro.netsim import Host, Link, Network, TcpConnection, TcpParams
from repro.simcore import Environment
from tests.quick import quick_campaign
from tests.oracles.recompute_fluid import RecomputeFluidScheduler
from tests.oracles.tcp_ticks import TickingTcpConnection


# ---------------------------------------------------------------------------
# generated scenarios
# ---------------------------------------------------------------------------

@dataclass
class Flow:
    src: str
    dst: str
    params: TcpParams
    start: float
    sends: List[float]
    reserved_rate: float = 0.0


@dataclass
class Scenario:
    """Hosts ``s0..`` and ``d0..`` joined pairwise by one of ``links``."""

    n_hosts: int
    nic_rate: float
    #: (rate, one-way latency) per link
    links: List[Tuple[float, float]]
    #: link index carrying host pair (s_i, d_j)
    link_of: List[List[int]]
    flows: List[Flow]
    #: (time, kind, target index, value), any order
    actions: List[Tuple[float, str, int, float]] = field(default_factory=list)


def draw_scenario(
    rng: random.Random, n_flows: int, n_links: int, n_hosts: int,
    n_actions: int, shared_lattice: bool,
) -> Scenario:
    links = [
        (rng.choice([2e6, 12.5e6, 77.75e6]) * rng.uniform(0.5, 1.5),
         rng.choice([0.0, rng.uniform(5e-5, 2e-3), rng.uniform(2e-3, 0.06)]))
        for _ in range(n_links)
    ]
    link_of = [
        [rng.randrange(n_links) for _ in range(n_hosts)] for _ in range(n_hosts)
    ]
    flows = []
    for _ in range(n_flows):
        mss = rng.choice([536.0, 1460.0, 8960.0])
        max_window = rng.choice([16, 64, 512, 2048]) * 1024.0
        params = TcpParams(
            mss=mss,
            init_cwnd=min(rng.choice([1, 2, 10]) * mss, max_window),
            max_window=max_window,
            ssthresh=rng.choice([4 * mss, 64 * 1024.0, 4096 * 1024.0]),
            slow_start=rng.random() < 0.85,
        )
        flows.append(Flow(
            src=f"s{rng.randrange(n_hosts)}",
            dst=f"d{rng.randrange(n_hosts)}",
            params=params,
            # Flows opened at the same instant over the same route step
            # on the same lattice: N steps land on one timestamp.
            start=0.0 if shared_lattice else rng.uniform(0.0, 0.3),
            sends=[
                10 ** rng.uniform(3.0, 7.3)
                for _ in range(rng.choice([1, 1, 2, 3]))
            ],
            reserved_rate=rng.choice([0.0, 0.0, 0.0, rng.uniform(1e4, 3e6)]),
        ))
    actions = []
    for _ in range(n_actions):
        at = rng.uniform(1e-3, 1.5)
        kind = rng.choice(["abort", "host_cap", "capacity", "cwnd"])
        if kind == "capacity":
            link = rng.randrange(n_links)
            actions.append((at, kind, link, rng.choice([0.0, 0.1, 0.5, 2.0])))
            actions.append((at + rng.uniform(1e-3, 0.4), kind, link, 1.0))
        elif kind == "host_cap":
            actions.append(
                (at, kind, rng.randrange(n_flows), 10 ** rng.uniform(4.0, 7.5))
            )
        else:
            actions.append((at, kind, rng.randrange(n_flows), 0.0))
    return Scenario(n_hosts, rng.choice([12.5e6, 125e6, 1.25e9]), links,
                    link_of, flows, actions)


def simulate(conn_cls, sc: Scenario):
    """Run ``sc`` with ``conn_cls`` connections; return everything observable."""
    net = Network(Environment())
    for i in range(sc.n_hosts):
        net.add_host(Host(f"s{i}", nic_rate=sc.nic_rate))
        net.add_host(Host(f"d{i}", nic_rate=sc.nic_rate))
    links = [
        net.add_link(Link(f"l{i}", rate=rate, latency=latency))
        for i, (rate, latency) in enumerate(sc.links)
    ]
    for i in range(sc.n_hosts):
        for j in range(sc.n_hosts):
            net.add_route(f"s{i}", f"d{j}", [links[sc.link_of[i][j]]])

    tasks = []
    submit = net.sched.submit

    def recording_submit(task):
        tasks.append(task)
        return submit(task)

    net.sched.submit = recording_submit

    env = net.env
    conns = []
    for flow in sc.flows:
        conn = conn_cls(net, flow.src, flow.dst, flow.params)
        conn.reserved_rate = flow.reserved_rate
        conns.append(conn)
    stats = [[] for _ in conns]
    seen = []  # (time, what, value) as the actions observed it

    def sender(i, flow):
        if flow.start > 0:
            yield env.timeout(flow.start)
        for nbytes in flow.sends:
            result = yield conns[i].send(nbytes)
            stats[i].append((
                result.nbytes, result.start, result.sent, result.delivered,
                result.aborted, conns[i].cwnd,
            ))

    def actor(at, kind, target, value):
        yield env.timeout(at)
        if kind == "abort":
            seen.append((env.now, kind, conns[target].abort()))
        elif kind == "host_cap":
            conns[target].set_host_cap(value)
        elif kind == "capacity":
            link = links[target]
            net.sched.set_capacity(link.resource, sc.links[target][0] * value)
        seen.append((env.now, "cwnd", [c.cwnd for c in conns]))

    procs = [env.process(sender(i, f)) for i, f in enumerate(sc.flows)]
    for action in sc.actions:
        env.process(actor(*action))
    # A link left at zero capacity strands its flows; stop at a horizon.
    net.run(until=env.any_of([env.all_of(procs), env.timeout(600.0)]))
    return {
        "stats": stats,
        "seen": seen,
        "finish": [(t.name.split("#")[0], t.start_time, t.finish_time)
                   for t in tasks],
        "cwnd": [c.cwnd for c in conns],
        "solves": net.sched.stats.components_solved,
    }


OBSERVED = ("stats", "seen", "finish", "cwnd")


def assert_same(lazy, ticks):
    for key in OBSERVED:
        assert lazy[key] == ticks[key], key


# ---------------------------------------------------------------------------
# randomized parity
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_flows=st.integers(1, 40),
    n_links=st.integers(1, 4),
    n_hosts=st.integers(1, 4),
    n_actions=st.integers(0, 6),
    shared_lattice=st.booleans(),
)
def test_lazy_schedule_matches_tick_loop(
    seed, n_flows, n_links, n_hosts, n_actions, shared_lattice
):
    sc = draw_scenario(
        random.Random(seed), n_flows, n_links, n_hosts, n_actions, shared_lattice
    )
    lazy = simulate(TcpConnection, sc)
    ticks = simulate(TickingTcpConnection, sc)
    # The allocator settles once per instant, so connections ticking on
    # one shared lattice timestamp cost one solve there in both loops:
    # bit for bit, whatever the scenario.
    assert_same(lazy, ticks)
    assert lazy["solves"] <= ticks["solves"]


@pytest.mark.parametrize("seed", range(12))
def test_recompute_oracle_sees_the_same_schedules(seed, monkeypatch):
    """The recompute oracle refreshes schedules exactly as production."""
    sc = draw_scenario(random.Random(seed), 12, 2, 2, 4, seed % 2 == 0)
    incremental = simulate(TcpConnection, sc)
    monkeypatch.setattr(topology, "FluidScheduler", RecomputeFluidScheduler)
    assert_same(incremental, simulate(TcpConnection, sc))


# ---------------------------------------------------------------------------
# registry campaigns: same ULM bytes with the tick loop patched back in
# ---------------------------------------------------------------------------

def _ulm_sha(config, tmp_path):
    path = tmp_path / "run.ulm"
    run_campaign(config, ulm_path=str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_ulm_matches_tick_loop(config, tmp_path, monkeypatch):
    lazy = _ulm_sha(config, tmp_path)
    # Every layer constructs TcpConnection by name; graft the oracle's
    # two methods onto it rather than patch five import sites.
    for method in ("_send_proc", "_push_cap"):
        monkeypatch.setattr(
            TcpConnection, method, getattr(TickingTcpConnection, method),
            raising=False,
        )
    assert _ulm_sha(config, tmp_path) == lazy


@pytest.mark.parametrize("overlapped", [False, True], ids=["serial", "overlapped"])
@pytest.mark.parametrize("name", campaign_names())
def test_registry_campaign_ulm_matches_tick_loop(
    name, overlapped, tmp_path, monkeypatch
):
    _assert_ulm_matches_tick_loop(
        quick_campaign(name, overlapped), tmp_path, monkeypatch
    )


def test_flaky_drill_keeps_same_date_line_order(tmp_path, monkeypatch):
    """The unstriped fault drill at the benchmark's size logs two lines
    on one DATE whose order hangs on the queue hop a send takes when it
    finishes with its window still opening (``TcpConnection._send_proc``)."""
    config = CampaignConfig.sc99_flaky().with_changes(
        shape=(240, 96, 96), dataset_timesteps=16, n_timesteps=10
    )
    _assert_ulm_matches_tick_loop(config, tmp_path, monkeypatch)
