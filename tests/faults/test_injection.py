"""FaultInjector behaviour against a small live DPSS world."""

from collections import Counter

import numpy as np
import pytest

from repro.config import NetworkConfig, StripeConfig
from repro.dpss import (
    CompressionModel,
    DpssClient,
    DpssDataset,
    DpssMaster,
    DpssServer,
    ServerUnavailable,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkFlap,
    MasterStall,
    RequestPolicy,
    ServerCrash,
    ServerSlowdown,
)
from repro.netlogger.daemon import NetLogDaemon
from repro.netlogger.logger import NetLogger
from repro.netsim import Host, Link, Network, TcpParams
from repro.netsim.tcp import TcpConnection
from repro.util.units import KIB, MB, mbps

N_SERVERS = 4


def build(policy=None, replicas=2, seed=11, stripe=None, compression=None,
          slow_start=False):
    """A 4-server DPSS site with an instrumented client."""
    net = Network()
    daemon = NetLogDaemon()
    net.add_host(Host("client", nic_rate=mbps(1000)))
    net.add_host(Host("master", nic_rate=mbps(100)))
    lan = net.add_link(Link("lan", rate=mbps(1000), latency=0.0002))
    net.add_route("client", "master", [lan])
    master = DpssMaster(net.host("master"))
    for i in range(N_SERVERS):
        net.add_host(Host(f"s{i}", nic_rate=mbps(1000)))
        srv = DpssServer(net.host(f"s{i}"), n_disks=4, disk_rate=10 * MB)
        srv.attach(net)
        master.add_server(srv)
        net.add_route(f"s{i}", "client", [lan])
    master.register_dataset(
        DpssDataset("ds", size=16 * MB), replicas=replicas, stripe=stripe
    )
    logger = NetLogger(
        "client", "dpss-client", clock=lambda: net.env.now, daemon=daemon
    )
    client = DpssClient(
        net, "client", master,
        config=NetworkConfig(
            tcp=TcpParams(slow_start=slow_start), policy=policy,
            compression=compression, stripe=stripe or StripeConfig(),
        ),
        logger=logger,
        rng=np.random.default_rng(seed),
    )
    ev = client.open("ds")
    net.run(until=ev)
    return net, master, client, ev.value, daemon


def read_at(net, client, handle, nbytes, t):
    """Advance to absolute sim time ``t``, then read to completion."""
    if t > net.env.now:
        net.run(until=net.env.timeout(t - net.env.now))
    ev = client.read(handle, nbytes)
    net.run(until=ev)
    return ev.value


def inject(net, master, daemon, *events, aliases=None):
    injector = FaultInjector(
        net, master, FaultPlan.of(events),
        daemon=daemon, link_aliases=aliases,
    )
    injector.start()
    return injector


def tags(daemon):
    return [e.event for e in daemon.events]


class TestMasterRebalancing:
    def test_crashed_server_avoided_at_plan_time(self):
        """The master routes lookups to replicas of a dead server, so
        a read planned during the outage never touches it."""
        net, master, client, handle, daemon = build(
            policy=RequestPolicy()
        )
        inject(net, master, daemon,
               ServerCrash(at=0.5, duration=30.0, server="s0"))
        stats = read_at(net, client, handle, 4 * MB, t=1.0)
        assert stats.missing_bytes <= 0 and stats.missing_bytes == 0
        assert stats.retries == 0
        assert "s0" not in stats.per_server_seconds


class TestTearDownAtLaunch:
    def test_hedge_torn_down_the_instant_it_launched(self):
        """With ``hedge_after == timeout`` the hedge launches and the
        deadline tears it down in one wake: the read still resolves, the
        hedge counts as abandoned, and its connection lease comes back,
        so a second read on the same connection proceeds."""
        net, master, client, handle, daemon = build(
            policy=RequestPolicy(timeout=0.5, max_retries=1, hedge_after=0.5)
        )
        inject(net, master, daemon,
               ServerSlowdown(at=0.0, duration=100.0, server="s0",
                              factor=0.01))
        stats = read_at(net, client, handle, 4 * MB, t=1.0)
        assert stats.missing_bytes <= 0 and stats.missing_bytes == 0
        assert stats.hedges == 1 and stats.hedges_abandoned == 1
        assert client._leased == set()
        again = read_at(net, client, handle, 4 * MB, t=net.env.now)
        assert again.missing_bytes <= 0
        # the second read reuses s0's one connection instead of growing
        # the pool past a leaked lease
        assert len(client._pool[("read", "s0")]) == 1


class TestRetryAndFailover:
    POLICY = RequestPolicy(
        timeout=0.5, max_retries=3, backoff_base=0.1,
        backoff_factor=2.0, backoff_max=0.2, jitter=0.0,
    )

    def test_midflight_crash_times_out_then_fails_over(self):
        net, master, client, handle, daemon = build(policy=self.POLICY)
        # Crash s0 just after the read launches: the in-flight
        # transfer stalls, the attempt times out, and the retry is
        # redirected to s0's replica.
        inject(net, master, daemon,
               ServerCrash(at=1.01, duration=30.0, server="s0"))
        stats = read_at(net, client, handle, 8 * MB, t=1.0)
        assert stats.missing_bytes <= 0 and stats.missing_bytes == 0
        assert stats.retries > 0
        seen = tags(daemon)
        assert "RETRY_TIMEOUT" in seen
        assert "RETRY_FAILOVER" in seen
        assert "RETRY_OK" in seen

    def test_double_crash_exhausts_retries(self):
        """Killing a server and its replica makes that stripe's bytes
        unrecoverable: the client gives up loudly but the read still
        completes with the remaining stripes."""
        net, master, client, handle, daemon = build(policy=self.POLICY)
        inject(net, master, daemon,
               ServerCrash(at=0.5, duration=60.0, server="s0"),
               ServerCrash(at=0.5, duration=60.0, server="s1"))
        stats = read_at(net, client, handle, 8 * MB, t=1.0)
        assert not stats.missing_bytes <= 0
        assert stats.missing_bytes > 0
        assert "s0" in stats.failed_servers
        assert "RETRY_GIVEUP" in tags(daemon)

    def test_hedge_rescues_slow_primary(self):
        policy = RequestPolicy(
            timeout=30.0, max_retries=2, backoff_base=0.1,
            jitter=0.0, hedge_after=0.1,
        )
        net, master, client, handle, daemon = build(policy=policy)
        inject(net, master, daemon,
               ServerSlowdown(at=0.5, duration=60.0, server="s0",
                              factor=0.01))
        t0 = net.env.now
        stats = read_at(net, client, handle, 8 * MB, t=1.0)
        assert stats.missing_bytes <= 0 and stats.hedges >= 1
        assert "RETRY_HEDGE" in tags(daemon)
        # The hedge finished long before the crawling primary would
        # have (2 MB at ~0.4 MB/s is ~5 s).
        assert net.env.now - t0 < 3.0


class TestOtherFaults:
    def test_master_stall_delays_open(self):
        net, master, client, handle, daemon = build()
        inject(net, master, daemon, MasterStall(at=1.0, duration=2.0))
        net.run(until=net.env.timeout(1.5 - net.env.now))
        ev = client.open("ds")
        net.run(until=ev)
        # The lookup waited out the stall window ending at t=3.0.
        assert net.env.now >= 3.0

    def test_slowdown_stretches_reads(self):
        net, master, client, handle, _ = build()
        t0 = net.env.now
        read_at(net, client, handle, 4 * MB, t=1.0)
        clean = net.env.now - max(t0, 1.0)

        net2, master2, client2, handle2, daemon2 = build()
        inject(net2, master2, daemon2, *[
            ServerSlowdown(at=0.5, duration=60.0, server=f"s{i}",
                           factor=0.1)
            for i in range(N_SERVERS)
        ])
        t0 = net2.env.now
        read_at(net2, client2, handle2, 4 * MB, t=1.0)
        slowed = net2.env.now - max(t0, 1.0)
        assert slowed > clean * 2

    def test_link_flap_resolves_alias(self):
        net, master, client, handle, daemon = build()
        injector = inject(
            net, master, daemon,
            LinkFlap(at=0.5, duration=0.2, link="wan"),
            aliases={"wan": "lan"},
        )
        stats = read_at(net, client, handle, 2 * MB, t=1.0)
        assert stats.missing_bytes <= 0
        assert injector.injected == 1 and injector.cleared == 1

    def test_unknown_target_raises(self):
        net, master, client, handle, daemon = build()
        inject(net, master, daemon,
               ServerCrash(at=0.5, duration=1.0, server="nope"))
        with pytest.raises(KeyError, match="unknown server"):
            net.run(until=net.env.timeout(2.0))


class TestCapacityRestoration:
    def test_reads_after_clear_match_unfaulted_world(self):
        """Once every window closes, capacities are back at base and a
        read behaves exactly as in a world that never saw faults."""
        net, master, client, handle, _ = build()
        read_at(net, client, handle, 4 * MB, t=2.0)
        clean_done = net.env.now

        net2, master2, client2, handle2, daemon2 = build()
        injector = inject(
            net2, master2, daemon2,
            ServerCrash(at=0.2, duration=0.5, server="s0"),
            ServerSlowdown(at=0.3, duration=0.4, server="s1", factor=0.5),
            LinkFlap(at=0.2, duration=0.3, link="lan"),
        )
        read_at(net2, client2, handle2, 4 * MB, t=2.0)
        assert net2.env.now == pytest.approx(clean_done, abs=1e-9)
        assert injector.injected == injector.cleared == 3
        assert master2.servers["s0"].online


#: strategy -> (build kwargs, crash (at, server) or None, what the
#: case must exercise); every read is 8 MB issued at t=1.0
ACCOUNTING_CASES = {
    "fail-fast": (dict(policy=None), None, lambda s: s.missing_bytes <= 0),
    "policy-give-up": (
        dict(policy=RequestPolicy(timeout=0.5, max_retries=1), replicas=1),
        (0.5, "s1"),
        lambda s: s.missing_bytes > 0 and "s1" not in s.per_server_bytes,
    ),
    "policy-failover": (
        dict(policy=TestRetryAndFailover.POLICY),
        (1.01, "s0"),
        lambda s: s.missing_bytes <= 0 and s.retries > 0
        and "s0" not in s.per_server_bytes,
    ),
    "stripe-hedged": (
        dict(stripe=StripeConfig(enabled=True, n_data=3), replicas=1),
        (0.5, "s1"),
        lambda s: s.missing_bytes <= 0 and s.reconstructed_bytes > 0,
    ),
    "stripe-eager": (
        dict(
            stripe=StripeConfig(enabled=True, n_data=3, read_policy="eager"),
            replicas=1,
        ),
        (0.5, "s1"),
        lambda s: s.missing_bytes <= 0 and s.reconstructed_bytes > 0,
    ),
}


class TestReadAccounting:
    @pytest.mark.parametrize("case", sorted(ACCOUNTING_CASES))
    def test_delivered_bytes_are_conserved(self, case):
        """ROADMAP aim 3: every delivered byte is booked to the server
        that served it or to reconstruction, and to nothing else."""
        kwargs, crash, exercised = ACCOUNTING_CASES[case]
        net, master, client, handle, daemon = build(**kwargs)
        if crash is not None:
            at, server = crash
            inject(net, master, daemon,
                   ServerCrash(at=at, duration=60.0, server=server))
        stats = read_at(net, client, handle, 8 * MB, t=1.0)
        assert exercised(stats)
        assert (
            sum(stats.per_server_bytes.values()) + stats.reconstructed_bytes
            == pytest.approx(stats.nbytes - stats.missing_bytes)
        )
        # Every loser's teardown has run once the instant settles: no
        # connection lease outlives the read.
        net.env.run(until=net.env.now)
        assert not client._leased

    def test_winning_hedge_is_credited_with_its_own_cache_hits(self):
        policy = RequestPolicy(timeout=None, max_retries=0, hedge_after=0.05)
        net, master, client, handle, _ = build(policy=policy)
        s0 = master.servers["s0"]
        # With s0 down the master plans block 0 onto its replica, so
        # only s1's cache is warm when s0 comes back (crawling).
        s0.online = False
        read_at(net, client, handle, 64 * KIB, t=0.0)
        s0.online = True
        net.sched.set_capacity(s0.disks, 1e4)
        handle.position = 0.0
        stats = read_at(net, client, handle, 64 * KIB, t=0.0)
        assert stats.hedges == 1 and stats.hedges_abandoned == 0
        assert stats.cache_hit_blocks == stats.total_blocks == 1
        assert stats.per_server_bytes == {"s1": 64 * KIB}

    def test_inflate_is_charged_for_delivered_bytes_only(self):
        """compression x policy: a share the policy gave up on is never
        inflated; the fail-fast read inflates everything it asked for."""
        model = CompressionModel(ratio=2.0, decompress_rate=100 * MB)
        net, master, client, handle, _ = build(
            policy=RequestPolicy(timeout=0.5, max_retries=0), replicas=1,
            compression=model,
        )
        master.servers["s1"].online = False
        stats = read_at(net, client, handle, 8 * MB, t=0.0)
        delivered = 8 * MB - stats.missing_bytes
        assert 0 < delivered < 8 * MB
        assert stats.decompress_seconds == pytest.approx(
            model.decompress_seconds(delivered)
        )
        assert stats.wire_bytes == pytest.approx(model.wire_bytes(delivered))

        net, master, client, handle, _ = build(compression=model)
        stats = read_at(net, client, handle, 8 * MB, t=0.0)
        assert stats.decompress_seconds == pytest.approx(
            model.decompress_seconds(8 * MB)
        )

    def test_fail_fast_ignores_replicas(self):
        """The static plan is the fail-fast contract: without a policy
        an offline primary raises even though a replica holds the data."""
        net, master, client, handle, _ = build(policy=None, replicas=2)
        master.servers["s0"].online = False
        ev = client.read(handle, 8 * MB)
        with pytest.raises(ServerUnavailable, match="offline"):
            net.run(until=ev)


class TestConnectionPool:
    def test_sequential_reads_reuse_one_connection_per_server(
        self, monkeypatch
    ):
        sends = Counter()
        real_send = TcpConnection.send

        def counting_send(conn, nbytes, **kw):
            sends[conn.id] += 1
            return real_send(conn, nbytes, **kw)

        monkeypatch.setattr(TcpConnection, "send", counting_send)
        net, master, client, handle, _ = build(slow_start=True)
        read_at(net, client, handle, 4 * MB, t=0.0)
        first = {key: list(pool) for key, pool in client._pool.items()}
        assert sorted(first) == [("read", f"s{i}") for i in range(N_SERVERS)]
        assert all(len(pool) == 1 for pool in first.values())
        warm = {key: pool[0].cwnd for key, pool in first.items()}
        assert all(w > TcpParams().init_cwnd for w in warm.values())
        read_at(net, client, handle, 4 * MB, t=0.0)
        assert client._pool == first  # the same connection objects
        for key, (conn,) in first.items():
            # cwnd carried over: the window never fell back to init_cwnd
            assert conn.cwnd >= warm[key] and sends[conn.id] == 2

    def test_a_hedge_grows_the_pool_by_one_and_the_next_read_reuses_it(self):
        # Every share is still in flight at 10 ms, so each is hedged onto
        # its replica holder while that holder's own share is running.
        policy = RequestPolicy(timeout=30.0, max_retries=0, hedge_after=0.01)
        net, master, client, handle, _ = build(policy=policy)
        assert read_at(net, client, handle, 8 * MB, t=0.0).hedges == N_SERVERS
        grown = {key: list(pool) for key, pool in client._pool.items()}
        assert sorted(grown) == [("read", f"s{i}") for i in range(N_SERVERS)]
        assert all(len(pool) == 2 for pool in grown.values())
        assert read_at(net, client, handle, 8 * MB, t=0.0).hedges == N_SERVERS
        assert client._pool == grown  # reused, not grown again
        assert not client._leased
