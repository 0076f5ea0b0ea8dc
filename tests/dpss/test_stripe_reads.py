"""Redundant k-of-n reads end to end through the simulated client.

These drive :class:`~repro.dpss.read.ParityRequestor` through the read
loop over a live simulated network: eager and hedged policies, mid-read
crashes, straggler cancellation, double-fault deliver-absent, health
biasing, and the striped write path.
"""

import numpy as np
import pytest

import repro.dpss.read as dpss_read
from repro.config import NetworkConfig, StripeConfig
from repro.dpss import DpssClient, DpssDataset, DpssMaster, DpssServer
from repro.dpss.health import HealthTracker
from repro.faults import FaultInjector, FaultPlan, ServerCrash, ServerSlowdown
from repro.netlogger.daemon import NetLogDaemon
from repro.netlogger.logger import NetLogger
from repro.netsim import Host, Link, Network, TcpParams
from repro.util.units import MB, mbps

WIDTH = 5


def build(stripe=None, health=False, seed=11, size=16 * MB):
    net = Network()
    daemon = NetLogDaemon()
    net.add_host(Host("client", nic_rate=mbps(1000)))
    net.add_host(Host("master", nic_rate=mbps(100)))
    lan = net.add_link(Link("lan", rate=mbps(1000), latency=0.0002))
    net.add_route("client", "master", [lan])
    master = DpssMaster(net.host("master"))
    for i in range(WIDTH):
        net.add_host(Host(f"s{i}", nic_rate=mbps(1000)))
        srv = DpssServer(net.host(f"s{i}"), n_disks=4, disk_rate=10 * MB)
        srv.attach(net)
        master.add_server(srv)
        net.add_route(f"s{i}", "client", [lan])
    master.register_dataset(
        DpssDataset("ds", size=size), replicas=1, stripe=stripe
    )
    logger = NetLogger(
        "client", "dpss-client", clock=lambda: net.env.now, daemon=daemon
    )
    tracker = None
    if health:
        tracker = HealthTracker(now=lambda: net.env.now, logger=logger)
    client = DpssClient(
        net, "client", master,
        config=NetworkConfig(
            tcp=TcpParams(slow_start=False),
            stripe=stripe or StripeConfig(),
        ),
        logger=logger,
        rng=np.random.default_rng(seed),
        health=tracker,
    )
    ev = client.open("ds")
    net.run(until=ev)
    return net, master, client, ev.value, daemon, tracker


def read(net, client, handle, nbytes, offset=None):
    ev = client.read(handle, nbytes, offset=offset)
    net.run(until=ev)
    return ev.value


def inject(net, master, daemon, events):
    injector = FaultInjector(
        net, master, FaultPlan.of(events), daemon=daemon
    )
    injector.start()
    net.run(until=net.env.timeout(0.1))
    return injector


EAGER = StripeConfig(enabled=True, n_data=4, read_policy="eager")
HEDGED = StripeConfig(enabled=True, n_data=4, read_policy="hedged")


class TestEager:
    def test_clean_read_completes_with_parity_on_the_wire(self):
        net, master, client, handle, daemon, _ = build(stripe=EAGER)
        stats = read(net, client, handle, 8 * MB)
        assert stats.complete
        assert stats.missing_bytes == 0
        # all n shares launched: parity + fillers ride along
        assert stats.wire_bytes > 8 * MB
        assert stats.parity_wire_bytes > 0
        # delivered bytes never exceed the request
        delivered = stats.wire_bytes - stats.parity_wire_bytes
        assert delivered <= 8 * MB + 1
        # a share that loses the race to XOR may be cancelled, so the
        # slowest server can legitimately be absent
        assert len(stats.per_server_seconds) >= WIDTH - 1

    def test_crashed_server_is_reconstructed_not_retried(self):
        net, master, client, handle, daemon, _ = build(stripe=EAGER)
        inject(net, master, daemon, [
            ServerCrash(at=0.0, duration=60.0, server="s1"),
        ])
        stats = read(net, client, handle, 8 * MB)
        assert stats.complete
        assert stats.reconstructions > 0
        assert stats.retries == 0
        assert "s1" not in stats.per_server_seconds
        events = {e.event for e in daemon.events}
        assert "STRIPE_RECONSTRUCT" in events

    def test_xor_cpu_is_charged_for_reconstruction(self):
        net, master, client, handle, daemon, _ = build(stripe=EAGER)
        inject(net, master, daemon, [
            ServerCrash(at=0.0, duration=60.0, server="s1"),
        ])
        stats = read(net, client, handle, 8 * MB)
        assert stats.reconstructed_bytes > 0


class TestHedged:
    def test_clean_read_is_nearly_parity_free(self):
        net, master, client, handle, daemon, _ = build(stripe=HEDGED)
        stats = read(net, client, handle, 8 * MB)
        assert stats.complete
        # no straggler -> no repair wave; only boundary trim remains
        assert stats.parity_wire_bytes < 0.1 * MB
        events = {e.event for e in daemon.events}
        assert "STRIPE_REPAIR" not in events

    def test_slow_server_triggers_repair_and_cancel(self):
        net, master, client, handle, daemon, _ = build(stripe=HEDGED)
        inject(net, master, daemon, [
            ServerSlowdown(at=0.0, duration=60.0, server="s2",
                           factor=0.01),
        ])
        stats = read(net, client, handle, 8 * MB)
        assert stats.complete
        assert stats.reconstructions > 0
        assert stats.shares_cancelled >= 1
        events = {e.event for e in daemon.events}
        assert {"STRIPE_REPAIR", "STRIPE_CANCEL"} <= events

    def test_offline_owner_repairs_immediately(self):
        net, master, client, handle, daemon, _ = build(stripe=HEDGED)
        inject(net, master, daemon, [
            ServerCrash(at=0.0, duration=60.0, server="s0"),
        ])
        stats = read(net, client, handle, 8 * MB)
        assert stats.complete
        assert stats.reconstructions > 0
        # no straggler wait: repairs fired at launch, read stays fast
        assert stats.duration < 1.0


class TestDoubleFault:
    def test_double_crash_delivers_absent_quickly(self, monkeypatch):
        monkeypatch.setattr(dpss_read, "READ_DEADLINE", 3.0)
        net, master, client, handle, daemon, _ = build(stripe=EAGER)
        inject(net, master, daemon, [
            ServerCrash(at=0.0, duration=60.0, server="s0"),
            ServerCrash(at=0.0, duration=60.0, server="s3"),
        ])
        stats = read(net, client, handle, 8 * MB)
        assert not stats.complete
        assert stats.missing_bytes > 0
        assert stats.retries == 0
        # deliver-absent, not deadline-stall: the hopeless blocks are
        # identified at launch
        assert stats.duration < 1.0
        events = {e.event for e in daemon.events}
        assert "STRIPE_GIVEUP" in events
        assert set(stats.failed_servers) & {"s0", "s3"}

    def test_mid_read_double_crash_is_triaged_not_stalled(self):
        net, master, client, handle, daemon, _ = build(stripe=EAGER)
        injector = FaultInjector(
            net, master,
            FaultPlan.of([
                ServerCrash(at=0.02, duration=60.0, server="s0"),
                ServerCrash(at=0.02, duration=60.0, server="s1"),
            ]),
            daemon=daemon,
        )
        injector.start()
        stats = read(net, client, handle, 8 * MB)
        assert not stats.complete
        assert stats.missing_bytes > 0
        # the liveness recheck notices the stall long before the 30 s
        # deadline and long before the 60 s recovery
        assert stats.duration < 2.0


class TestHealthBias:
    def test_recent_crash_biases_the_initial_read_set(self):
        net, master, client, handle, daemon, tracker = build(
            stripe=EAGER, health=True
        )
        injector = FaultInjector(
            net, master,
            FaultPlan.of([ServerCrash(at=0.0, duration=0.5, server="s4")]),
            daemon=daemon,
        )
        injector.start()
        injector.observers.append(tracker.observe_fault)
        net.run(until=net.env.timeout(1.0))  # fault cleared; memory stays
        stats = read(net, client, handle, 8 * MB)
        assert stats.complete
        assert stats.reconstructions > 0
        assert "s4" not in stats.per_server_seconds
        events = {e.event for e in daemon.events}
        assert "HEALTH_AVOID" in events

    def test_health_scores_decay_toward_forgiveness(self):
        clock = {"now": 0.0}
        tracker = HealthTracker(now=lambda: clock["now"], half_life=10.0)
        tracker.observe_fault("inject", "server_crash", "s0")
        assert tracker.score("s0") == pytest.approx(1.0)
        clock["now"] = 10.0
        assert tracker.score("s0") == pytest.approx(0.5)
        assert tracker.rank(["s0", "s1"]) == ["s1", "s0"]
        assert tracker.worst(["s0", "s1"]) == "s0"


class TestStripedWrite:
    def test_write_carries_parity_and_warm_caches_serve_reads(self):
        net, master, client, handle, daemon, _ = build(stripe=EAGER)
        ev = client.write(handle, 8 * MB, offset=0)
        net.run(until=ev)
        wstats = ev.value
        assert wstats.wire_bytes > 8 * MB
        assert wstats.parity_wire_bytes > 0
        events = {e.event for e in daemon.events}
        assert "STRIPE_WRITE" in events
        rstats = read(net, client, handle, 8 * MB)
        assert rstats.complete
        assert rstats.cache_hit_blocks > 0


class TestUnstripedParity:
    def test_disabled_stripe_keeps_the_classic_path(self):
        net, master, client, handle, daemon, _ = build(stripe=None)
        stats = read(net, client, handle, 8 * MB)
        assert stats.complete
        assert stats.parity_wire_bytes == 0
        assert stats.reconstructions == 0
        events = {e.event for e in daemon.events}
        assert not any(e.startswith("STRIPE_") for e in events)

    def test_clean_striped_read_delivers_identical_bytes(self):
        """With striping on and no faults, delivered bytes must equal
        the unstriped read bit for bit -- the simulation carries
        counts, so equality is in delivered byte totals and offsets."""
        results = {}
        for key, stripe in (("off", None), ("hedged", HEDGED),
                            ("eager", EAGER)):
            net, master, client, handle, daemon, _ = build(stripe=stripe)
            stats = read(net, client, handle, 6 * MB, offset=1 * MB)
            results[key] = stats
            assert stats.complete, key
            assert stats.missing_bytes == 0, key
        delivered = {
            key: sum(s.per_server_bytes.values())
            for key, s in results.items()
        }
        assert delivered["hedged"] == pytest.approx(delivered["off"])
        assert delivered["eager"] == pytest.approx(delivered["off"])
        assert results["off"].nbytes == results["hedged"].nbytes


class TestFlakyDrillTail:
    """PR 9's headline, on the whole ``sc99-flaky`` campaign: a slow or
    crashed server costs a reconstruction, not a timeout+retry round
    trip, so the p99 DPSS read stays at the fault-free figure. Every
    quantity here is simulated, hence exact and host-independent."""

    SLOWBURN = FaultPlan.of(
        [ServerSlowdown(at=0.2, duration=30.0, server="dpss1", factor=0.02)]
    )

    @pytest.fixture(scope="class")
    def drill(self):
        from repro.core.campaign import named_campaign, run_campaign

        flaky = named_campaign("sc99-flaky").with_changes(n_timesteps=4)
        clean = flaky.with_changes(faults=None, policy=None)
        striped = StripeConfig.from_spec("4+1")
        return {
            "clean": run_campaign(clean),
            "clean_striped": run_campaign(clean.with_changes(stripe=striped)),
            "flaky": run_campaign(flaky),
            "flaky_striped": run_campaign(flaky.with_changes(stripe=striped)),
            "slowburn_striped": run_campaign(
                flaky.with_changes(faults=self.SLOWBURN, stripe=striped)
            ),
        }

    def test_flaky_striped_tail_stays_at_the_clean_baseline(self, drill):
        assert drill["flaky_striped"].read_p99 <= 1.25 * drill["clean"].read_p99
        assert drill["flaky_striped"].retries == 0

    def test_reconstruct_beats_retry_on_the_tail(self, drill):
        assert drill["flaky"].retries > 0
        assert drill["flaky"].read_p99 >= 2.0 * drill["flaky_striped"].read_p99

    def test_hedged_reads_are_free_when_nothing_fails(self, drill):
        assert drill["clean"].read_p99 >= 0.9 * drill["clean_striped"].read_p99

    def test_single_slow_server_is_fully_masked(self, drill):
        assert drill["slowburn_striped"].reconstructions > 0
        assert drill["slowburn_striped"].degraded_frames == 0
