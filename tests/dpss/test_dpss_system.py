"""End-to-end DPSS tests on a simulated LAN/WAN."""

import pytest

from repro.dpss import (
    DpssClient,
    DpssDataset,
    DpssMaster,
    DpssServer,
)
from repro.netsim import Host, Link, Network, TcpParams
from repro.util.units import KIB, MB, bytes_per_sec_to_mbps, mbps
from repro.config import NetworkConfig


def build_dpss(
    n_servers=4,
    disk_rate=12 * MB,
    n_disks=4,
    server_nic=mbps(1000),
    client_nic=mbps(1000),
    lan_rate=mbps(1000),
    cache_bytes=0.0,
):
    """A LAN DPSS: master + N servers + one client host."""
    net = Network()
    master_host = net.add_host(Host("master", nic_rate=mbps(100)))
    client_host = net.add_host(Host("client", nic_rate=client_nic))
    lan = net.add_link(Link("lan", rate=lan_rate, latency=0.0002))
    net.add_route("client", "master", [lan])
    master = DpssMaster(master_host)
    servers = []
    for i in range(n_servers):
        h = net.add_host(Host(f"server{i}", nic_rate=server_nic))
        s = DpssServer(
            h, n_disks=n_disks, disk_rate=disk_rate, cache_bytes=cache_bytes
        )
        s.attach(net)
        master.add_server(s)
        net.add_route(f"server{i}", "client", [lan])
        servers.append(s)
    client = DpssClient(
        net, "client", master,
        config=NetworkConfig(tcp=TcpParams(slow_start=False)),
    )
    return net, master, servers, client


def run_read(net, client, handle, nbytes, offset=0):
    ev = client.read(handle, nbytes, offset=offset)
    net.run(until=ev)
    return ev.value


def open_ds(net, master, client, size=64 * MB, **kw):
    master.register_dataset(DpssDataset("ds", size=size), **kw)
    ev = client.open("ds")
    net.run(until=ev)
    return ev.value


class TestOpenClose:
    def test_open_returns_handle(self):
        net, master, _, client = build_dpss()
        handle = open_ds(net, master, client)
        assert handle.size == 64 * MB
        assert handle.position == 0.0

    def test_open_unknown_dataset(self):
        net, master, _, client = build_dpss()
        ev = client.open("ghost")
        with pytest.raises(KeyError):
            net.run(until=ev)

    def test_closed_handle_rejected(self):
        net, master, _, client = build_dpss()
        handle = open_ds(net, master, client)
        client.close(handle)
        with pytest.raises(ValueError):
            client.read(handle, 1 * MB)


class TestReadSemantics:
    def test_read_advances_position(self):
        net, master, _, client = build_dpss()
        handle = open_ds(net, master, client)
        run_read(net, client, handle, 4 * MB)
        assert handle.position == pytest.approx(4 * MB)

    def test_read_past_end_rejected(self):
        net, master, _, client = build_dpss()
        handle = open_ds(net, master, client)
        with pytest.raises(ValueError):
            client.read(handle, 1 * MB, offset=64 * MB)

    def test_block_level_access_reads_only_requested(self):
        """A partial read touches only the needed servers/bytes."""
        net, master, _, client = build_dpss(n_servers=4)
        handle = open_ds(net, master, client)
        stats = run_read(net, client, handle, 64 * KIB, offset=0)
        # One block: exactly one server involved.
        assert len(stats.per_server_bytes) == 1
        assert stats.nbytes == 64 * KIB

    def test_large_read_uses_all_servers(self):
        net, master, _, client = build_dpss(n_servers=4)
        handle = open_ds(net, master, client)
        stats = run_read(net, client, handle, 32 * MB)
        assert len(stats.per_server_bytes) == 4
        spread = max(stats.per_server_bytes.values()) - min(
            stats.per_server_bytes.values()
        )
        assert spread <= 64 * KIB


class TestThroughput:
    def test_aggregate_scales_with_servers(self):
        """More servers -> more disk parallelism -> higher throughput,
        the DPSS's core scaling claim."""
        results = {}
        for n in (1, 2, 4):
            net, master, _, client = build_dpss(
                n_servers=n, disk_rate=10 * MB, n_disks=2,
                client_nic=mbps(2000), lan_rate=mbps(2000),
            )
            handle = open_ds(net, master, client)
            stats = run_read(net, client, handle, 32 * MB)
            results[n] = stats.throughput
        assert results[2] > 1.7 * results[1]
        assert results[4] > 3.0 * results[1]

    def test_client_nic_bottleneck(self):
        """A slow client NIC caps aggregate DPSS delivery."""
        net, master, _, client = build_dpss(
            n_servers=4, client_nic=mbps(100),
        )
        handle = open_ds(net, master, client)
        stats = run_read(net, client, handle, 16 * MB)
        assert bytes_per_sec_to_mbps(stats.throughput) <= 101.0

    def test_disk_pool_is_bottleneck_when_slow(self):
        net, master, _, client = build_dpss(
            n_servers=2, disk_rate=2 * MB, n_disks=1,
        )
        handle = open_ds(net, master, client)
        stats = run_read(net, client, handle, 8 * MB)
        # 2 servers x 2 MB/s disks = 4 MB/s aggregate.
        assert stats.throughput == pytest.approx(4 * MB, rel=0.15)


class TestCache:
    def test_repeat_read_hits_cache(self):
        net, master, servers, client = build_dpss(
            n_servers=2, cache_bytes=512 * MB,
        )
        handle = open_ds(net, master, client, size=16 * MB)
        first = run_read(net, client, handle, 8 * MB, offset=0)
        second = run_read(net, client, handle, 8 * MB, offset=0)
        assert first.cache_hit_blocks == 0
        assert second.cache_hit_blocks == second.total_blocks

    def test_cache_hits_bypass_slow_disks(self):
        net, master, servers, client = build_dpss(
            n_servers=2, disk_rate=1 * MB, n_disks=1,
            cache_bytes=512 * MB,
        )
        handle = open_ds(net, master, client, size=8 * MB)
        first = run_read(net, client, handle, 4 * MB, offset=0)
        second = run_read(net, client, handle, 4 * MB, offset=0)
        # Second read is served from RAM at NIC speed.
        assert second.duration < first.duration / 5
        for s in servers:
            assert s.stats_hits > 0

    def test_zero_byte_cache_probe_is_all_miss(self):
        """A cache that cannot hold one block answers a probe at once:
        every block misses, and nothing becomes resident."""
        _, _, servers, _ = build_dpss(n_servers=1, cache_bytes=0.0)
        server = servers[0]
        assert server.cache_lookup("ds", range(3, 40, 4), 64 * KIB) == (0, 10)
        assert server.cache_lookup("ds", [5], 64 * KIB) == (0, 1)
        assert (server.stats_hits, server.stats_misses) == (0, 11)
        assert not server._cache

    def test_lru_eviction(self):
        net, master, servers, client = build_dpss(
            n_servers=1, cache_bytes=1 * MB,
        )
        handle = open_ds(net, master, client, size=4 * MB)
        run_read(net, client, handle, 4 * MB, offset=0)
        server = servers[0]
        assert server._cache_used <= server.cache_bytes
        # Cache smaller than the read: early blocks were evicted.
        again = run_read(net, client, handle, 64 * KIB, offset=0)
        assert again.cache_hit_blocks == 0


class TestValidationAndRegistry:
    def test_duplicate_server(self):
        net, master, servers, _ = build_dpss(n_servers=1)
        with pytest.raises(ValueError):
            master.add_server(servers[0])

    def test_duplicate_dataset(self):
        net, master, _, client = build_dpss()
        master.register_dataset(DpssDataset("ds", size=1 * MB))
        with pytest.raises(ValueError):
            master.register_dataset(DpssDataset("ds", size=1 * MB))

    def test_dataset_listing(self):
        net, master, _, _ = build_dpss()
        master.register_dataset(DpssDataset("b", size=1 * MB))
        master.register_dataset(DpssDataset("a", size=1 * MB))
        assert master.datasets() == ["a", "b"]

    def test_server_validation(self):
        net = Network()
        h = net.add_host(Host("s", nic_rate=1e6))
        with pytest.raises(ValueError):
            DpssServer(h, n_disks=0)
        with pytest.raises(ValueError):
            DpssServer(h, disk_rate=0)
