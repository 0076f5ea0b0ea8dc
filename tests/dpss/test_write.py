"""Tests for the dpssWrite path."""

import pytest

from repro.dpss import DpssClient, DpssDataset, DpssMaster, DpssServer
from repro.netsim import Host, Link, Network, TcpParams
from repro.util.units import MB, mbps
from repro.config import NetworkConfig


def build(disk_rate=10 * MB, cache_bytes=512 * MB):
    net = Network()
    net.add_host(Host("client", nic_rate=mbps(1000)))
    net.add_host(Host("master", nic_rate=mbps(100)))
    lan = net.add_link(Link("lan", rate=mbps(1000), latency=0.0002))
    net.add_route("client", "master", [lan])
    master = DpssMaster(net.host("master"))
    servers = []
    for i in range(2):
        net.add_host(Host(f"s{i}", nic_rate=mbps(1000)))
        srv = DpssServer(net.host(f"s{i}"), n_disks=4, disk_rate=disk_rate,
                         cache_bytes=cache_bytes)
        srv.attach(net)
        master.add_server(srv)
        net.add_route(f"s{i}", "client", [lan])
        servers.append(srv)
    master.register_dataset(DpssDataset("ds", size=64 * MB))
    client = DpssClient(net, "client", master,
                        config=NetworkConfig(
                            tcp=TcpParams(slow_start=False)))
    ev = client.open("ds")
    net.run(until=ev)
    return net, client, servers, ev.value


class TestWrite:
    def test_write_completes_and_advances(self):
        net, client, servers, handle = build()
        ev = client.write(handle, 8 * MB)
        net.run(until=ev)
        stats = ev.value
        assert stats.nbytes == 8 * MB
        assert handle.position == pytest.approx(8 * MB)
        assert sum(stats.per_server_bytes.values()) == pytest.approx(8 * MB)

    def test_write_strips_across_servers(self):
        net, client, servers, handle = build()
        ev = client.write(handle, 16 * MB)
        net.run(until=ev)
        assert len(ev.value.per_server_bytes) == 2

    def test_written_blocks_are_cache_hot(self):
        """Write-then-read hits the RAM cache, skipping the disks."""
        net, client, servers, handle = build(disk_rate=1 * MB)
        w = client.write(handle, 8 * MB)
        net.run(until=w)
        r = client.read(handle, 8 * MB, offset=0)
        t0 = net.env.now
        net.run(until=r)
        read_time = net.env.now - t0
        assert r.value.cache_hit_blocks == r.value.total_blocks
        # Disk pool is 2 servers x 4 MB/s = 8 MB/s -> a cold read of
        # 8 MB would take ~1 s; the cached read runs at LAN speed.
        assert read_time < 0.3

    def test_write_validation(self):
        net, client, servers, handle = build()
        with pytest.raises(ValueError):
            client.write(handle, 0)
        with pytest.raises(ValueError):
            client.write(handle, handle.size + 1 * MB)
        client.close(handle)
        with pytest.raises(ValueError):
            client.write(handle, 1 * MB)

    def test_write_throughput_disk_limited(self):
        net, client, servers, handle = build(disk_rate=2 * MB,
                                             cache_bytes=0)
        ev = client.write(handle, 16 * MB)
        net.run(until=ev)
        # 2 servers x 8 MB/s pools = 16 MB/s aggregate.
        assert ev.value.throughput == pytest.approx(16 * MB, rel=0.15)
