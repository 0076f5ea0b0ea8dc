"""Tests for DPSS wire-level compression (section 5 future work)."""

import pytest

from repro.dpss import (
    CompressionModel,
    DpssClient,
    DpssDataset,
    DpssMaster,
    DpssServer,
)
from repro.netsim import Host, Link, Network, TcpParams
from repro.util.units import MB, mbps
from repro.config import NetworkConfig


def build(wan_mbps, compression=None, client_cpus=2):
    net = Network()
    net.add_host(Host("client", nic_rate=mbps(2000), n_cpus=client_cpus))
    net.add_host(Host("master", nic_rate=mbps(100)))
    link = net.add_link(Link("path", rate=mbps(wan_mbps), latency=0.002))
    net.add_route("client", "master", [link])
    master = DpssMaster(net.host("master"))
    for i in range(2):
        net.add_host(Host(f"s{i}", nic_rate=mbps(1000)))
        srv = DpssServer(net.host(f"s{i}"), n_disks=5, disk_rate=10 * MB,
                         cache_bytes=0)
        srv.attach(net)
        master.add_server(srv)
        net.add_route(f"s{i}", "client", [link])
    master.register_dataset(DpssDataset("ds", size=64 * MB))
    client = DpssClient(
        net, "client", master,
        config=NetworkConfig(
            tcp=TcpParams(slow_start=False),
            compression=compression,
        ),
    )
    ev = client.open("ds")
    net.run(until=ev)
    return net, client, ev.value


def timed_read(net, client, handle, nbytes):
    t0 = net.env.now
    ev = client.read(handle, nbytes, offset=0)
    net.run(until=ev)
    return net.env.now - t0, ev.value


class TestModel:
    def test_wire_bytes_and_cpu(self):
        model = CompressionModel(ratio=4.0, decompress_rate=100e6)
        assert model.wire_bytes(400e6) == pytest.approx(100e6)
        assert model.decompress_seconds(400e6) == pytest.approx(4.0)

    def test_presets(self):
        assert CompressionModel.lossy(0.5).ratio == pytest.approx(4.0)
        assert CompressionModel.lossy(0.25).ratio == pytest.approx(8.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CompressionModel(ratio=0.5, decompress_rate=1e6)
        with pytest.raises(ValueError):
            CompressionModel(ratio=2.0, decompress_rate=0)
        with pytest.raises(ValueError):
            CompressionModel.lossy(0.0)
        with pytest.raises(ValueError):
            CompressionModel.lossy(1.5)


class TestClientIntegration:
    def test_wire_bytes_reported(self):
        model = CompressionModel(ratio=4.0, decompress_rate=1e9)
        net, client, handle = build(100.0, model)
        _, stats = timed_read(net, client, handle, 32 * MB)
        assert stats.nbytes == 32 * MB
        assert stats.wire_bytes == pytest.approx(8 * MB)
        assert stats.decompress_seconds > 0

    def test_compression_speeds_up_slow_path(self):
        net, client, handle = build(50.0, None)
        raw_time, _ = timed_read(net, client, handle, 32 * MB)
        model = CompressionModel.lossy(0.5)
        net2, client2, handle2 = build(50.0, model)
        cmp_time, _ = timed_read(net2, client2, handle2, 32 * MB)
        assert cmp_time < 0.5 * raw_time

    def test_decompression_costs_on_fast_path(self):
        net, client, handle = build(2000.0, None)
        raw_time, _ = timed_read(net, client, handle, 32 * MB)
        slow_inflate = CompressionModel(ratio=2.0, decompress_rate=20e6)
        net2, client2, handle2 = build(2000.0, slow_inflate)
        cmp_time, _ = timed_read(net2, client2, handle2, 32 * MB)
        assert cmp_time > raw_time

    def test_no_compression_defaults(self):
        net, client, handle = build(100.0, None)
        _, stats = timed_read(net, client, handle, 8 * MB)
        assert stats.wire_bytes == pytest.approx(8 * MB)
        assert stats.decompress_seconds == 0.0
