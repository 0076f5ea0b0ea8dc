"""Tests for the HPSS archive model and DPSS staging."""

import pytest

from repro.dpss import DpssClient, DpssMaster, DpssServer
from repro.hpss import ArchiveFile, HpssArchive, migrate_to_dpss
from repro.netsim import Host, Link, Network, TcpParams
from repro.util.units import GB, MB, mbps
from repro.config import NetworkConfig


def build_world():
    """Archive host + DPSS site + client on a fast LAN."""
    net = Network()
    archive_host = net.add_host(Host("hpss", nic_rate=mbps(1000)))
    master_host = net.add_host(Host("master", nic_rate=mbps(1000)))
    client_host = net.add_host(Host("client", nic_rate=mbps(1000)))
    lan = net.add_link(Link("lan", rate=mbps(1000), latency=0.0002))
    for a in ("hpss", "master", "client"):
        for b in ("hpss", "master", "client"):
            if a < b:
                net.add_route(a, b, [lan])
    master = DpssMaster(master_host)
    for i in range(4):
        h = net.add_host(Host(f"server{i}", nic_rate=mbps(1000)))
        s = DpssServer(h, n_disks=4, disk_rate=12 * MB)
        s.attach(net)
        master.add_server(s)
        net.add_route(f"server{i}", "client", [lan])
    archive = HpssArchive(archive_host, mount_latency=20.0, drive_rate=15 * MB)
    client = DpssClient(net, "client", master,
                        config=NetworkConfig(
                            tcp=TcpParams(slow_start=False)))
    return net, archive, master, client


class TestArchive:
    def test_store_and_lookup(self):
        net, archive, _, _ = build_world()
        f = archive.store(ArchiveFile("run42", size=1 * GB))
        assert archive.lookup("run42") is f
        with pytest.raises(KeyError):
            archive.lookup("missing")
        with pytest.raises(ValueError):
            archive.store(ArchiveFile("run42", size=1 * GB))

    def test_retrieve_pays_mount_and_drive_rate(self):
        net, archive, _, _ = build_world()
        archive.store(ArchiveFile("f", size=150 * MB))
        ev = archive.retrieve(net, "f", "client")
        net.run(until=ev)
        # 20 s mount + 150 MB at 15 MB/s = 10 s -> ~30 s, despite the
        # gigabit LAN.
        assert net.env.now == pytest.approx(30.0, rel=0.05)

    def test_estimate_matches_model(self):
        net, archive, _, _ = build_world()
        archive.store(ArchiveFile("f", size=150 * MB))
        assert archive.retrieval_time_estimate("f") == pytest.approx(30.0)

    def test_validation(self):
        net, archive, _, _ = build_world()
        with pytest.raises(ValueError):
            ArchiveFile("f", size=0)
        with pytest.raises(ValueError):
            HpssArchive(archive.host, mount_latency=-1)
        with pytest.raises(ValueError):
            HpssArchive(archive.host, drive_rate=0)


class TestMigration:
    def test_migrate_then_block_read(self):
        """The paper's workflow: stage once, then block-read fast."""
        net, archive, master, client = build_world()
        archive.store(ArchiveFile("run42", size=160 * MB))
        mig = migrate_to_dpss(net, archive, "run42", master)
        net.run(until=mig)
        result = mig.value
        assert result.dataset_name == "run42"
        assert "run42" in master.datasets()
        # Staging is tape-limited and slow...
        assert result.duration > 10.0

        # ...but block reads afterwards come from the DPSS at LAN speed.
        ev = client.open("run42")
        net.run(until=ev)
        handle = ev.value
        t0 = net.env.now
        read = client.read(handle, 16 * MB)
        net.run(until=read)
        read_time = net.env.now - t0
        # Block read of a tenth of the file is far faster than any
        # whole-file HPSS retrieval could be.
        assert read_time < result.duration / 10
        assert read.value.nbytes == 16 * MB
