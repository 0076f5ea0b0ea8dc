"""E1 -- DPSS throughput (section 2 and section 3.5).

Paper claims:
- "Current performance results are 980 Mbps across a LAN and 570 Mbps
  across a WAN."
- "A four-server DPSS ... can thus deliver throughput of over 150
  megabytes per second by providing parallel access to 15-20 disks."
- "the ability to increase performance by increasing the number of
  parallel disk servers."
"""

import pytest

from repro.core.platforms import (
    DPSS_DISK_RATE,
    DPSS_DISKS_PER_SERVER,
    DPSS_SERVER_NIC,
    Wans,
)
from repro.dpss import DpssClient, DpssDataset, DpssMaster, DpssServer
from repro.netsim import Host, Link, Network, TcpParams
from repro.util.units import MB, GIGABIT_ETHERNET, bytes_per_sec_to_mbps, mbps
from repro.config import NetworkConfig
from benchmarks.conftest import once


def build_site(trunk_rate, trunk_efficiency, trunk_latency, n_servers=4,
               n_clients=2):
    """A DPSS site and client pool joined by one trunk link."""
    net = Network()
    trunk = net.add_link(
        Link("trunk", rate=trunk_rate, latency=trunk_latency,
             efficiency=trunk_efficiency)
    )
    master_host = net.add_host(Host("master", nic_rate=mbps(100)))
    master = DpssMaster(master_host)
    for i in range(n_servers):
        h = net.add_host(Host(f"server{i}", nic_rate=DPSS_SERVER_NIC))
        s = DpssServer(h, n_disks=DPSS_DISKS_PER_SERVER,
                       disk_rate=DPSS_DISK_RATE, cache_bytes=0)
        s.attach(net)
        master.add_server(s)
    clients = []
    for c in range(n_clients):
        net.add_host(Host(f"client{c}", nic_rate=GIGABIT_ETHERNET))
        net.add_route(f"client{c}", "master", [trunk])
        for i in range(n_servers):
            net.add_route(f"server{i}", f"client{c}", [trunk])
        clients.append(
            DpssClient(net, f"client{c}", master,
                       config=NetworkConfig(
                           tcp=TcpParams(slow_start=False,
                                         max_window=4 * MB)))
        )
    return net, master, clients


def aggregate_read(net, master, clients, nbytes_per_client):
    """All clients read concurrently; returns aggregate bytes/second."""
    master.register_dataset(
        DpssDataset("ds", size=nbytes_per_client * len(clients) * 2)
    )
    opens = [c.open("ds") for c in clients]
    net.run(until=net.env.all_of(opens))
    handles = [ev.value for ev in opens]
    start = net.env.now
    reads = [
        c.read(h, nbytes_per_client, offset=i * nbytes_per_client)
        for i, (c, h) in enumerate(zip(clients, handles))
    ]
    net.run(until=net.env.all_of(reads))
    elapsed = net.env.now - start
    return nbytes_per_client * len(clients) / elapsed


@pytest.mark.benchmark(group="e1-dpss")
def test_e1_lan_and_wan_throughput(benchmark, comparison):
    comp = comparison("E1", "DPSS throughput: LAN vs WAN (section 2)")

    def run():
        lan_net, lan_master, lan_clients = build_site(
            GIGABIT_ETHERNET, 0.98, 0.0001
        )
        lan = aggregate_read(lan_net, lan_master, lan_clients, 64 * MB)
        wan_net, wan_master, wan_clients = build_site(
            Wans.NTON_TUNED.rate, Wans.NTON_TUNED.efficiency, 0.0025
        )
        wan = aggregate_read(wan_net, wan_master, wan_clients, 64 * MB)
        return lan, wan

    lan, wan = once(benchmark, run)
    lan_mbps = bytes_per_sec_to_mbps(lan)
    wan_mbps = bytes_per_sec_to_mbps(wan)
    comp.row("LAN aggregate", "980 Mbps", f"{lan_mbps:.0f} Mbps")
    comp.row("WAN aggregate", "570 Mbps", f"{wan_mbps:.0f} Mbps")
    assert lan_mbps == pytest.approx(980, rel=0.10)
    assert wan_mbps == pytest.approx(570, rel=0.10)
    assert lan_mbps > wan_mbps


@pytest.mark.benchmark(group="e1-dpss")
def test_e1_four_server_aggregate_disk_rate(benchmark, comparison):
    comp = comparison(
        "E1", "Four-server DPSS disk aggregate (section 3.5)"
    )

    def run():
        # A fat trunk so the disks, not the network, are measured.
        net, master, clients = build_site(
            mbps(10000), 1.0, 0.0001, n_servers=4, n_clients=4
        )
        return aggregate_read(net, master, clients, 64 * MB)

    rate = once(benchmark, run)
    comp.row(
        "aggregate disk delivery", ">150 MB/s", f"{rate / MB:.0f} MB/s"
    )
    assert rate > 150 * MB


@pytest.mark.benchmark(group="e1-dpss")
def test_e1_scales_with_servers(benchmark, comparison):
    comp = comparison("E1", "Throughput scales with server count")

    def run():
        results = {}
        for n in (1, 2, 4):
            net, master, clients = build_site(
                mbps(10000), 1.0, 0.0001, n_servers=n, n_clients=4
            )
            results[n] = aggregate_read(net, master, clients, 32 * MB)
        return results

    results = once(benchmark, run)
    for n in (1, 2, 4):
        comp.row(
            f"{n} server(s)",
            "linear scaling",
            f"{bytes_per_sec_to_mbps(results[n]):.0f} Mbps",
        )
    assert results[2] > 1.7 * results[1]
    assert results[4] > 3.2 * results[1]
