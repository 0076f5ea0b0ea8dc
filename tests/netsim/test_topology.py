"""Tests for hosts, links and network topology wiring."""

import pytest

from repro.netsim import Host, Link, Network
from repro.util.units import OC12, mbps


def simple_net():
    net = Network()
    net.add_host(Host("a", nic_rate=mbps(1000)))
    net.add_host(Host("b", nic_rate=mbps(1000)))
    wan = net.add_link(Link("wan", rate=OC12, latency=0.005))
    net.add_route("a", "b", [wan])
    return net, wan


def test_link_capacity_with_efficiency():
    link = Link("l", rate=1000.0, efficiency=0.7)
    assert link.capacity == pytest.approx(700.0)


def test_link_background_rate_reduces_capacity():
    link = Link("l", rate=1000.0, efficiency=0.9, background_rate=200.0)
    assert link.capacity == pytest.approx(700.0)


def test_link_validation():
    with pytest.raises(ValueError):
        Link("l", rate=0.0)
    with pytest.raises(ValueError):
        Link("l", rate=1.0, latency=-1.0)
    with pytest.raises(ValueError):
        Link("l", rate=1.0, efficiency=1.5)


def test_host_validation():
    with pytest.raises(ValueError):
        Host("h", nic_rate=0)
    with pytest.raises(ValueError):
        Host("h", nic_rate=1.0, n_cpus=0)


def test_route_latency_defaults_to_link_sum():
    net, wan = simple_net()
    route = net.route("a", "b")
    assert route.latency == pytest.approx(0.005)
    assert route.rtt == pytest.approx(0.010)


def test_route_is_bidirectional_by_default():
    net, _ = simple_net()
    assert net.route("b", "a").dst == "a"


def test_missing_route_raises():
    net, _ = simple_net()
    with pytest.raises(KeyError):
        net.route("a", "nowhere")


def test_duplicate_host_rejected():
    net = Network()
    net.add_host(Host("a", nic_rate=1e6))
    with pytest.raises(ValueError):
        net.add_host(Host("a", nic_rate=1e6))


def test_duplicate_link_rejected():
    net = Network()
    net.add_link(Link("l", rate=1e6))
    with pytest.raises(ValueError):
        net.add_link(Link("l", rate=1e6))


def test_route_requires_known_pieces():
    net = Network()
    net.add_host(Host("a", nic_rate=1e6))
    net.add_host(Host("b", nic_rate=1e6))
    foreign = Link("foreign", rate=1e6)
    with pytest.raises(KeyError):
        net.add_route("a", "b", [foreign])
    with pytest.raises(KeyError):
        net.add_route("a", "ghost", [])
    with pytest.raises(ValueError):
        net.add_route("a", "a", [])


def test_path_resources_order():
    net, wan = simple_net()
    res = net.path_resources("a", "b")
    assert [r.name for r in res] == ["nic:a", "link:wan", "nic:b"]


def test_host_compute_runs_on_cpu_pool():
    net = Network()
    h = net.add_host(Host("smp", nic_rate=1e6, n_cpus=4))
    done = h.compute(2.0)
    net.run(until=done)
    assert net.env.now == pytest.approx(2.0)


def test_host_compute_single_thread_cap():
    """One thread cannot use more than one CPU even on an SMP."""
    net = Network()
    h = net.add_host(Host("smp", nic_rate=1e6, n_cpus=8))
    done = h.compute(3.0)
    net.run(until=done)
    assert net.env.now == pytest.approx(3.0)  # not 3/8


def test_host_compute_pool_contention():
    """More threads than CPUs -> processor sharing slowdown."""
    net = Network()
    h = net.add_host(Host("node", nic_rate=1e6, n_cpus=2))
    events = [h.compute(2.0, label=f"t{i}") for i in range(4)]
    net.run(until=net.env.all_of(events))
    # 4 threads x 2 cpu-sec on 2 CPUs = 8 cpu-sec / 2 = 4 seconds.
    assert net.env.now == pytest.approx(4.0)


def test_compute_requires_attachment():
    h = Host("stray", nic_rate=1e6)
    with pytest.raises(RuntimeError):
        h.compute(1.0)


