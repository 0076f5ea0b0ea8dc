"""Tests for the TCP model and the iperf probe."""

import pytest

from repro.netsim import (
    Host,
    Link,
    Network,
    TcpConnection,
    TcpParams,
    iperf,
)
from repro.util.units import KIB, MB, bytes_per_sec_to_mbps, mbps


def lan_net(latency=0.0001, rate=mbps(1000)):
    net = Network()
    net.add_host(Host("a", nic_rate=rate))
    net.add_host(Host("b", nic_rate=rate))
    l = net.add_link(Link("lan", rate=rate, latency=latency))
    net.add_route("a", "b", [l])
    return net


def wan_net(rtt=0.050, rate=mbps(622), efficiency=1.0):
    net = Network()
    net.add_host(Host("a", nic_rate=mbps(10000)))
    net.add_host(Host("b", nic_rate=mbps(10000)))
    l = net.add_link(
        Link("wan", rate=rate, latency=rtt / 2, efficiency=efficiency)
    )
    net.add_route("a", "b", [l])
    return net


def test_transfer_completes_with_stats():
    net = lan_net()
    conn = TcpConnection(net, "a", "b", TcpParams(slow_start=False))
    ev = conn.send(10 * MB)
    net.run(until=ev)
    stats = ev.value
    assert stats.nbytes == 10 * MB
    assert stats.delivered >= stats.sent >= stats.start
    assert stats.throughput > 0


def test_lan_transfer_near_line_rate():
    net = lan_net()
    conn = TcpConnection(net, "a", "b", TcpParams(slow_start=False))
    ev = conn.send(100 * MB)
    net.run(until=ev)
    achieved = bytes_per_sec_to_mbps(ev.value.throughput)
    assert achieved == pytest.approx(1000.0, rel=0.02)


def test_slow_start_delays_first_transfer():
    net = wan_net(rtt=0.050)
    fast = TcpConnection(net, "a", "b", TcpParams(slow_start=False))
    slow = TcpConnection(net, "a", "b", TcpParams(slow_start=True))
    e1 = fast.send(10 * MB)
    net.run(until=e1)
    e2 = slow.send(10 * MB)
    net.run(until=e2)
    assert e2.value.duration > e1.value.duration


def test_window_rtt_ceiling():
    """A 512 KiB window over 50 ms RTT caps a stream near 84 Mbps."""
    net = wan_net(rtt=0.050, rate=mbps(622))
    params = TcpParams(max_window=512 * KIB, slow_start=False)
    conn = TcpConnection(net, "a", "b", params)
    ev = conn.send(100 * MB)
    net.run(until=ev)
    expected = bytes_per_sec_to_mbps(512 * KIB / 0.050)
    achieved = bytes_per_sec_to_mbps(ev.value.throughput)
    assert achieved == pytest.approx(expected, rel=0.05)
    assert achieved < 100.0  # far below the OC-12 line rate


def test_parallel_streams_beat_single_stream():
    """The paper's headline TCP effect: parallelism defeats the window cap."""
    params = TcpParams(max_window=512 * KIB, slow_start=False)
    single = iperf(wan_net(), "a", "b", nbytes=50 * MB, streams=1, params=params)
    eight = iperf(wan_net(), "a", "b", nbytes=50 * MB, streams=8, params=params)
    assert eight.mbps > 4 * single.mbps


def test_connection_window_persists_across_sends():
    net = wan_net(rtt=0.050)
    conn = TcpConnection(net, "a", "b", TcpParams(slow_start=True))
    e1 = conn.send(20 * MB)
    net.run(until=e1)
    first = e1.value.duration
    e2 = conn.send(20 * MB)
    net.run(until=e2)
    second = e2.value.duration
    assert second < first  # no handshake, window kept from before
    assert conn.cwnd > conn.params.init_cwnd


def test_concurrent_send_on_one_connection_rejected():
    net = lan_net()
    conn = TcpConnection(net, "a", "b")
    conn.send(1 * MB)
    with pytest.raises(RuntimeError):
        conn.send(1 * MB)


def test_host_cap_limits_transfer():
    net = lan_net()
    conn = TcpConnection(net, "a", "b", TcpParams(slow_start=False))
    conn.set_host_cap(mbps(100))
    ev = conn.send(10 * MB)
    net.run(until=ev)
    achieved = bytes_per_sec_to_mbps(ev.value.throughput)
    assert achieved == pytest.approx(100.0, rel=0.05)


def test_host_cap_can_change_mid_flight():
    net = lan_net()
    conn = TcpConnection(net, "a", "b", TcpParams(slow_start=False))
    ev = conn.send(100 * MB)

    def clamp(env, conn):
        yield env.timeout(0.4)
        conn.set_host_cap(mbps(100))

    net.env.process(clamp(net.env, conn))
    net.run(until=ev)
    # ~50 MB at ~1000 Mbps in 0.4s, remaining ~50 MB at 100 Mbps -> ~4.4s
    assert ev.value.duration == pytest.approx(4.4, rel=0.1)


def test_sharing_two_connections_split_link():
    net = lan_net()
    c1 = TcpConnection(net, "a", "b", TcpParams(slow_start=False))
    c2 = TcpConnection(net, "a", "b", TcpParams(slow_start=False))
    e1 = c1.send(50 * MB)
    e2 = c2.send(50 * MB)
    net.run(until=net.env.all_of([e1, e2]))
    # Equal work sharing one link: both finish together at ~0.8s.
    assert e1.value.delivered == pytest.approx(e2.value.delivered, rel=1e-6)
    assert bytes_per_sec_to_mbps(e1.value.throughput) == pytest.approx(
        500.0, rel=0.05
    )


def test_tcp_params_validation():
    with pytest.raises(ValueError):
        TcpParams(mss=0)
    with pytest.raises(ValueError):
        TcpParams(init_cwnd=10 * MB, max_window=1 * MB)
    net = lan_net()
    conn = TcpConnection(net, "a", "b")
    with pytest.raises(ValueError):
        conn.send(0)


def test_link_efficiency_limits_goodput():
    net = wan_net(rtt=0.010, rate=mbps(622), efficiency=0.70)
    conn = TcpConnection(
        net, "a", "b", TcpParams(max_window=8 * MB, slow_start=False)
    )
    ev = conn.send(100 * MB)
    net.run(until=ev)
    achieved = bytes_per_sec_to_mbps(ev.value.throughput)
    assert achieved == pytest.approx(0.70 * 622.0, rel=0.05)


# --------------------------------------------------------------- iperf
def test_iperf_result_units():
    net = lan_net()
    res = iperf(net, "a", "b", nbytes=10 * MB, streams=1,
                params=TcpParams(slow_start=False))
    assert res.mbps == pytest.approx(1000.0, rel=0.05)
    assert res.streams == 1
    assert res.duration > 0


def test_iperf_streams_aggregate_past_one_window():
    """Parallel streams each get their own window, so the aggregate
    beats the single-stream ``max_window / rtt`` cap several times."""
    net = wan_net(rtt=0.050)
    res = iperf(net, "a", "b", nbytes=50 * MB, streams=8,
                params=TcpParams(max_window=512 * KIB, slow_start=False))
    single_cap = bytes_per_sec_to_mbps(512 * KIB / 0.050)
    assert res.streams == 8
    assert res.mbps > 4 * single_cap


def test_iperf_validation():
    net = lan_net()
    with pytest.raises(ValueError):
        iperf(net, "a", "b", nbytes=0)
    with pytest.raises(ValueError):
        iperf(net, "a", "b", streams=0)
