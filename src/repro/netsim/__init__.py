"""Network, host and transport models on top of the fluid scheduler.

The paper's experiments run over four kinds of infrastructure: high
speed WAN testbeds (NTON at OC-12, shared ESnet), conference show-floor
networks (SC99 SciNet), gigabit LANs, and the hosts on either end
(DPSS servers, cluster nodes, SMPs, desktop viewers). This package
models all of them:

- :class:`~repro.netsim.link.Link` -- a pipe with line rate, one-way
  latency and a goodput efficiency factor.
- :class:`~repro.netsim.host.Host` -- NIC ingress/egress capacity and
  a CPU pool; computes run as fluid tasks so co-scheduled renders
  share CPUs naturally.
- :class:`~repro.netsim.topology.Network` -- hosts + links + routes;
  owns the :class:`~repro.simcore.fluid.FluidScheduler`.
- :class:`~repro.netsim.tcp.TcpConnection` -- slow start, window/RTT
  rate caps, persistent congestion state across sends. The paper's
  striped sockets are one such connection per back-end PE (see
  :meth:`~repro.viewer.sim.SimViewer.register_pe`).
- :func:`~repro.netsim.iperf.iperf` -- the bulk-throughput probe the
  paper compares against.
"""

from repro.netsim.link import Link
from repro.netsim.host import Host
from repro.netsim.sites import SiteFabric
from repro.netsim.topology import Network, Route
from repro.netsim.tcp import TcpConnection, TcpParams, TransferStats
from repro.netsim.iperf import IperfResult, iperf

__all__ = [
    "Link",
    "Host",
    "Network",
    "Route",
    "SiteFabric",
    "TcpConnection",
    "TcpParams",
    "TransferStats",
    "IperfResult",
    "iperf",
]
