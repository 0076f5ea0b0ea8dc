"""Network topology: hosts, links, routes, and the shared scheduler."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.simcore.env import Environment
from repro.simcore.fluid import FluidScheduler
from repro.netsim.host import Host
from repro.netsim.link import Link


@dataclass(frozen=True)
class Route:
    """A one-way path between two hosts.

    ``latency`` is the one-way propagation delay (the sum of the link
    latencies); ``rtt`` is twice that.
    """

    src: str
    dst: str
    links: Tuple[Link, ...]
    latency: float
    rtt: float


class Network:
    """Hosts + links + routes over one fluid scheduler.

    Routes are directional; :meth:`add_route` installs both directions
    (WAN paths in the paper are symmetric). Each transfer's
    fluid task touches the sender NIC, every link on the route, and
    the receiver NIC, so saturation at any of the three shows up
    exactly where the paper saw it (single shared SMP NIC, OC-12
    backbone, per-node cluster NICs).
    """

    def __init__(self):
        self.env = Environment()
        self.sched = FluidScheduler(self.env)
        self.hosts: Dict[str, Host] = {}
        self.links: Dict[str, Link] = {}
        self._routes: Dict[Tuple[str, str], Route] = {}

    # -- construction -----------------------------------------------------
    def add_host(self, host: Host) -> Host:
        """Attach a host and register its NIC/CPU resources."""
        if host.name in self.hosts:
            raise ValueError(f"duplicate host {host.name!r}")
        self.hosts[host.name] = host
        host.attach(self)
        return host

    def add_link(self, link: Link) -> Link:
        """Register a link's bandwidth resource."""
        if link.name in self.links:
            raise ValueError(f"duplicate link {link.name!r}")
        self.links[link.name] = link
        self.sched.add_resource(link.resource)
        return link

    def add_route(
        self,
        src: str,
        dst: str,
        links: Sequence[Link],
    ) -> Route:
        """Install a route from ``src`` to ``dst`` over ``links``, and
        its reverse unless one is installed already."""
        if src not in self.hosts:
            raise KeyError(f"unknown host {src!r}")
        if dst not in self.hosts:
            raise KeyError(f"unknown host {dst!r}")
        if src == dst:
            raise ValueError("route endpoints must differ")
        for link in links:
            if link.name not in self.links:
                raise KeyError(f"link {link.name!r} not added to network")
        one_way = sum(l.latency for l in links)
        round_trip = 2.0 * one_way
        route = Route(src, dst, tuple(links), one_way, round_trip)
        self._routes[(src, dst)] = route
        self._routes.setdefault(
            (dst, src), Route(dst, src, tuple(links), one_way, round_trip)
        )
        return route

    # -- lookup ---------------------------------------------------------------
    def route(self, src: str, dst: str) -> Route:
        """The installed route from ``src`` to ``dst``."""
        try:
            return self._routes[(src, dst)]
        except KeyError:
            raise KeyError(f"no route {src!r} -> {dst!r}") from None

    def host(self, name: str) -> Host:
        """Look up a host by name."""
        return self.hosts[name]

    def path_resources(self, src: str, dst: str) -> List:
        """Fluid resources a transfer src->dst occupies, in path order."""
        route = self.route(src, dst)
        resources = [self.hosts[src].nic]
        resources.extend(link.resource for link in route.links)
        resources.append(self.hosts[dst].nic)
        return resources

    def run(self, until=None):
        """Convenience passthrough to the environment's run loop."""
        return self.env.run(until=until)
