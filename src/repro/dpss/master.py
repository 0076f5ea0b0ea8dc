"""The DPSS master: lookup and load balancing."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.dpss.blocks import BlockMap, DpssDataset

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import StripeConfig
    from repro.dpss.server import DpssServer
    from repro.netsim.host import Host


class ServerUnavailable(ConnectionError):
    """Raised when a read needs blocks from an offline server.

    The DPSS stripes without replication, so losing a server makes a
    stripe's blocks unreachable until it returns.
    """


#: the master's request handling time (s) on top of the network round
#: trip ("logical to physical block lookup, access control, load
#: balancing", Figure 7)
LOOKUP_LATENCY = 0.002


class DpssMaster:
    """Keeps the dataset registry and answers block-lookup requests."""

    def __init__(self, host: "Host"):
        self.host = host
        self.name = host.name
        self.lookup_latency = LOOKUP_LATENCY
        self.servers: Dict[str, "DpssServer"] = {}
        self._maps: Dict[str, BlockMap] = {}
        #: sim time until which the master answers nothing (an injected
        #: :class:`~repro.faults.plan.MasterStall`); 0 = never stalled
        self.stalled_until: float = 0.0

    def stall_delay(self, now: float) -> float:
        """Extra wait a request issued at ``now`` pays before service."""
        return max(self.stalled_until - now, 0.0)

    def add_server(self, server: "DpssServer") -> "DpssServer":
        """Register a block server with this master."""
        if server.name in self.servers:
            raise ValueError(f"duplicate server {server.name!r}")
        self.servers[server.name] = server
        return server

    def register_dataset(
        self,
        dataset: DpssDataset,
        *,
        replicas: int = 1,
        stripe: Optional["StripeConfig"] = None,
    ) -> BlockMap:
        """Stripe a dataset across every registered server, in name order.

        With ``stripe`` enabled the dataset is laid out by a RAID-5
        :class:`~repro.dpss.stripe.StripeMap` over the first
        ``stripe.width`` servers (parity replaces replication, so
        ``replicas`` must stay 1); otherwise the historical
        round-robin striping applies.
        """
        if dataset.name in self._maps:
            raise ValueError(f"dataset {dataset.name!r} already registered")
        servers = sorted(self.servers)
        if not servers:
            raise ValueError("no servers registered")
        stripe_map = None
        if stripe is not None and stripe.enabled:
            from repro.dpss.stripe import StripeMap

            if len(servers) < stripe.width:
                raise ValueError(
                    f"stripe width {stripe.width} needs at least "
                    f"{stripe.width} servers, have {len(servers)}"
                )
            if replicas != 1:
                raise ValueError(
                    "parity striping replaces replication; replicas "
                    f"must be 1, got {replicas}"
                )
            servers = servers[: stripe.width]
            stripe_map = StripeMap(
                dataset, servers,
                n_data=stripe.n_data, n_parity=stripe.n_parity,
            )
        block_map = BlockMap(
            dataset, servers, replicas=replicas, stripe=stripe_map
        )
        self._maps[dataset.name] = block_map
        return block_map

    def lookup(self, dataset_name: str) -> BlockMap:
        """Resolve a dataset's block map."""
        if dataset_name not in self._maps:
            raise KeyError(f"unknown dataset {dataset_name!r}")
        return self._maps[dataset_name]

    def datasets(self) -> List[str]:
        """Names of registered datasets."""
        return sorted(self._maps)

    # -- placement / load balancing ------------------------------------
    def place_block(self, block_map: BlockMap, block: int) -> str:
        """The server a read of ``block`` should target right now.

        The first *online* replica holder in stripe order wins (the
        master's "load balancing" duty, Figure 7); with every holder
        down the primary is returned so the failure surfaces at the
        read, not silently at planning time.
        """
        for name in block_map.replica_servers(block):
            if self.servers[name].online:
                return name
        return block_map.server_of_block(block)

    def plan_read(
        self, block_map: BlockMap, offset: float, nbytes: float
    ) -> Tuple[Dict[str, Tuple[int, float]], Dict[str, Sequence[int]]]:
        """Per-server work for a range read, avoiding offline servers.

        Returns ``(plan, per_server_blocks)`` where ``plan`` maps each
        chosen server to ``(n_blocks, n_bytes)`` and
        ``per_server_blocks`` lists the logical blocks it will serve.
        Unlike :meth:`BlockMap.plan_read` -- the static primary-only
        striping -- this consults live server state, re-balancing
        lookups away from dead servers when the dataset has replicas.
        """
        return block_map.shares(
            offset, nbytes,
            place=lambda block: self.place_block(block_map, block),
        )

    def failover_server(
        self, block_map: BlockMap, server_name: str
    ) -> Optional[str]:
        """An online replica holder that can stand in for a server.

        Blocks primary on stripe position ``i`` are replicated on the
        next ``replicas - 1`` positions, so any of those servers can
        serve a failed peer's share. Returns ``None`` when the dataset
        has no replicas or every candidate is down.
        """
        names = block_map.server_names
        if server_name not in names or block_map.replicas < 2:
            return None
        i = names.index(server_name)
        for j in range(1, block_map.replicas):
            candidate = names[(i + j) % len(names)]
            if candidate != server_name and self.servers[candidate].online:
                return candidate
        return None
