"""The Distributed-Parallel Storage System (DPSS) network data cache.

"The DPSS is a data block server, built using low-cost commodity
hardware components and custom software to provide parallelism at the
disk, server, and network level" (section 2). The architecture
(Figure 7) has three parts, all reproduced here:

- :class:`~repro.dpss.master.DpssMaster` -- logical-to-physical block
  lookup and load balancing;
- :class:`~repro.dpss.server.DpssServer` -- block servers with
  parallel disk pools and their own NICs;
- :class:`~repro.dpss.client.DpssClient` -- the client library
  (``dpss_open/read/write/close``); "the DPSS client library is
  multi-threaded, where the number of client threads is equal to the
  number of DPSS servers" -- each server gets its own TCP stream and
  requests proceed in parallel. The client owns *transport*; a read
  is one loop in :mod:`~repro.dpss.read`, fed by a replica requestor
  (one share per server) or a parity requestor (k-of-n over stripes).

Datasets are striped round-robin across servers in fixed-size logical
blocks (:mod:`~repro.dpss.blocks`); servers keep a block-level RAM
cache so hot data is served at NIC speed instead of disk speed.
"""

from repro.dpss.blocks import BlockMap, DpssDataset
from repro.dpss.server import DpssServer
from repro.dpss.master import DpssMaster, ServerUnavailable
from repro.dpss.client import DpssClient, DpssHandle, ReadStats
from repro.dpss.compression import CompressionModel
from repro.dpss.health import HealthTracker, ServerHealth
from repro.dpss.stripe import StripeMap, StripeStore, XorCodec

__all__ = [
    "BlockMap",
    "DpssDataset",
    "DpssServer",
    "DpssMaster",
    "ServerUnavailable",
    "DpssClient",
    "DpssHandle",
    "ReadStats",
    "CompressionModel",
    "HealthTracker",
    "ServerHealth",
    "StripeMap",
    "StripeStore",
    "XorCodec",
]
