"""RAID-5 parity striping for the DPSS: layout, codec, block store.

The paper's DPSS "stripes without replication", so PR 3's request
policies ride out a dead server with timeout+retry round trips.
Production data planes reconstruct instead: this module lays dataset
blocks out in block-interleaved stripes with *rotating parity* across
the server set (the classic left-symmetric RAID-5 layout), so a reader
may treat the slowest of ``n`` servers as erased and rebuild its
blocks by XOR from the other ``n - 1``.

Three pieces:

- :class:`StripeMap` -- the placement geometry. Every ``n_data``
  consecutive logical blocks form a *stripe*; each stripe additionally
  owns one parity block, stored on a server position that rotates
  stripe by stripe so parity I/O spreads evenly. Parity blocks are
  first-class DPSS blocks: they get real block ids (above the data
  block id space), land in server block caches, and travel the same
  server/master paths as data.
- :class:`XorCodec` -- parity generation and single-erasure
  reconstruction over real bytes, plus the CPU cost model the fluid
  simulation charges for the XOR pass.
- :class:`StripeStore` -- an in-memory content store used by the
  correctness suites to prove, byte for byte, that a k-of-n
  reconstructed read equals the direct read it replaced.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.dpss.blocks import DpssDataset

__all__ = ["StripeMap", "XorCodec", "StripeStore"]


class StripeMap:
    """Block-interleaved RAID-5 placement for one dataset.

    ``server_names`` is the stripe width: exactly ``n_data + n_parity``
    servers. Stripe ``s`` covers data blocks
    ``[s * n_data, (s + 1) * n_data)``; its parity block lives at
    server position ``parity_pos(s)``, which rotates right-to-left so
    consecutive stripes park parity on different servers
    (left-symmetric rotation). Data blocks fill the remaining
    positions in order.
    """

    def __init__(
        self,
        dataset: DpssDataset,
        server_names: Sequence[str],
        *,
        n_data: int,
        n_parity: int = 1,
    ):
        if n_data < 2:
            raise ValueError(f"n_data must be >= 2, got {n_data}")
        if n_parity != 1:
            raise ValueError(
                f"XOR parity supports exactly 1 parity block per stripe, "
                f"got n_parity={n_parity}"
            )
        width = n_data + n_parity
        if len(server_names) != width:
            raise ValueError(
                f"stripe width {width} (= {n_data}+{n_parity}) needs "
                f"exactly {width} servers, got {len(server_names)}"
            )
        if len(set(server_names)) != len(server_names):
            raise ValueError("duplicate server names in stripe set")
        self.dataset = dataset
        self.server_names: List[str] = list(server_names)
        self.n_data = int(n_data)
        self.n_parity = int(n_parity)
        self.width = width

    # -- geometry -------------------------------------------------------
    @property
    def n_stripes(self) -> int:
        """Stripe count (the last stripe may be short)."""
        n = self.dataset.n_blocks
        return -(-n // self.n_data)

    def stripe_of_block(self, block: int) -> int:
        """The stripe a data block belongs to."""
        self._check_data_block(block)
        return block // self.n_data

    def parity_pos(self, stripe: int) -> int:
        """Server position of a stripe's parity block (rotating)."""
        self._check_stripe(stripe)
        return (self.width - 1) - (stripe % self.width)

    def parity_server(self, stripe: int) -> str:
        """The server holding a stripe's parity block."""
        return self.server_names[self.parity_pos(stripe)]

    def server_of_block(self, block: int) -> str:
        """The server holding a data block (positions skip parity)."""
        self._check_data_block(block)
        stripe, j = divmod(block, self.n_data)
        ppos = self.parity_pos(stripe)
        pos = j if j < ppos else j + 1
        return self.server_names[pos]

    def data_blocks(self, stripe: int) -> range:
        """Data block ids of one stripe (short for the last stripe)."""
        self._check_stripe(stripe)
        lo = stripe * self.n_data
        return range(lo, min(lo + self.n_data, self.dataset.n_blocks))

    def parity_block_id(self, stripe: int) -> int:
        """The parity block's id: above the data block id space."""
        self._check_stripe(stripe)
        return self.dataset.n_blocks + stripe

    def block_bytes(self, block: int) -> float:
        """Actual size of a data block (the last one may be short)."""
        self._check_data_block(block)
        bs = self.dataset.block_size
        return min(bs, self.dataset.size - block * bs)

    def parity_bytes(self, stripe: int) -> float:
        """Parity block size: the largest data block of the stripe."""
        first = stripe * self.n_data  # first block is never the short one
        return self.block_bytes(first)

    def stripes_for_blocks(self, blocks: Iterable[int]) -> List[int]:
        """Sorted distinct stripes touched by a set of data blocks."""
        return sorted({b // self.n_data for b in blocks})

    # -- validation -----------------------------------------------------
    def _check_data_block(self, block: int) -> None:
        if not 0 <= block < self.dataset.n_blocks:
            raise IndexError(
                f"block {block} outside [0, {self.dataset.n_blocks})"
            )

    def _check_stripe(self, stripe: int) -> None:
        if not 0 <= stripe < self.n_stripes:
            raise IndexError(
                f"stripe {stripe} outside [0, {self.n_stripes})"
            )


class XorCodec:
    """XOR parity over real bytes, plus the simulated CPU cost.

    ``rate`` is the XOR throughput (bytes of input per second) charged
    by :meth:`xor_seconds` when a simulated client reconstructs -- a
    single memory-bound pass, far cheaper than a timeout+retry round
    trip, which is the whole point.
    """

    #: XOR throughput: one memory-bandwidth-bound pass
    rate = 2e9

    @staticmethod
    def parity(blocks: Sequence[bytes]) -> bytes:
        """XOR of the given blocks, zero-padded to the longest."""
        if not blocks:
            raise ValueError("parity of an empty block set is undefined")
        length = max(len(b) for b in blocks)
        acc = np.zeros(length, dtype=np.uint8)
        for b in blocks:
            if b:
                acc[: len(b)] ^= np.frombuffer(b, dtype=np.uint8)
        return acc.tobytes()

    @classmethod
    def reconstruct(
        cls, siblings: Sequence[bytes], parity: bytes, *, length: int
    ) -> bytes:
        """Rebuild the one missing block of a stripe.

        ``siblings`` are the surviving data blocks, ``parity`` the
        stripe's parity block, ``length`` the missing block's true
        size (blocks at the dataset tail run short).
        """
        if length > len(parity):
            raise ValueError(
                f"missing block of {length} bytes cannot come out of a "
                f"{len(parity)}-byte parity block"
            )
        return cls.parity(list(siblings) + [parity])[:length]

    def xor_seconds(self, input_bytes: float) -> float:
        """CPU seconds for one XOR pass over ``input_bytes`` of input."""
        return max(float(input_bytes), 0.0) / self.rate


class StripeStore:
    """An in-memory striped block store with erasure-coded reads.

    The fluid simulation moves byte *counts*, not payloads, so the
    reconstruct-equals-direct guarantee is proven here over real
    bytes: :meth:`write` stripes content and generates parity through
    the :class:`XorCodec`; :meth:`read` serves a byte range while
    treating any subset of servers as erased, reconstructing
    single-erasure stripes and degrading (zero-filled, reported) on
    double faults -- exactly the client's
    ``reconstruct-or-deliver-absent`` contract.
    """

    def __init__(self, stripe_map: StripeMap):
        self.stripe_map = stripe_map
        self.codec = XorCodec()
        #: server name -> {block id: content}; parity ids included
        self.disks: Dict[str, Dict[int, bytes]] = {
            name: {} for name in stripe_map.server_names
        }

    def write(self, content: bytes) -> None:
        """Stripe the full dataset content and generate parity."""
        smap = self.stripe_map
        ds = smap.dataset
        if len(content) != int(ds.size):
            raise ValueError(
                f"content is {len(content)} bytes, dataset holds "
                f"{int(ds.size)}"
            )
        bs = int(ds.block_size)
        for stripe in range(smap.n_stripes):
            chunks = []
            for block in smap.data_blocks(stripe):
                chunk = content[block * bs : block * bs + bs]
                self.disks[smap.server_of_block(block)][block] = chunk
                chunks.append(chunk)
            self.disks[smap.parity_server(stripe)][
                smap.parity_block_id(stripe)
            ] = self.codec.parity(chunks)

    def _block(
        self, block: int, erased: Set[str]
    ) -> Tuple[Optional[bytes], bool]:
        """One data block honouring erasures: (content, reconstructed).

        ``None`` content = unrecoverable (a second loss in the stripe).
        """
        smap = self.stripe_map
        owner = smap.server_of_block(block)
        if owner not in erased:
            return self.disks[owner][block], False
        stripe = smap.stripe_of_block(block)
        if smap.parity_server(stripe) in erased:
            return None, False
        siblings = []
        for sib in smap.data_blocks(stripe):
            if sib == block:
                continue
            holder = smap.server_of_block(sib)
            if holder in erased:
                return None, False  # double fault inside the stripe
            siblings.append(self.disks[holder][sib])
        parity = self.disks[smap.parity_server(stripe)][
            smap.parity_block_id(stripe)
        ]
        data = self.codec.reconstruct(
            siblings, parity, length=int(smap.block_bytes(block))
        )
        return data, True

    def read(
        self,
        offset: int,
        nbytes: int,
        *,
        erased: Iterable[str] = (),
    ) -> Tuple[bytes, int, int]:
        """Read a range; returns ``(data, reconstructed, missing)``.

        ``reconstructed`` counts blocks rebuilt from parity;
        ``missing`` counts bytes zero-filled because a stripe lost two
        holders (the graceful-degradation path).
        """
        smap = self.stripe_map
        ds = smap.dataset
        if offset < 0 or nbytes <= 0 or offset + nbytes > int(ds.size):
            raise ValueError(
                f"bad range [{offset}, {offset + nbytes}) for dataset "
                f"of {int(ds.size)} bytes"
            )
        erased_set = set(erased)
        bs = int(ds.block_size)
        first = offset // bs
        last = -(-(offset + nbytes) // bs)
        out = bytearray()
        reconstructed = 0
        missing = 0
        for block in range(first, last):
            lo = max(block * bs, offset)
            hi = min((block + 1) * bs, offset + nbytes)
            content, rebuilt = self._block(block, erased_set)
            if content is None:
                out.extend(bytes(hi - lo))
                missing += hi - lo
            else:
                out.extend(content[lo - block * bs : hi - block * bs])
                reconstructed += 1 if rebuilt else 0
        return bytes(out), reconstructed, missing
