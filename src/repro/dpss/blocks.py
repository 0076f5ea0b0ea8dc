"""Datasets, logical blocks and round-robin striping."""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple,
)

from repro.util.units import KIB
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - avoids an import cycle
    from repro.dpss.stripe import StripeMap


@dataclass(frozen=True)
class DpssDataset:
    """A named logical byte range stored in the DPSS."""

    name: str
    size: float
    block_size: float = 64 * KIB

    def __post_init__(self):
        check_positive("size", self.size)
        check_positive("block_size", self.block_size)

    @property
    def n_blocks(self) -> int:
        """Number of logical blocks (last one may be short)."""
        return int(-(-self.size // self.block_size))


#: integral byte counts up to here are exact doubles, and so are their sums
_EXACT_LIMIT = 2.0 ** 53


def _integral(offset: float, nbytes: float, block_size: float,
              size: float) -> bool:
    """Whether a range read's byte terms are all exact integers."""
    return (
        offset % 1 == 0 and nbytes % 1 == 0 and block_size % 1 == 0
        and size % 1 == 0 and size + block_size <= _EXACT_LIMIT
    )


class BlockMap:
    """Logical-to-physical block placement for one dataset.

    Blocks are striped round-robin over the server list, the DPSS's
    load-balancing policy for sequential reads: every server
    contributes equally to any large contiguous range.

    With ``replicas > 1`` each block additionally lives on the next
    ``replicas - 1`` servers in stripe order, so losing any single
    server leaves every block reachable -- the redundancy the paper's
    DPSS lacked ("the DPSS stripes without replication") and fault
    drills lean on.

    With ``stripe`` set (a :class:`~repro.dpss.stripe.StripeMap`),
    placement delegates to the RAID-5 parity layout instead: blocks
    are interleaved around the rotating parity positions, redundancy
    comes from parity rather than copies (``replicas`` must stay 1),
    and readers recover a lost server by XOR reconstruction.
    """

    def __init__(
        self,
        dataset: DpssDataset,
        server_names: List[str],
        *,
        replicas: int = 1,
        stripe: Optional["StripeMap"] = None,
    ):
        if not server_names:
            raise ValueError("dataset must be striped over >= 1 server")
        if len(set(server_names)) != len(server_names):
            raise ValueError("duplicate server names in stripe set")
        if not 1 <= replicas <= len(server_names):
            raise ValueError(
                f"replicas must be in [1, {len(server_names)}], got {replicas}"
            )
        if stripe is not None:
            if replicas != 1:
                raise ValueError(
                    "parity striping replaces replication; replicas must "
                    f"be 1 when a StripeMap is set, got {replicas}"
                )
            if stripe.dataset != dataset:
                raise ValueError(
                    f"StripeMap is for dataset {stripe.dataset.name!r}, "
                    f"not {dataset.name!r}"
                )
            if stripe.server_names != list(server_names):
                raise ValueError(
                    "StripeMap server set does not match the BlockMap's: "
                    f"{stripe.server_names} != {list(server_names)}"
                )
        self.dataset = dataset
        self.server_names = list(server_names)
        self.replicas = int(replicas)
        self.stripe = stripe

    def server_of_block(self, block: int) -> str:
        """The primary server holding a logical block."""
        if not 0 <= block < self.dataset.n_blocks:
            raise IndexError(
                f"block {block} outside [0, {self.dataset.n_blocks})"
            )
        return self._place(block)

    def _place(self, block: int) -> str:
        """:meth:`server_of_block` for a block known to be in range."""
        if self.stripe is not None:
            return self.stripe.server_of_block(block)
        return self.server_names[block % len(self.server_names)]

    def replica_servers(self, block: int) -> List[str]:
        """All servers holding a logical block, primary first."""
        primary = self.server_of_block(block)
        if self.stripe is not None:
            # Parity, not copies: the only literal holder is the owner.
            return [primary]
        n = len(self.server_names)
        return [
            self.server_names[(block + j) % n] for j in range(self.replicas)
        ]

    def blocks_for_range(self, offset: float, nbytes: float) -> range:
        """Logical blocks overlapping ``[offset, offset + nbytes)``."""
        if offset < 0 or nbytes <= 0:
            raise ValueError(
                f"bad range offset={offset} nbytes={nbytes}"
            )
        if offset + nbytes > self.dataset.size + 1e-6:
            raise ValueError(
                f"range [{offset}, {offset + nbytes}) exceeds dataset "
                f"size {self.dataset.size}"
            )
        first = int(offset // self.dataset.block_size)
        last = int(
            -(-(offset + nbytes) // self.dataset.block_size)
        )
        return range(first, last)

    def shares(
        self, offset: float, nbytes: float,
        place: Optional[Callable[[int], str]] = None,
    ) -> Tuple[Dict[str, Tuple[int, float]], Dict[str, Sequence[int]]]:
        """Group the blocks of a range by the server that serves them.

        Returns ``(plan, blocks_of)``: ``plan`` as :meth:`plan_read`
        gives it and ``blocks_of`` the logical blocks each server
        serves, in ascending order; callers must not mutate them.
        ``place(block)`` picks the server: the static primary
        (:meth:`server_of_block`) by default, the master's live
        placement when it plans around dead servers.
        """
        blocks = self.blocks_for_range(offset, nbytes)
        if place is None:
            # One range check instead of one per block: the size check
            # above has 1e-6 of slack, which can reach one block past
            # the end of a dataset that is a whole number of blocks.
            n_blocks = self.dataset.n_blocks
            if blocks.stop > n_blocks:
                raise IndexError(
                    f"block {max(blocks.start, n_blocks)} outside "
                    f"[0, {n_blocks})"
                )
            if self.stripe is None and _integral(
                offset, nbytes, self.dataset.block_size, self.dataset.size
            ):
                return self._round_robin_shares(blocks, offset, nbytes)
            place = self._place
        bs = self.dataset.block_size
        plan: Dict[str, Tuple[int, float]] = {}
        blocks_of: Dict[str, List[int]] = {}
        for block in blocks:
            lo = max(block * bs, offset)
            hi = min((block + 1) * bs, offset + nbytes, self.dataset.size)
            server = place(block)
            n, b = plan.get(server, (0, 0.0))
            plan[server] = (n + 1, b + max(hi - lo, 0.0))
            blocks_of.setdefault(server, []).append(block)
        return plan, blocks_of

    def _round_robin_shares(
        self, blocks: range, offset: float, nbytes: float
    ) -> Tuple[Dict[str, Tuple[int, float]], Dict[str, range]]:
        """:meth:`shares` for the static round-robin placement, one step
        per server instead of one per block.

        Server ``i`` of the walk serves ``range(first + i, stop, n)``:
        whole blocks less what the range leaves unread of its first and
        last block. Keys come in the loop's first-appearance order. Only
        for integral inputs: every per-block term is then an integer
        below 2**53, so this sum has the loop's bits in any order.
        """
        bs = self.dataset.block_size
        names = self.server_names
        n = len(names)
        first, stop = blocks.start, blocks.stop
        head = offset - first * bs
        tail = stop * bs - min(offset + nbytes, self.dataset.size)
        plan: Dict[str, Tuple[int, float]] = {}
        blocks_of: Dict[str, range] = {}
        for i in range(min(n, stop - first)):
            ids = range(first + i, stop, n)
            served = len(ids) * bs
            if i == 0:
                served -= head
            if ids[-1] == stop - 1:
                served -= tail
            server = names[(first + i) % n]
            plan[server] = (len(ids), float(served))
            blocks_of[server] = ids
        return plan, blocks_of

    def plan_read(
        self, offset: float, nbytes: float
    ) -> Dict[str, Tuple[int, float]]:
        """Per-server work for a range read.

        Returns ``{server: (n_blocks, n_bytes)}`` where bytes account
        for partial first/last blocks. This is the master's answer to
        a logical block request (Figure 7's "logical to physical block
        lookup").
        """
        return self.shares(offset, nbytes)[0]
