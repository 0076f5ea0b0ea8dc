"""StripeMap / XorCodec / StripeStore: layout, parity, reconstruction.

The satellite correctness suite lives here too: a 200-seed randomized
parity sweep proving k-of-n reconstructed reads are byte-identical to
the direct reads they replace under the server erasures implied by
every FaultPlan in ``examples/plans/``, and that a second loss inside
one stripe degrades gracefully (zero-filled and reported, never
wrong bytes).
"""

import glob
import os

import numpy as np
import pytest

from repro.dpss.blocks import DpssDataset
from repro.dpss.stripe import StripeMap, StripeStore, XorCodec
from repro.faults import load_drill

PLAN_DIR = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "plans"
)
PLAN_FILES = sorted(glob.glob(os.path.join(PLAN_DIR, "*.json")))

SERVERS = [f"dpss{i}" for i in range(5)]


def make_map(*, size=40, block_size=4, n_data=4, width=None):
    dataset = DpssDataset("stripetest", size=size, block_size=block_size)
    names = SERVERS[: width if width is not None else n_data + 1]
    return StripeMap(dataset, server_names=names, n_data=n_data)


class TestStripeMapGeometry:
    def test_parity_position_rotates_left_symmetric(self):
        smap = make_map(size=100)
        positions = [smap.parity_pos(s) for s in range(5)]
        assert positions == [4, 3, 2, 1, 0]
        # ... and wraps
        assert smap.parity_pos(5) == 4

    def test_data_positions_skip_the_parity_slot(self):
        smap = make_map(size=40)
        # stripe 0 parks parity on the last server; data fill 0..3
        assert [smap.server_of_block(b) for b in range(4)] == SERVERS[:4]
        # stripe 1 parks parity on dpss3; block 7 skips over it
        assert smap.parity_server(1) == "dpss3"
        assert [smap.server_of_block(b) for b in range(4, 8)] == [
            "dpss0", "dpss1", "dpss2", "dpss4",
        ]

    def test_each_stripe_spreads_over_distinct_servers(self):
        smap = make_map(size=400, block_size=4)
        for stripe in range(smap.n_stripes):
            holders = {
                smap.server_of_block(b) for b in smap.data_blocks(stripe)
            }
            holders.add(smap.parity_server(stripe))
            assert len(holders) == smap.width

    def test_parity_ids_live_above_the_data_id_space(self):
        smap = make_map(size=40)
        assert smap.dataset.n_blocks == 10
        assert [smap.parity_block_id(s) for s in range(3)] == [10, 11, 12]

    def test_short_last_stripe(self):
        smap = make_map(size=38)  # 10 blocks, last one 2 bytes
        assert smap.n_stripes == 3
        assert list(smap.data_blocks(2)) == [8, 9]
        assert smap.block_bytes(9) == 2
        # parity covers the longest sibling, not the short tail
        assert smap.parity_bytes(2) == 4

    def test_out_of_range_rejected(self):
        smap = make_map(size=40)
        with pytest.raises(IndexError):
            smap.server_of_block(10)
        with pytest.raises(IndexError):
            smap.parity_pos(3)

    def test_width_must_match_server_count(self):
        dataset = DpssDataset("d", size=40, block_size=4)
        with pytest.raises(ValueError, match="needs exactly"):
            StripeMap(dataset, server_names=SERVERS[:4], n_data=4)
        with pytest.raises(ValueError, match="duplicate"):
            StripeMap(
                dataset,
                server_names=["a", "a", "b", "c", "d"],
                n_data=4,
            )


class TestXorCodec:
    def test_parity_recovers_any_single_block(self):
        rng = np.random.default_rng(0)
        blocks = [rng.bytes(16) for _ in range(4)]
        parity = XorCodec.parity(blocks)
        for i in range(4):
            siblings = [b for j, b in enumerate(blocks) if j != i]
            out = XorCodec.reconstruct(siblings, parity, length=16)
            assert out == blocks[i]

    def test_short_tail_block_round_trips_through_padding(self):
        blocks = [b"\xaa" * 8, b"\x55" * 8, b"\x0f" * 3]
        parity = XorCodec.parity(blocks)
        assert len(parity) == 8
        out = XorCodec.reconstruct([blocks[0], blocks[1]], parity,
                                   length=3)
        assert out == blocks[2]

    def test_length_beyond_parity_rejected(self):
        with pytest.raises(ValueError, match="cannot come out"):
            XorCodec.reconstruct([b"ab"], b"ab", length=3)

    def test_empty_block_set_rejected(self):
        with pytest.raises(ValueError):
            XorCodec.parity([])

    def test_xor_seconds_is_linear_in_input(self):
        codec = XorCodec()
        assert codec.xor_seconds(codec.rate) == pytest.approx(1.0)
        assert codec.xor_seconds(2 * codec.rate) == pytest.approx(2.0)
        assert codec.xor_seconds(0) == 0.0


class TestStripeStore:
    def test_direct_read_round_trips(self):
        smap = make_map(size=40)
        store = StripeStore(smap)
        content = bytes(range(40))
        store.write(content)
        data, reconstructed, missing = store.read(0, 40)
        assert (data, reconstructed, missing) == (content, 0, 0)

    def test_every_single_erasure_is_byte_identical(self):
        smap = make_map(size=38)
        store = StripeStore(smap)
        content = np.random.default_rng(1).bytes(38)
        store.write(content)
        for server in smap.server_names:
            data, reconstructed, missing = store.read(
                0, 38, erased=[server]
            )
            assert data == content, server
            assert missing == 0

    def test_double_fault_zero_fills_and_reports(self):
        smap = make_map(size=40)
        store = StripeStore(smap)
        content = bytes(range(1, 41))
        store.write(content)
        data, _, missing = store.read(0, 40, erased=["dpss0", "dpss1"])
        assert missing > 0
        assert len(data) == 40
        # lost blocks come back zero-filled, everything else intact
        for i, (got, want) in enumerate(zip(data, content)):
            assert got in (want, 0), i

    def test_wrong_content_size_rejected(self):
        store = StripeStore(make_map(size=40))
        with pytest.raises(ValueError, match="dataset holds"):
            store.write(b"short")

    def test_bad_range_rejected(self):
        store = StripeStore(make_map(size=40))
        store.write(bytes(40))
        for offset, nbytes in [(-1, 4), (0, 0), (38, 4)]:
            with pytest.raises(ValueError, match="bad range"):
                store.read(offset, nbytes)


# -- the randomized parity suite (satellite 3) -------------------------

def _erased_sets(plan):
    """Concurrent server-erasure sets implied by a fault plan.

    Each server-targeting event alone is one erasure; events whose
    windows overlap in time also form a combined set (the double-fault
    case the sc99_flaky drill deliberately includes).
    """
    windows = [
        (e.at, e.at + e.duration, e.server)
        for e in plan.events
        if getattr(e, "server", None) is not None
    ]
    sets = [frozenset([server]) for _, _, server in windows]
    for i, (a0, a1, a_server) in enumerate(windows):
        group = {a_server}
        for b0, b1, b_server in windows[i + 1:]:
            if a0 < b1 and b0 < a1:
                group.add(b_server)
        if len(group) > 1:
            sets.append(frozenset(group))
    return sorted(set(sets), key=sorted)


@pytest.mark.parametrize(
    "plan_path", PLAN_FILES, ids=[os.path.basename(p) for p in PLAN_FILES]
)
def test_reconstructed_reads_match_direct_reads_for_200_seeds(plan_path):
    assert PLAN_FILES, "no fault plans found under examples/plans/"
    drill = load_drill(plan_path)
    erased_sets = _erased_sets(drill.plan)
    assert erased_sets, f"{plan_path} names no servers"
    for seed in range(200):
        rng = np.random.default_rng(seed)
        block_size = int(rng.integers(2, 9))
        n_blocks = int(rng.integers(5, 25))
        size = block_size * n_blocks - int(rng.integers(0, block_size))
        smap = make_map(size=size, block_size=block_size)
        store = StripeStore(smap)
        content = rng.bytes(size)
        store.write(content)
        offset = int(rng.integers(0, size - 1))
        nbytes = int(rng.integers(1, size - offset + 1))
        direct, _, _ = store.read(offset, nbytes)
        assert direct == content[offset:offset + nbytes]
        for erased in erased_sets:
            data, _, missing = store.read(
                offset, nbytes, erased=erased
            )
            if len(erased) == 1:
                # k-of-n reconstruction must be byte-identical
                assert data == direct, (seed, sorted(erased))
                assert missing == 0
            else:
                # Double fault: a block is unrecoverable iff its
                # stripe lost a second holder (short tail stripes may
                # not involve both erased servers). The store must
                # degrade gracefully -- zero-filled and counted,
                # never wrong bytes.
                expect_missing = 0
                first = offset // block_size
                last = -(-(offset + nbytes) // block_size)
                for block in range(first, last):
                    if smap.server_of_block(block) not in erased:
                        continue
                    stripe = smap.stripe_of_block(block)
                    others = {smap.parity_server(stripe)}
                    others.update(
                        smap.server_of_block(sib)
                        for sib in smap.data_blocks(stripe)
                        if sib != block
                    )
                    if others & erased:
                        lo = max(block * block_size, offset)
                        hi = min(
                            (block + 1) * block_size, offset + nbytes
                        )
                        expect_missing += hi - lo
                assert missing == expect_missing, (seed, sorted(erased))
                assert len(data) == len(direct)
                for got, want in zip(data, direct):
                    assert got in (want, 0)
