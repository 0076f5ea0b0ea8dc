"""Tests for dataset striping and block maps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dpss import BlockMap, DpssDataset, DpssMaster, DpssServer
from repro.netsim import Host
from repro.util.units import KIB, MB, mbps


def check_shares(bm, offset, nbytes):
    """``shares`` is the one planner: ``plan_read`` is its first half
    and the master's live plan is ``shares`` under its own placement."""
    plan, blocks_of = bm.shares(offset, nbytes)
    assert plan == bm.plan_read(offset, nbytes)
    assert {s: len(ids) for s, ids in blocks_of.items()} == {
        s: n for s, (n, _) in plan.items()
    }
    assert sorted(b for ids in blocks_of.values() for b in ids) == list(
        bm.blocks_for_range(offset, nbytes)
    )
    # The loop places blocks unchecked; the checked public lookup agrees.
    assert all(
        bm.server_of_block(b) == s for s, ids in blocks_of.items() for b in ids
    )
    # An explicit ``place`` always walks block by block; the default
    # plan (closed form for integral inputs) has the same items, bits
    # and key order.
    loop, loop_blocks = bm.shares(offset, nbytes, place=bm.server_of_block)
    assert repr(list(plan.items())) == repr(list(loop.items()))
    assert [(s, list(ids)) for s, ids in blocks_of.items()] == [
        (s, list(ids)) for s, ids in loop_blocks.items()
    ]
    # A master with the first server down plans around it.
    names = bm.server_names
    master = DpssMaster(Host("master", nic_rate=mbps(100)))
    for name in names:
        master.add_server(DpssServer(
            Host(name, nic_rate=mbps(100)), n_disks=1, disk_rate=MB
        ))
    master.servers[names[0]].online = False
    mirrored = BlockMap(bm.dataset, names, replicas=min(2, len(names)))
    live, live_blocks = master.plan_read(mirrored, offset, nbytes)
    assert (live, live_blocks) == mirrored.shares(
        offset, nbytes, place=lambda b: master.place_block(mirrored, b)
    )
    assert sum(b for _, b in live.values()) == pytest.approx(nbytes)
    if len(names) > 1:
        assert names[0] not in live


class TestDataset:
    def test_block_count_rounds_up(self):
        ds = DpssDataset("d", size=100 * KIB, block_size=64 * KIB)
        assert ds.n_blocks == 2

    def test_exact_multiple(self):
        ds = DpssDataset("d", size=128 * KIB, block_size=64 * KIB)
        assert ds.n_blocks == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            DpssDataset("d", size=0)
        with pytest.raises(ValueError):
            DpssDataset("d", size=1, block_size=0)


class TestBlockMap:
    def test_round_robin_striping(self):
        ds = DpssDataset("d", size=8 * 64 * KIB, block_size=64 * KIB)
        bm = BlockMap(ds, ["s0", "s1", "s2"])
        assert [bm.server_of_block(i) for i in range(6)] == [
            "s0", "s1", "s2", "s0", "s1", "s2",
        ]

    def test_block_out_of_range(self):
        ds = DpssDataset("d", size=64 * KIB)
        bm = BlockMap(ds, ["s0"])
        with pytest.raises(IndexError):
            bm.server_of_block(1)

    def test_shares_checks_the_range_once(self):
        """The size check's 1e-6 of slack reaches one block past a
        whole-block dataset; ``shares`` refuses it like the per-block
        lookup it no longer calls."""
        ds = DpssDataset("d", size=2 * 64 * KIB, block_size=64 * KIB)
        bm = BlockMap(ds, ["s0", "s1"])
        with pytest.raises(IndexError, match=r"block 2 outside \[0, 2\)"):
            bm.shares(64 * KIB, 64 * KIB + 5e-7)

    def test_blocks_for_range(self):
        ds = DpssDataset("d", size=10 * 64 * KIB, block_size=64 * KIB)
        bm = BlockMap(ds, ["s0", "s1"])
        # Bytes [64K, 192K) span blocks 1 and 2.
        assert list(bm.blocks_for_range(64 * KIB, 128 * KIB)) == [1, 2]
        # A sub-block read touches one block.
        assert list(bm.blocks_for_range(10.0, 100.0)) == [0]

    def test_range_validation(self):
        ds = DpssDataset("d", size=64 * KIB)
        bm = BlockMap(ds, ["s0"])
        with pytest.raises(ValueError):
            bm.blocks_for_range(-1, 10)
        with pytest.raises(ValueError):
            bm.blocks_for_range(0, 0)
        with pytest.raises(ValueError):
            bm.blocks_for_range(0, 2 * 64 * KIB)

    def test_plan_read_balances_bytes(self):
        ds = DpssDataset("d", size=8 * MB, block_size=64 * KIB)
        bm = BlockMap(ds, [f"s{i}" for i in range(4)])
        check_shares(bm, 0, 8 * MB)
        plan = bm.plan_read(0, 8 * MB)
        per_server = [b for _, b in plan.values()]
        assert sum(per_server) == pytest.approx(8 * MB)
        assert max(per_server) - min(per_server) <= 64 * KIB

    def test_plan_read_partial_blocks(self):
        ds = DpssDataset("d", size=4 * 64 * KIB, block_size=64 * KIB)
        bm = BlockMap(ds, ["s0", "s1"])
        check_shares(bm, 32 * KIB, 64 * KIB)
        plan = bm.plan_read(32 * KIB, 64 * KIB)
        total = sum(b for _, b in plan.values())
        assert total == pytest.approx(64 * KIB)

    def test_stripe_validation(self):
        ds = DpssDataset("d", size=64 * KIB)
        with pytest.raises(ValueError):
            BlockMap(ds, [])
        with pytest.raises(ValueError):
            BlockMap(ds, ["s0", "s0"])

    @settings(max_examples=200, deadline=None)
    @given(
        block_size=st.sampled_from([7, 1000, 64 * KIB]),
        n_servers=st.integers(min_value=1, max_value=9),
        data=st.data(),
    )
    def test_integral_plans_match_the_block_walk(
        self, block_size, n_servers, data
    ):
        """Integral reads take the closed form; it matches the per-block
        walk everywhere, up to and just past the dataset's end."""
        full = data.draw(st.integers(min_value=0, max_value=40))
        tail = data.draw(
            st.integers(min_value=0 if full else 1, max_value=block_size - 1)
        )
        size = full * block_size + tail
        ds = DpssDataset("d", size=size, block_size=block_size)
        bm = BlockMap(ds, [f"s{i}" for i in range(n_servers)])
        offset = data.draw(st.integers(min_value=0, max_value=size - 1))
        to_end = data.draw(st.booleans())
        nbytes = size - offset if to_end else data.draw(
            st.integers(min_value=1, max_value=size - offset)
        )
        check_shares(bm, offset, nbytes)
        # The size check's 1e-6 of slack: past a whole-block dataset's
        # last block both paths refuse; otherwise both plan it alike.
        over = size - offset + 5e-7
        if tail == 0:
            with pytest.raises(IndexError):
                bm.shares(offset, over)
            with pytest.raises(IndexError):
                bm.shares(offset, over, place=bm.server_of_block)
        else:
            assert bm.shares(offset, over) == bm.shares(
                offset, over, place=bm.server_of_block
            )

    @settings(max_examples=80, deadline=None)
    @given(
        n_servers=st.integers(min_value=1, max_value=8),
        n_blocks=st.integers(min_value=1, max_value=256),
        frac_lo=st.floats(min_value=0.0, max_value=0.9),
        frac_len=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_plan_conserves_bytes(self, n_servers, n_blocks, frac_lo, frac_len):
        """Any read plan's per-server bytes sum to the request size."""
        bs = 64 * KIB
        ds = DpssDataset("d", size=n_blocks * bs, block_size=bs)
        bm = BlockMap(ds, [f"s{i}" for i in range(n_servers)])
        offset = frac_lo * ds.size
        nbytes = min(frac_len * ds.size, ds.size - offset)
        if nbytes <= 0:
            return
        check_shares(bm, offset, nbytes)
        plan = bm.plan_read(offset, nbytes)
        assert sum(b for _, b in plan.values()) == pytest.approx(nbytes)
        # Block counts are consistent with the range.
        assert sum(n for n, _ in plan.values()) == len(
            bm.blocks_for_range(offset, nbytes)
        )
