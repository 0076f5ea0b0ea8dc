"""StripePayload wire format: round trips and hostile-header hardening."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dpss.blocks import DpssDataset
from repro.dpss.stripe import StripeMap
from repro.protocol import (
    STRIPE_FLAG_PARITY,
    MsgType,
    StripePayload,
    decode_message,
    encode_message,
)
from repro.protocol.framing import MAX_BODY
from repro.protocol.messages import _STRIPE_HEAD
from repro.util.units import KIB


def make_map(size=640 * KIB, block_size=64 * KIB, n_data=4):
    dataset = DpssDataset("wiretest", size=size, block_size=block_size)
    names = [f"s{i}" for i in range(n_data + 1)]
    return StripeMap(dataset, server_names=names, n_data=n_data)


def make_block(smap, block_id, *, parity=False):
    if parity:
        stripe = block_id - smap.dataset.n_blocks
        length = int(smap.parity_bytes(stripe))
    else:
        stripe = smap.stripe_of_block(block_id)
        length = int(smap.block_bytes(block_id))
    return StripePayload(
        block_id=block_id,
        stripe_index=stripe,
        n_data=smap.n_data,
        n_parity=smap.n_parity,
        payload=bytes(range(256)) * (length // 256) + bytes(length % 256),
        is_parity=parity,
    )


def hostile_body(*, block_id=0, stripe=0, n_data=4, n_parity=1,
                 flags=0, length=None, tail=None):
    if tail is None:
        tail = bytes(length if length is not None else 8)
    if length is None:
        length = len(tail)
    head = _STRIPE_HEAD.pack(
        block_id, stripe, n_data, n_parity, flags, length
    )
    return head + tail


class TestRoundTrip:
    def test_data_block_round_trips(self):
        smap = make_map()
        for block_id in range(smap.dataset.n_blocks):
            block = make_block(smap, block_id)
            out = StripePayload.decode(block.encode(), stripe_map=smap)
            assert out == block
            assert not out.is_parity

    def test_parity_block_round_trips(self):
        smap = make_map()
        for stripe in range(smap.n_stripes):
            pid = smap.parity_block_id(stripe)
            block = make_block(smap, pid, parity=True)
            out = StripePayload.decode(block.encode(), stripe_map=smap)
            assert out == block
            assert out.is_parity

    def test_framing_dispatch_round_trip(self):
        smap = make_map()
        block = make_block(smap, 2)
        msg_type, body = encode_message(block)
        assert msg_type == MsgType.STRIPE
        assert decode_message(msg_type, body) == block


class TestConstructionValidation:
    def test_data_block_in_wrong_stripe_rejected(self):
        with pytest.raises(ValueError, match="belongs to stripe"):
            StripePayload(block_id=9, stripe_index=0, n_data=4,
                          n_parity=1, payload=b"x")

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            StripePayload(block_id=0, stripe_index=0, n_data=4,
                          n_parity=1, payload=b"")

    def test_multi_parity_rejected(self):
        with pytest.raises(ValueError, match="exactly 1 parity"):
            StripePayload(block_id=0, stripe_index=0, n_data=4,
                          n_parity=2, payload=b"x")

    def test_out_of_range_ids_rejected(self):
        for field, value in [("block_id", -1), ("block_id", 2**32),
                             ("stripe_index", -3)]:
            kwargs = dict(block_id=0, stripe_index=0, n_data=4,
                          n_parity=1, payload=b"x")
            kwargs[field] = value
            with pytest.raises(ValueError, match="uint32"):
                StripePayload(**kwargs)


class TestHostileHeaders:
    def test_unknown_flag_bits_rejected(self):
        with pytest.raises(ValueError, match="unknown stripe flags"):
            StripePayload.decode(hostile_body(flags=0x40))

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(ValueError, match="n_data"):
            StripePayload.decode(hostile_body(n_data=1))
        with pytest.raises(ValueError, match="parity"):
            StripePayload.decode(hostile_body(n_parity=0))

    def test_wrong_stripe_index_rejected(self):
        """A data block routed into the wrong stripe must be refused
        before its bytes can be XOR-folded into a reconstruction."""
        with pytest.raises(ValueError, match="belongs to stripe"):
            StripePayload.decode(hostile_body(block_id=9, stripe=0))

    def test_length_overflowing_frame_limit_rejected(self):
        """A ~4 GiB length promise must be rejected on Python-int
        arithmetic, never allocated or sliced."""
        body = hostile_body(length=0xFFFFFFFF, tail=b"")
        with pytest.raises(ValueError, match="frame limit"):
            StripePayload.decode(body)

    def test_length_just_over_max_body_rejected(self):
        body = hostile_body(length=MAX_BODY, tail=b"")
        with pytest.raises(ValueError, match="frame limit"):
            StripePayload.decode(body)

    def test_truncated_payload_rejected(self):
        body = hostile_body(length=64)
        with pytest.raises(ValueError, match="truncated"):
            StripePayload.decode(body[:-1])

    def test_zero_length_payload_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            StripePayload.decode(hostile_body(length=0, tail=b""))

    def test_truncated_header_raises_value_error(self):
        with pytest.raises(ValueError, match="stripe payload body"):
            StripePayload.decode(b"\x00" * (_STRIPE_HEAD.size - 1))

    def test_map_rejects_geometry_mismatch(self):
        smap = make_map(n_data=4)
        body = hostile_body(n_data=5, block_id=5, stripe=1)
        with pytest.raises(ValueError, match="does not match"):
            StripePayload.decode(body, stripe_map=smap)

    def test_map_rejects_out_of_range_stripe(self):
        smap = make_map()  # 10 blocks over 4+1 -> 3 stripes
        body = hostile_body(block_id=4 * 200, stripe=200)
        with pytest.raises(ValueError, match="out of range"):
            StripePayload.decode(body, stripe_map=smap)

    def test_map_rejects_spoofed_parity_id(self):
        """Parity claiming another stripe's slot must be refused:
        reconstruction trusts the id to pick the XOR group."""
        smap = make_map()
        wrong = smap.parity_block_id(1)
        body = hostile_body(block_id=wrong, stripe=0,
                            flags=STRIPE_FLAG_PARITY,
                            length=int(smap.parity_bytes(0)))
        with pytest.raises(ValueError, match="parity id"):
            StripePayload.decode(body, stripe_map=smap)

    def test_map_rejects_truncated_parity_length(self):
        smap = make_map()
        pid = smap.parity_block_id(0)
        body = hostile_body(block_id=pid, stripe=0,
                            flags=STRIPE_FLAG_PARITY, length=7)
        with pytest.raises(ValueError, match="the map says"):
            StripePayload.decode(body, stripe_map=smap)

    def test_map_rejects_data_block_past_dataset(self):
        smap = make_map()
        n = smap.dataset.n_blocks  # 10; stripe 2 is partial
        body = hostile_body(block_id=n, stripe=n // 4,
                            length=int(smap.dataset.block_size))
        with pytest.raises(ValueError, match="out of dataset range"):
            StripePayload.decode(body, stripe_map=smap)


@settings(max_examples=150, deadline=None)
@given(body=st.binary(min_size=0, max_size=256))
def test_random_stripe_bodies_never_crash(body):
    try:
        StripePayload.decode(body)
    except ValueError:
        pass


@settings(max_examples=150, deadline=None)
@given(
    block_id=st.integers(min_value=0, max_value=0xFFFFFFFF),
    stripe=st.integers(min_value=0, max_value=0xFFFFFFFF),
    n_data=st.integers(min_value=0, max_value=0xFFFF),
    n_parity=st.integers(min_value=0, max_value=0xFFFF),
    flags=st.integers(min_value=0, max_value=0xFF),
    length=st.integers(min_value=0, max_value=0xFFFFFFFF),
    tail=st.binary(min_size=0, max_size=128),
)
def test_fuzzed_headers_never_crash_with_map(
    block_id, stripe, n_data, n_parity, flags, length, tail
):
    smap = make_map()
    head = _STRIPE_HEAD.pack(
        block_id, stripe, n_data, n_parity, flags, length
    )
    try:
        StripePayload.decode(head + tail, stripe_map=smap)
    except ValueError:
        pass
