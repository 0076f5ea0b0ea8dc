"""TilePayload wire format: round trips and hostile-header hardening."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol import (
    TILE_FLAG_REF,
    TILE_WIRE_OVERHEAD,
    MsgType,
    TilePayload,
    decode_message,
    encode_message,
)
from repro.protocol.framing import MAX_BODY
from repro.protocol.messages import _TILE_HEAD
from repro.volren.tiles import TILE_HASH_BYTES, TileGrid

#: a non-zero digest, so a round trip that drops or zeroes it shows
CONTENT_HASH = bytes(range(1, TILE_HASH_BYTES + 1))


def assert_tiles_equal(a: TilePayload, b: TilePayload):
    for name in ("rank", "frame", "tile_id", "x0", "y0", "height",
                 "width", "content_hash", "is_reference"):
        assert getattr(a, name) == getattr(b, name), name
    if a.texture is None:
        assert b.texture is None
    else:
        assert np.array_equal(a.texture, b.texture)


def make_tile(grid: TileGrid, tid: int, *, reference: bool = False):
    x0, y0, x1, y1 = grid.tile_rect(tid)
    h, w = y1 - y0, x1 - x0
    rng = np.random.default_rng(tid)
    texture = rng.integers(0, 256, size=(h, w, 4), dtype=np.uint8)
    return TilePayload(
        rank=tid % 2,
        frame=3,
        tile_id=tid,
        x0=x0,
        y0=y0,
        height=h,
        width=w,
        content_hash=CONTENT_HASH,
        texture=None if reference else texture,
    )


class TestRoundTrip:
    def test_full_tile_round_trips(self):
        grid = TileGrid(width=40, height=24, tile_size=16)
        for tid in grid.all_tiles():
            tile = make_tile(grid, tid)
            out = TilePayload.decode(tile.encode(), grid=grid)
            assert_tiles_equal(out, tile)
            assert not out.is_reference

    def test_reference_round_trips_with_only_overhead_bytes(self):
        grid = TileGrid(width=32, height=32, tile_size=16)
        ref = make_tile(grid, 1, reference=True)
        body = ref.encode()
        assert len(body) == TILE_WIRE_OVERHEAD
        out = TilePayload.decode(body, grid=grid)
        assert out.is_reference and out.texture is None
        assert out.content_hash == ref.content_hash

    def test_framing_dispatch_round_trip(self):
        grid = TileGrid(width=32, height=32, tile_size=16)
        tile = make_tile(grid, 2)
        msg_type, body = encode_message(tile)
        assert msg_type == MsgType.TILE
        assert_tiles_equal(decode_message(msg_type, body), tile)

    def test_full_tile_wire_size_is_overhead_plus_pixels(self):
        grid = TileGrid(width=32, height=32, tile_size=16)
        tile = make_tile(grid, 0)
        assert len(tile.encode()) == TILE_WIRE_OVERHEAD + 16 * 16 * 4


class TestConstructionValidation:
    def test_wrong_hash_length_rejected(self):
        with pytest.raises(ValueError):
            TilePayload(rank=0, frame=0, tile_id=0, x0=0, y0=0,
                        height=4, width=4, content_hash=b"short")

    def test_negative_and_oversized_fields_rejected(self):
        for field, value in [("rank", -1), ("frame", 2**32),
                             ("tile_id", -5), ("x0", 2**33)]:
            kwargs = dict(rank=0, frame=0, tile_id=0, x0=0, y0=0,
                          height=4, width=4,
                          content_hash=bytes(TILE_HASH_BYTES))
            kwargs[field] = value
            with pytest.raises(ValueError):
                TilePayload(**kwargs)

    def test_zero_extent_rejected(self):
        with pytest.raises(ValueError):
            TilePayload(rank=0, frame=0, tile_id=0, x0=0, y0=0,
                        height=0, width=4,
                        content_hash=bytes(TILE_HASH_BYTES))

    def test_texture_shape_and_dtype_must_match_header(self):
        good = np.zeros((4, 4, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            TilePayload(rank=0, frame=0, tile_id=0, x0=0, y0=0,
                        height=4, width=8,
                        content_hash=bytes(TILE_HASH_BYTES), texture=good)
        with pytest.raises(ValueError):
            TilePayload(rank=0, frame=0, tile_id=0, x0=0, y0=0,
                        height=4, width=4,
                        content_hash=bytes(TILE_HASH_BYTES),
                        texture=good.astype(np.float32))


def hostile_body(*, rank=0, frame=0, tile_id=0, x0=0, y0=0, h=4, w=4,
                 flags=0, tail=None):
    head = _TILE_HEAD.pack(rank, frame, tile_id, x0, y0, h, w, flags)
    if tail is None:
        tail = bytes(TILE_HASH_BYTES) + bytes(h * w * 4)
    return head + tail


class TestHostileHeaders:
    def test_unknown_flag_bits_rejected(self):
        with pytest.raises(ValueError, match="unknown tile flags"):
            TilePayload.decode(hostile_body(flags=0x82))

    def test_zero_extent_header_rejected(self):
        with pytest.raises(ValueError, match="extent must be positive"):
            TilePayload.decode(hostile_body(h=0, w=0, tail=b""))

    def test_pixel_count_overflow_rejected_before_allocation(self):
        """h = w = 0xFFFFFFFF promises ~7e19 bytes; the decoder must
        reject on Python-int arithmetic, never try to allocate."""
        body = hostile_body(h=0xFFFFFFFF, w=0xFFFFFFFF,
                            tail=bytes(TILE_HASH_BYTES))
        with pytest.raises(ValueError, match="frame limit"):
            TilePayload.decode(body)

    def test_header_promising_more_than_max_body_rejected(self):
        side = int((MAX_BODY // 4) ** 0.5) + 2
        body = hostile_body(h=side, w=side, tail=bytes(TILE_HASH_BYTES))
        with pytest.raises(ValueError, match="frame limit"):
            TilePayload.decode(body)

    def test_truncated_pixels_rejected(self):
        full = hostile_body(h=4, w=4)
        with pytest.raises(ValueError, match="truncated"):
            TilePayload.decode(full[:-1])

    def test_truncated_reference_rejected(self):
        ref = hostile_body(flags=TILE_FLAG_REF,
                           tail=bytes(TILE_HASH_BYTES))
        with pytest.raises(ValueError, match="truncated"):
            TilePayload.decode(ref[:-1])

    def test_truncated_header_raises_value_error(self):
        with pytest.raises(ValueError, match="tile payload body"):
            TilePayload.decode(b"\x00" * (_TILE_HEAD.size - 1))

    def test_grid_rejects_out_of_range_tile_id(self):
        grid = TileGrid(width=32, height=32, tile_size=16)  # 4 tiles
        body = hostile_body(tile_id=4, h=16, w=16,
                            tail=bytes(TILE_HASH_BYTES + 16 * 16 * 4))
        with pytest.raises(ValueError, match="out of grid range"):
            TilePayload.decode(body, grid=grid)

    def test_grid_rejects_rect_spoofing(self):
        """A tile claiming another tile's rect must not be accepted:
        owner routing trusts the rect to paste pixels into the frame."""
        grid = TileGrid(width=32, height=32, tile_size=16)
        body = hostile_body(tile_id=0, x0=16, y0=0, h=16, w=16,
                            tail=bytes(TILE_HASH_BYTES + 16 * 16 * 4))
        with pytest.raises(ValueError, match="does not match grid"):
            TilePayload.decode(body, grid=grid)


@settings(max_examples=150, deadline=None)
@given(body=st.binary(min_size=0, max_size=256))
def test_random_tile_bodies_never_crash(body):
    try:
        TilePayload.decode(body)
    except ValueError:
        pass


@settings(max_examples=150, deadline=None)
@given(
    h=st.integers(min_value=0, max_value=0xFFFFFFFF),
    w=st.integers(min_value=0, max_value=0xFFFFFFFF),
    flags=st.integers(min_value=0, max_value=0xFF),
    tail=st.binary(min_size=0, max_size=128),
)
def test_fuzzed_headers_never_crash_with_grid(h, w, flags, tail):
    grid = TileGrid(width=64, height=64, tile_size=32)
    body = hostile_body(h=h, w=w, flags=flags, tail=tail)
    try:
        TilePayload.decode(body, grid=grid)
    except ValueError:
        pass
