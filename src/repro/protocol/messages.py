"""Typed wire payloads with binary encoding.

The light payload carries "texture size, bytes per pixel, and
geometric information used to place the texture in a 3D scene ... on
the order of 256 bytes" (Table 1); the heavy payload carries "raw
pixel data, as well as any geometric data" -- here the RGBA8 texture,
an optional float32 offset map (the quad-mesh extension) and optional
AMR grid line segments.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple, Union

import numpy as np

from repro.protocol.framing import MAX_BODY, MsgType
from repro.volren.tiles import TILE_HASH_BYTES, TileGrid

if TYPE_CHECKING:  # pragma: no cover - avoids importing the dpss stack
    from repro.dpss.stripe import StripeMap

_CONFIG = struct.Struct("!IIIIII")
_LIGHT = struct.Struct("!IIIIB?6d")
_HEAVY_HEAD = struct.Struct("!IIIIIII")
_AXIS = struct.Struct("!IB?")
_TILE_HEAD = struct.Struct("!IIIIIIIB")
_STRIPE_HEAD = struct.Struct("!IIHHBI")


def _unpack(
    head: struct.Struct, body: bytes, what: str, *, exact: bool = False
) -> tuple:
    """Unpack ``head`` from the front of ``body`` (all of it if ``exact``).

    A body of the wrong size raises ``ValueError`` naming the message and
    both sizes; ``struct.error`` is not a ``ValueError``, and hostile wire
    input must raise nothing else.
    """
    if len(body) < head.size or (exact and len(body) != head.size):
        raise ValueError(
            f"{what} body must be {'' if exact else 'at least '}"
            f"{head.size} bytes, got {len(body)}"
        )
    return head.unpack_from(body)


@dataclass(frozen=True)
class ConfigMessage:
    """The initial config exchange (Figure 18: "Exchange Config Data")."""

    n_pes: int
    n_timesteps: int
    shape: Tuple[int, int, int]

    def encode(self) -> bytes:
        return _CONFIG.pack(
            self.n_pes, self.n_timesteps, *self.shape, 0
        )

    @classmethod
    def decode(cls, body: bytes) -> "ConfigMessage":
        n_pes, n_steps, sx, sy, sz, _pad = _unpack(
            _CONFIG, body, "config", exact=True
        )
        return cls(n_pes=n_pes, n_timesteps=n_steps, shape=(sx, sy, sz))


@dataclass(frozen=True)
class LightPayload:
    """Visualization metadata for one slab texture."""

    rank: int
    frame: int
    tex_height: int
    tex_width: int
    axis: int
    flip: bool
    slab_lo: Tuple[float, float, float]
    slab_hi: Tuple[float, float, float]

    def encode(self) -> bytes:
        return _LIGHT.pack(
            self.rank,
            self.frame,
            self.tex_height,
            self.tex_width,
            self.axis,
            self.flip,
            *self.slab_lo,
            *self.slab_hi,
        )

    @classmethod
    def decode(cls, body: bytes) -> "LightPayload":
        vals = _unpack(_LIGHT, body, "light payload", exact=True)
        return cls(
            rank=vals[0],
            frame=vals[1],
            tex_height=vals[2],
            tex_width=vals[3],
            axis=vals[4],
            flip=vals[5],
            slab_lo=(vals[6], vals[7], vals[8]),
            slab_hi=(vals[9], vals[10], vals[11]),
        )


@dataclass(frozen=True)
class HeavyPayload:
    """The texture itself, plus optional depth map and grid geometry."""

    rank: int
    frame: int
    #: RGBA8 texture (H, W, 4) uint8
    texture: np.ndarray
    #: optional float32 (H, W) offset map for the quad-mesh extension
    depth: Optional[np.ndarray] = None
    #: optional float32 (N, 2, 3) AMR grid line segments
    grid: Optional[np.ndarray] = None

    def __post_init__(self):
        tex = self.texture
        if tex.dtype != np.uint8 or tex.ndim != 3 or tex.shape[2] != 4:
            raise ValueError(
                f"texture must be uint8 (H, W, 4), got {tex.dtype} "
                f"{tex.shape}"
            )
        if self.depth is not None and self.depth.shape != tex.shape[:2]:
            raise ValueError("depth map must match texture dimensions")
        if self.grid is not None and (
            self.grid.ndim != 3 or self.grid.shape[1:] != (2, 3)
        ):
            raise ValueError("grid must be (N, 2, 3)")

    def encode(self) -> bytes:
        h, w = self.texture.shape[:2]
        depth = (
            np.ascontiguousarray(self.depth, dtype=np.float32)
            if self.depth is not None
            else None
        )
        grid = (
            np.ascontiguousarray(self.grid, dtype=np.float32)
            if self.grid is not None
            else None
        )
        head = _HEAVY_HEAD.pack(
            self.rank,
            self.frame,
            h,
            w,
            1 if depth is not None else 0,
            grid.shape[0] if grid is not None else 0,
            0,
        )
        parts = [head, np.ascontiguousarray(self.texture).tobytes()]
        # Floats cross the wire big-endian, like the struct fields.
        if depth is not None:
            parts.append(depth.astype(">f4").tobytes())
        if grid is not None:
            parts.append(grid.astype(">f4").tobytes())
        return b"".join(parts)

    @classmethod
    def decode(cls, body: bytes) -> "HeavyPayload":
        head_size = _HEAVY_HEAD.size
        rank, frame, h, w, has_depth, n_grid, _ = _unpack(
            _HEAVY_HEAD, body, "heavy payload"
        )
        offset = head_size
        tex_bytes = h * w * 4
        # Validate in Python-int arithmetic before handing sizes to
        # numpy: a hostile header can request more bytes than ssize_t
        # holds, which frombuffer reports as OverflowError, not
        # ValueError.
        need = (
            head_size + tex_bytes
            + (tex_bytes if has_depth else 0)
            + n_grid * 24
        )
        if need > MAX_BODY:
            raise ValueError(
                f"heavy payload header promises {need} bytes, over the "
                f"{MAX_BODY}-byte frame limit"
            )
        if len(body) < need:
            raise ValueError(
                f"heavy payload truncated: header promises {need} "
                f"bytes, got {len(body)}"
            )
        texture = np.frombuffer(
            body, dtype=np.uint8, count=tex_bytes, offset=offset
        ).reshape(h, w, 4).copy()
        offset += tex_bytes
        depth = None
        if has_depth:
            n = h * w
            depth = np.frombuffer(
                body, dtype=">f4", count=n, offset=offset
            ).astype(np.float32).reshape(h, w)
            offset += n * 4
        grid = None
        if n_grid:
            n = n_grid * 6
            grid = np.frombuffer(
                body, dtype=">f4", count=n, offset=offset
            ).astype(np.float32).reshape(n_grid, 2, 3)
        return cls(rank=rank, frame=frame, texture=texture, depth=depth,
                   grid=grid)


#: flag bit: the payload is a delta *reference* -- no pixels follow the
#: content hash because the viewer already holds this tile version.
TILE_FLAG_REF = 0x01

_TILE_FLAGS_KNOWN = TILE_FLAG_REF

#: bytes of per-tile wire overhead (header plus content hash)
TILE_WIRE_OVERHEAD = _TILE_HEAD.size + TILE_HASH_BYTES


@dataclass(frozen=True)
class TilePayload:
    """One owner-composited screen tile, full or delta-referenced.

    The tile refactor replaces whole per-slab heavy payloads with
    per-tile messages: ``texture`` carries the RGBA8 pixels of a
    *changed* tile, while an unchanged tile travels as a *reference*
    (``texture is None``) -- just the header and ``content_hash`` the
    viewer uses to re-display the version it already holds.
    """

    rank: int
    frame: int
    tile_id: int
    #: top-left pixel of the tile in the viewport
    x0: int
    y0: int
    #: tile extent in pixels
    height: int
    width: int
    #: a ``TILE_HASH_BYTES`` content digest
    content_hash: bytes
    #: RGBA8 (height, width, 4) pixels, or None for a reference
    texture: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("rank", "frame", "tile_id", "x0", "y0"):
            val = getattr(self, name)
            if not 0 <= val <= 0xFFFFFFFF:
                raise ValueError(f"{name} must fit in uint32, got {val}")
        for name in ("height", "width"):
            val = getattr(self, name)
            if not 1 <= val <= 0xFFFFFFFF:
                raise ValueError(
                    f"{name} must be a positive uint32, got {val}"
                )
        if len(self.content_hash) != TILE_HASH_BYTES:
            raise ValueError(
                f"content_hash must be {TILE_HASH_BYTES} bytes, got "
                f"{len(self.content_hash)}"
            )
        tex = self.texture
        if tex is not None and (
            tex.dtype != np.uint8
            or tex.shape != (self.height, self.width, 4)
        ):
            raise ValueError(
                f"texture must be uint8 ({self.height}, {self.width}, 4), "
                f"got {tex.dtype} {tex.shape}"
            )

    @property
    def is_reference(self) -> bool:
        """True when this payload carries no pixels (delta reference)."""
        return self.texture is None

    def encode(self) -> bytes:
        flags = TILE_FLAG_REF if self.texture is None else 0
        head = _TILE_HEAD.pack(
            self.rank,
            self.frame,
            self.tile_id,
            self.x0,
            self.y0,
            self.height,
            self.width,
            flags,
        )
        parts = [head, self.content_hash]
        if self.texture is not None:
            parts.append(np.ascontiguousarray(self.texture).tobytes())
        return b"".join(parts)

    @classmethod
    def decode(
        cls, body: bytes, *, grid: Optional[TileGrid] = None
    ) -> "TilePayload":
        head_size = _TILE_HEAD.size
        rank, frame, tile_id, x0, y0, h, w, flags = _unpack(
            _TILE_HEAD, body, "tile payload"
        )
        if flags & ~_TILE_FLAGS_KNOWN:
            raise ValueError(f"unknown tile flags 0x{flags:02x}")
        if h < 1 or w < 1:
            raise ValueError(f"tile extent must be positive, got {h}x{w}")
        is_ref = bool(flags & TILE_FLAG_REF)
        # Size the body in Python-int arithmetic before touching numpy,
        # mirroring the HeavyPayload hardening: a hostile header can
        # promise more pixels than ssize_t holds.
        need = head_size + TILE_HASH_BYTES + (0 if is_ref else h * w * 4)
        if need > MAX_BODY:
            raise ValueError(
                f"tile payload header promises {need} bytes, over the "
                f"{MAX_BODY}-byte frame limit"
            )
        if len(body) < need:
            raise ValueError(
                f"tile payload truncated: header promises {need} bytes, "
                f"got {len(body)}"
            )
        if grid is not None:
            if tile_id >= grid.n_tiles:
                raise ValueError(
                    f"tile_id {tile_id} out of grid range "
                    f"[0, {grid.n_tiles})"
                )
            gx0, gy0, gx1, gy1 = grid.tile_rect(tile_id)
            if (x0, y0, h, w) != (gx0, gy0, gy1 - gy0, gx1 - gx0):
                raise ValueError(
                    f"tile {tile_id} rect ({x0}, {y0}, {h}x{w}) does not "
                    f"match grid rect ({gx0}, {gy0}, "
                    f"{gy1 - gy0}x{gx1 - gx0})"
                )
        offset = head_size
        content_hash = bytes(body[offset:offset + TILE_HASH_BYTES])
        offset += TILE_HASH_BYTES
        texture = None
        if not is_ref:
            texture = np.frombuffer(
                body, dtype=np.uint8, count=h * w * 4, offset=offset
            ).reshape(h, w, 4).copy()
        return cls(
            rank=rank,
            frame=frame,
            tile_id=tile_id,
            x0=x0,
            y0=y0,
            height=h,
            width=w,
            content_hash=content_hash,
            texture=texture,
        )


#: flag bit: the payload is a stripe's *parity* block, not data.
STRIPE_FLAG_PARITY = 0x01

_STRIPE_FLAGS_KNOWN = STRIPE_FLAG_PARITY


@dataclass(frozen=True)
class StripePayload:
    """One parity-striped DPSS block (data or parity) on the wire.

    ``block_id`` is the DPSS block id -- data blocks use the dataset's
    logical id space, parity blocks the ids above it (see
    :meth:`~repro.dpss.stripe.StripeMap.parity_block_id`).
    ``stripe_index`` names the stripe the block belongs to and
    ``n_data``/``n_parity`` the stripe geometry, so a receiver can
    detect a block routed into the wrong stripe before XOR folds bad
    bytes into a reconstruction.
    """

    block_id: int
    stripe_index: int
    n_data: int
    n_parity: int
    payload: bytes
    is_parity: bool = False

    def __post_init__(self):
        for name in ("block_id", "stripe_index"):
            val = getattr(self, name)
            if not 0 <= val <= 0xFFFFFFFF:
                raise ValueError(f"{name} must fit in uint32, got {val}")
        if not 2 <= self.n_data <= 0xFFFF:
            raise ValueError(
                f"n_data must be a uint16 >= 2, got {self.n_data}"
            )
        if self.n_parity != 1:
            raise ValueError(
                f"XOR stripes carry exactly 1 parity block, got "
                f"n_parity={self.n_parity}"
            )
        if not self.payload:
            raise ValueError("stripe block payload must be non-empty")
        if len(self.payload) > 0xFFFFFFFF:
            raise ValueError(
                f"payload of {len(self.payload)} bytes overflows the "
                f"uint32 length field"
            )
        if not self.is_parity and self.block_id // self.n_data != (
            self.stripe_index
        ):
            raise ValueError(
                f"data block {self.block_id} belongs to stripe "
                f"{self.block_id // self.n_data}, not {self.stripe_index}"
            )

    def encode(self) -> bytes:
        flags = STRIPE_FLAG_PARITY if self.is_parity else 0
        head = _STRIPE_HEAD.pack(
            self.block_id,
            self.stripe_index,
            self.n_data,
            self.n_parity,
            flags,
            len(self.payload),
        )
        return head + self.payload

    @classmethod
    def decode(
        cls, body: bytes, *, stripe_map: Optional["StripeMap"] = None
    ) -> "StripePayload":
        head_size = _STRIPE_HEAD.size
        block_id, stripe, n_data, n_parity, flags, length = _unpack(
            _STRIPE_HEAD, body, "stripe payload"
        )
        if flags & ~_STRIPE_FLAGS_KNOWN:
            raise ValueError(f"unknown stripe flags 0x{flags:02x}")
        if n_data < 2:
            raise ValueError(f"n_data must be >= 2, got {n_data}")
        if n_parity != 1:
            raise ValueError(
                f"XOR stripes carry exactly 1 parity block, got "
                f"n_parity={n_parity}"
            )
        if length < 1:
            raise ValueError("stripe block payload must be non-empty")
        is_parity = bool(flags & STRIPE_FLAG_PARITY)
        if not is_parity and block_id // n_data != stripe:
            raise ValueError(
                f"data block {block_id} belongs to stripe "
                f"{block_id // n_data}, not {stripe}"
            )
        # Size the body in Python-int arithmetic before slicing,
        # mirroring the HeavyPayload/TilePayload hardening.
        need = head_size + length
        if need > MAX_BODY:
            raise ValueError(
                f"stripe payload header promises {need} bytes, over the "
                f"{MAX_BODY}-byte frame limit"
            )
        if len(body) < need:
            raise ValueError(
                f"stripe payload truncated: header promises {need} "
                f"bytes, got {len(body)}"
            )
        if stripe_map is not None:
            if (n_data, n_parity) != (
                stripe_map.n_data, stripe_map.n_parity
            ):
                raise ValueError(
                    f"stripe geometry {n_data}+{n_parity} does not match "
                    f"the map's {stripe_map.n_data}+{stripe_map.n_parity}"
                )
            if stripe >= stripe_map.n_stripes:
                raise ValueError(
                    f"stripe_index {stripe} out of range "
                    f"[0, {stripe_map.n_stripes})"
                )
            if is_parity:
                expect = stripe_map.parity_block_id(stripe)
                if block_id != expect:
                    raise ValueError(
                        f"parity block id {block_id} is not stripe "
                        f"{stripe}'s parity id {expect}"
                    )
                expect_len = int(stripe_map.parity_bytes(stripe))
            else:
                if block_id >= stripe_map.dataset.n_blocks:
                    raise ValueError(
                        f"data block {block_id} out of dataset range "
                        f"[0, {stripe_map.dataset.n_blocks})"
                    )
                expect_len = int(stripe_map.block_bytes(block_id))
            if length != expect_len:
                raise ValueError(
                    f"block {block_id} carries {length} bytes, the map "
                    f"says {expect_len}"
                )
        return cls(
            block_id=block_id,
            stripe_index=stripe,
            n_data=n_data,
            n_parity=n_parity,
            payload=bytes(body[head_size:need]),
            is_parity=is_parity,
        )


@dataclass(frozen=True)
class AxisFeedback:
    """Viewer -> back end: the best view axis for upcoming frames."""

    frame: int
    axis: int
    flip: bool

    def encode(self) -> bytes:
        return _AXIS.pack(self.frame, self.axis, self.flip)

    @classmethod
    def decode(cls, body: bytes) -> "AxisFeedback":
        frame, axis, flip = _unpack(_AXIS, body, "axis feedback", exact=True)
        return cls(frame=frame, axis=axis, flip=flip)


Message = Union[
    ConfigMessage, LightPayload, HeavyPayload, TilePayload, StripePayload,
    AxisFeedback,
]

_TYPE_OF = {
    ConfigMessage: MsgType.CONFIG,
    LightPayload: MsgType.LIGHT,
    HeavyPayload: MsgType.HEAVY,
    TilePayload: MsgType.TILE,
    StripePayload: MsgType.STRIPE,
    AxisFeedback: MsgType.AXIS_FEEDBACK,
}
_CLASS_OF = {v: k for k, v in _TYPE_OF.items()}


def encode_message(msg: Message) -> Tuple[MsgType, bytes]:
    """Serialize a typed message to (wire type, body)."""
    try:
        msg_type = _TYPE_OF[type(msg)]
    except KeyError:
        raise TypeError(f"unsupported message {type(msg).__name__}") from None
    return msg_type, msg.encode()


def decode_message(msg_type: MsgType, body: bytes) -> Message:
    """Deserialize a wire frame into its typed message."""
    try:
        cls = _CLASS_OF[MsgType(msg_type)]
    except (KeyError, ValueError):
        raise ValueError(f"no decoder for message type {msg_type}") from None
    return cls.decode(body)
