"""Fuzz tests: malformed wire input must fail fast, never hang/crash."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol import FrameError, MsgType, decode_message, read_message
from repro.protocol import messages
from repro.protocol.framing import MAGIC


class ByteSock:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def recv(self, n):
        chunk = self.data[self.pos:self.pos + n]
        self.pos += len(chunk)
        return chunk


@settings(max_examples=150, deadline=None)
@given(st.binary(min_size=0, max_size=64))
def test_random_bytes_never_crash_reader(data):
    """Arbitrary junk raises FrameError (or yields a valid empty-body
    control frame), and never raises anything else."""
    try:
        msg_type, body = read_message(ByteSock(data))
    except FrameError:
        return
    # If it parsed, the header must genuinely have been well-formed.
    assert data[:4] == struct.pack("!I", MAGIC)


@settings(max_examples=150, deadline=None)
@given(
    msg_type=st.sampled_from(list(MsgType)),
    body=st.binary(min_size=0, max_size=128),
)
def test_random_bodies_never_crash_decoder(msg_type, body):
    """Well-framed but garbage bodies raise ValueError and nothing else."""
    if msg_type == MsgType.BYE:
        return  # no decoder by design
    try:
        decode_message(msg_type, body)
    except ValueError:
        pass


_DECODABLE = [t for t in MsgType if t != MsgType.BYE]

#: the fixed header each decodable message type starts with
_HEAD_OF = {
    MsgType.CONFIG: messages._CONFIG,
    MsgType.LIGHT: messages._LIGHT,
    MsgType.HEAVY: messages._HEAVY_HEAD,
    MsgType.AXIS_FEEDBACK: messages._AXIS,
    MsgType.TILE: messages._TILE_HEAD,
    MsgType.STRIPE: messages._STRIPE_HEAD,
}


@pytest.mark.parametrize("msg_type", _DECODABLE, ids=lambda t: t.name)
@pytest.mark.parametrize("short", ["empty", "one_byte_short"])
def test_short_body_raises_value_error(msg_type, short):
    """A body shorter than its message's fixed header is refused with a
    ValueError naming the sizes, never a struct.error."""
    head = _HEAD_OF[msg_type]
    body = b"" if short == "empty" else bytes(head.size - 1)
    with pytest.raises(ValueError, match=f"{head.size} bytes, got {len(body)}"):
        decode_message(msg_type, body)


def test_truncated_header_fails_fast():
    with pytest.raises(FrameError):
        read_message(ByteSock(struct.pack("!I", MAGIC)))


def test_length_field_beyond_stream_fails_fast():
    data = struct.pack("!III", MAGIC, int(MsgType.LIGHT), 1000)
    with pytest.raises(FrameError):
        read_message(ByteSock(data + b"short"))
