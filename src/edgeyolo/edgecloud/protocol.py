"""Length-framed wire protocol between edge and cloud.

Frame layout, all integers little-endian:

    magic   4 bytes  b"EYP1"
    type    u8       message type
    pad     u8       reserved, written as zero
    version u32      sender's model version
    length  u32      payload byte count
    payload length bytes
    crc     u32      CRC32 of the payload

The empty-payload frame is exactly 18 bytes.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Protocol

MAGIC = b"EYP1"

FRAME_UPLOAD = 1
WEIGHT_PUSH = 4
ACK = 5

_TYPES = frozenset((FRAME_UPLOAD, WEIGHT_PUSH, ACK))
_HEADER = struct.Struct("<4sBBII")
_CRC = struct.Struct("<I")
# ample for a weight push (the 416 preset's blob is 34,964,476 bytes) and
# small enough that a forged length cannot make a reader allocate gigabytes
MAX_PAYLOAD = 64 << 20


class ProtocolError(ValueError):
    """Base class for malformed frames."""


class BadMagicError(ProtocolError):
    pass


class ChecksumError(ProtocolError):
    pass


class TruncatedFrameError(ProtocolError):
    pass


class UnknownTypeError(ProtocolError):
    pass


class OversizeFrameError(ProtocolError):
    """The header declares a payload above MAX_PAYLOAD."""


class Reader(Protocol):
    def read(self, n: int) -> bytes: ...


@dataclass(frozen=True)
class Message:
    msg_type: int
    version: int
    payload: bytes = b""

    def __post_init__(self):
        if self.msg_type not in _TYPES:
            raise UnknownTypeError(f"unknown message type {self.msg_type}")
        if not 0 <= self.version <= 0xFFFFFFFF:
            raise ValueError(f"version must fit u32, got {self.version}")
        if len(self.payload) > MAX_PAYLOAD:
            raise ValueError(f"payload of {len(self.payload)} bytes exceeds "
                             f"MAX_PAYLOAD ({MAX_PAYLOAD})")


def encode_message(msg: Message) -> bytes:
    header = _HEADER.pack(MAGIC, msg.msg_type, 0, msg.version, len(msg.payload))
    return header + msg.payload + _CRC.pack(zlib.crc32(msg.payload))


def decode_message(buf: bytes) -> Message:
    """Decode exactly one frame occupying the whole buffer."""
    if len(buf) < _HEADER.size:
        raise TruncatedFrameError(f"{len(buf)} bytes is too short for a header")
    magic, msg_type, _, version, length = _HEADER.unpack_from(buf, 0)
    _check_header(magic, length)
    if msg_type not in _TYPES:
        raise UnknownTypeError(f"unknown message type {msg_type}")
    end = _HEADER.size + length
    if len(buf) < end + _CRC.size:
        raise TruncatedFrameError(f"frame declares {length} payload bytes but only "
                                  f"{len(buf) - _HEADER.size - _CRC.size} are present")
    if len(buf) > end + _CRC.size:
        raise ProtocolError(f"{len(buf) - end - _CRC.size} trailing bytes after frame")
    payload = buf[_HEADER.size:end]
    (crc,) = _CRC.unpack_from(buf, end)
    if crc != zlib.crc32(payload):
        raise ChecksumError(f"payload crc {zlib.crc32(payload):#010x} != {crc:#010x}")
    return Message(msg_type, version, payload)


def _check_header(magic: bytes, length: int) -> None:
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if length > MAX_PAYLOAD:
        raise OversizeFrameError(f"frame declares {length} payload bytes, above "
                                 f"the {MAX_PAYLOAD}-byte cap")


def _read_exact(reader: Reader, n: int, context: str) -> bytes:
    chunks = []
    got = 0
    while got < n:
        chunk = reader.read(n - got)
        if not chunk:
            raise TruncatedFrameError(f"stream ended inside {context}")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_message(reader: Reader) -> Message | None:
    """Read one frame from a blocking byte stream; None on EOF at a boundary."""
    first = reader.read(1)
    if not first:
        return None
    header = first + _read_exact(reader, _HEADER.size - 1, "the header")
    magic, msg_type, _, version, length = _HEADER.unpack(header)
    _check_header(magic, length)
    rest = _read_exact(reader, length + _CRC.size, "the payload")
    return decode_message(header + rest)
