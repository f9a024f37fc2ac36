"""Optical frame codec: fixed 23-byte frames carried as six 32-bit chunks.

Wire contract (byte order on the wire):

    offset  field         width
    0       start marker  1   (0xA5)
    1       src address   1
    2       dst address   1
    3       payload type  1
    4       payload size  1   (0..16)
    5..20   payload       16  (zero padded past payload_size)
    21      checksum      1   (two's complement; whole frame sums to 0 mod 256)
    22      end marker    1   (0x5A)

The 23 bytes (184 bits) are packed big-endian into six 32-bit words to stay
inside the 32-bit limit of the carrier protocol; the final word carries one
zero pad byte. Any single-bit corruption of a chunk stream is caught by the
padding check, the markers, or the checksum.
"""

from __future__ import annotations

from dataclasses import dataclass

START_MARKER = 0xA5
END_MARKER = 0x5A
FRAME_BYTES = 23
MAX_PAYLOAD = 16
CHUNKS_PER_FRAME = 6  # ceil(23*8 / 32)


class FrameCodecError(ValueError):
    pass


class ChecksumError(FrameCodecError):
    pass


class FramingError(FrameCodecError):
    pass


class TruncationError(FrameCodecError):
    pass


@dataclass(frozen=True)
class VlcFrame:
    src: int
    dst: int
    payload_type: int
    payload: bytes = b""

    def __post_init__(self):
        for name in ("src", "dst", "payload_type"):
            v = getattr(self, name)
            if not 0 <= v <= 0xFF:
                raise FrameCodecError(f"{name} must fit one byte, got {v}")
        if len(self.payload) > MAX_PAYLOAD:
            raise FrameCodecError(
                f"payload is {len(self.payload)} bytes, limit is {MAX_PAYLOAD}")


@dataclass(frozen=True)
class ChunkStream:
    chunks: tuple[int, ...]


def _checksum(body: bytes) -> int:
    return (-sum(body)) & 0xFF


def frame_to_bytes(frame: VlcFrame) -> bytes:
    padded = frame.payload + bytes(MAX_PAYLOAD - len(frame.payload))
    body = bytes([START_MARKER, frame.src, frame.dst, frame.payload_type,
                  len(frame.payload)]) + padded
    return body + bytes([_checksum(body + bytes([END_MARKER])), END_MARKER])


def encode_vlc_frame(frame: VlcFrame) -> ChunkStream:
    """Serialize a frame and pack it big-endian into six 32-bit chunks."""
    raw = frame_to_bytes(frame)
    padded = raw + bytes(CHUNKS_PER_FRAME * 4 - FRAME_BYTES)
    chunks = tuple(int.from_bytes(padded[i:i + 4], "big")
                   for i in range(0, len(padded), 4))
    return ChunkStream(chunks=chunks)


def decode_vlc_chunks(stream: ChunkStream) -> VlcFrame:
    """Reassemble and validate a frame; raises on any integrity failure."""
    if len(stream.chunks) != CHUNKS_PER_FRAME:
        raise TruncationError(
            f"expected {CHUNKS_PER_FRAME} chunks, got {len(stream.chunks)}")
    raw = b"".join(c.to_bytes(4, "big") for c in stream.chunks)
    frame_bytes, pad = raw[:FRAME_BYTES], raw[FRAME_BYTES:]
    if any(pad):
        raise FramingError("nonzero padding in final chunk")
    if frame_bytes[0] != START_MARKER:
        raise FramingError(f"bad start marker 0x{frame_bytes[0]:02X}")
    if frame_bytes[-1] != END_MARKER:
        raise FramingError(f"bad end marker 0x{frame_bytes[-1]:02X}")
    if sum(frame_bytes) & 0xFF:
        raise ChecksumError("frame checksum mismatch")
    size = frame_bytes[4]
    if size > MAX_PAYLOAD:
        raise FramingError(f"payload size field {size} exceeds {MAX_PAYLOAD}")
    payload = frame_bytes[5:5 + MAX_PAYLOAD]
    if any(payload[size:]):
        raise FramingError("nonzero bytes past declared payload size")
    return VlcFrame(src=frame_bytes[1], dst=frame_bytes[2],
                    payload_type=frame_bytes[3], payload=bytes(payload[:size]))
