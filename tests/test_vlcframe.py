"""Frame codec: round-trip identity, corruption detection, fixed layout."""

import pytest
from hypothesis import given, strategies as st

from hybridsim.vlcframe import (CHUNKS_PER_FRAME, ChecksumError, ChunkStream,
                                FrameCodecError, FramingError, TruncationError,
                                VlcFrame, decode_vlc_chunks, encode_vlc_frame,
                                frame_to_bytes)

FRAME = VlcFrame(src=0x11, dst=0x22, payload_type=3, payload=b"hello world!")


def test_full_payload_encodes_to_six_chunks():
    stream = encode_vlc_frame(VlcFrame(src=1, dst=2, payload_type=0,
                                       payload=bytes(range(16))))
    assert len(stream.chunks) == CHUNKS_PER_FRAME


def test_empty_payload_still_six_chunks():
    stream = encode_vlc_frame(VlcFrame(src=1, dst=2, payload_type=0))
    assert len(stream.chunks) == CHUNKS_PER_FRAME


def test_serialized_frame_is_23_bytes_and_sums_to_zero():
    raw = frame_to_bytes(FRAME)
    assert len(raw) == 23
    assert sum(raw) % 256 == 0
    assert raw[0] == 0xA5 and raw[-1] == 0x5A


def test_round_trip_identity():
    assert decode_vlc_chunks(encode_vlc_frame(FRAME)) == FRAME


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255),
       st.binary(max_size=16))
def test_round_trip_random_frames(src, dst, ptype, payload):
    frame = VlcFrame(src=src, dst=dst, payload_type=ptype, payload=payload)
    assert decode_vlc_chunks(encode_vlc_frame(frame)) == frame


def test_oversized_payload_rejected():
    with pytest.raises(FrameCodecError):
        VlcFrame(src=1, dst=2, payload_type=0, payload=bytes(17))


def test_payload_bit_flip_detected():
    stream = encode_vlc_frame(FRAME)
    corrupted = list(stream.chunks)
    corrupted[2] ^= 1 << 7  # inside the payload area
    with pytest.raises(ChecksumError):
        decode_vlc_chunks(ChunkStream(chunks=tuple(corrupted)))


def test_marker_corruption_detected():
    stream = encode_vlc_frame(FRAME)
    raw = bytearray(b"".join(c.to_bytes(4, "big") for c in stream.chunks))
    raw[0] ^= 0xFF  # start marker
    chunks = tuple(int.from_bytes(raw[i:i + 4], "big") for i in range(0, 24, 4))
    with pytest.raises(FrameCodecError):
        decode_vlc_chunks(ChunkStream(chunks=chunks))


def test_truncated_stream_rejected():
    stream = encode_vlc_frame(FRAME)
    with pytest.raises(TruncationError):
        decode_vlc_chunks(ChunkStream(chunks=stream.chunks[:5]))


def test_nonzero_padding_rejected():
    stream = encode_vlc_frame(FRAME)
    corrupted = list(stream.chunks)
    corrupted[5] ^= 1  # lowest bit of the zero pad byte
    with pytest.raises(FramingError):
        decode_vlc_chunks(ChunkStream(chunks=tuple(corrupted)))


@pytest.mark.parametrize("offset, value, match", [
    (4, 17, "size field 17"), (5 + len(FRAME.payload), 1, "past declared payload size"),
], ids=["size-17", "byte-past-size"])
def test_framing_is_checked_behind_valid_markers_and_checksum(offset, value, match):
    raw = bytearray(frame_to_bytes(FRAME))
    raw[offset] = value
    raw[21] = 0
    raw[21] = -sum(raw) & 0xFF  # the frame sums to 0 mod 256 again
    raw.append(0)  # the final chunk's pad byte
    chunks = tuple(int.from_bytes(raw[i:i + 4], "big") for i in range(0, 24, 4))
    with pytest.raises(FramingError, match=match):
        decode_vlc_chunks(ChunkStream(chunks=chunks))


@pytest.mark.parametrize("bit", range(0, 192, 7))
def test_single_bit_corruptions_sampled(bit):
    stream = encode_vlc_frame(FRAME)
    corrupted = list(stream.chunks)
    corrupted[bit // 32] ^= 1 << (31 - bit % 32)
    with pytest.raises(FrameCodecError):
        decode_vlc_chunks(ChunkStream(chunks=tuple(corrupted)))
