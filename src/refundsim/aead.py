"""AEAD_CHACHA20_POLY1305 (RFC 8439 §2.8) in pure Python.

``encrypt(key, nonce, plaintext, aad)``, with a 32-byte key and a 12-byte
nonce, returns the ciphertext followed by its 16-byte tag, the layout
`decrypt` reads back.  Only the tag compare is constant-time
(`hmac.compare_digest`); the cipher runs on Python integers, whose timing
depends on their values, so no side-channel claim is made.
"""

from __future__ import annotations

import struct
from hmac import compare_digest

NONCE_BYTES = 12
TAG_BYTES = 16

_MASK = 0xFFFFFFFF
_CONSTANTS = struct.unpack("<4I", b"expand 32-byte k")
_CLAMP = 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF
_P1305 = (1 << 130) - 5


def _blocks(key: bytes, nonce: bytes, count: int) -> bytes:
    """ChaCha20 blocks 0..count-1 (§2.3) under one key and nonce, side by side.

    Word j of every block shares one integer, block i in bits 64i..64i+31,
    so each round operation serves every block.  A sum's carry and a shift's
    overflow land in the 32 bits above a lane, or below it, and the lane mask
    clears them.
    """
    lanes = range(0, 64 * count, 64)
    spread = sum(1 << shift for shift in lanes)
    mask = _MASK * spread
    words = [*_CONSTANTS, *struct.unpack("<8I", key), 0, *struct.unpack("<3I", nonce)]
    state = [w * spread for w in words]
    state[12] = sum(i << shift for i, shift in enumerate(lanes))  # block counters
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15 = state
    for _ in range(10):
        # column round
        x0 = (x0 + x4) & mask; x12 ^= x0; x12 = (x12 << 16 | x12 >> 16) & mask
        x8 = (x8 + x12) & mask; x4 ^= x8; x4 = (x4 << 12 | x4 >> 20) & mask
        x0 = (x0 + x4) & mask; x12 ^= x0; x12 = (x12 << 8 | x12 >> 24) & mask
        x8 = (x8 + x12) & mask; x4 ^= x8; x4 = (x4 << 7 | x4 >> 25) & mask
        x1 = (x1 + x5) & mask; x13 ^= x1; x13 = (x13 << 16 | x13 >> 16) & mask
        x9 = (x9 + x13) & mask; x5 ^= x9; x5 = (x5 << 12 | x5 >> 20) & mask
        x1 = (x1 + x5) & mask; x13 ^= x1; x13 = (x13 << 8 | x13 >> 24) & mask
        x9 = (x9 + x13) & mask; x5 ^= x9; x5 = (x5 << 7 | x5 >> 25) & mask
        x2 = (x2 + x6) & mask; x14 ^= x2; x14 = (x14 << 16 | x14 >> 16) & mask
        x10 = (x10 + x14) & mask; x6 ^= x10; x6 = (x6 << 12 | x6 >> 20) & mask
        x2 = (x2 + x6) & mask; x14 ^= x2; x14 = (x14 << 8 | x14 >> 24) & mask
        x10 = (x10 + x14) & mask; x6 ^= x10; x6 = (x6 << 7 | x6 >> 25) & mask
        x3 = (x3 + x7) & mask; x15 ^= x3; x15 = (x15 << 16 | x15 >> 16) & mask
        x11 = (x11 + x15) & mask; x7 ^= x11; x7 = (x7 << 12 | x7 >> 20) & mask
        x3 = (x3 + x7) & mask; x15 ^= x3; x15 = (x15 << 8 | x15 >> 24) & mask
        x11 = (x11 + x15) & mask; x7 ^= x11; x7 = (x7 << 7 | x7 >> 25) & mask
        # diagonal round
        x0 = (x0 + x5) & mask; x15 ^= x0; x15 = (x15 << 16 | x15 >> 16) & mask
        x10 = (x10 + x15) & mask; x5 ^= x10; x5 = (x5 << 12 | x5 >> 20) & mask
        x0 = (x0 + x5) & mask; x15 ^= x0; x15 = (x15 << 8 | x15 >> 24) & mask
        x10 = (x10 + x15) & mask; x5 ^= x10; x5 = (x5 << 7 | x5 >> 25) & mask
        x1 = (x1 + x6) & mask; x12 ^= x1; x12 = (x12 << 16 | x12 >> 16) & mask
        x11 = (x11 + x12) & mask; x6 ^= x11; x6 = (x6 << 12 | x6 >> 20) & mask
        x1 = (x1 + x6) & mask; x12 ^= x1; x12 = (x12 << 8 | x12 >> 24) & mask
        x11 = (x11 + x12) & mask; x6 ^= x11; x6 = (x6 << 7 | x6 >> 25) & mask
        x2 = (x2 + x7) & mask; x13 ^= x2; x13 = (x13 << 16 | x13 >> 16) & mask
        x8 = (x8 + x13) & mask; x7 ^= x8; x7 = (x7 << 12 | x7 >> 20) & mask
        x2 = (x2 + x7) & mask; x13 ^= x2; x13 = (x13 << 8 | x13 >> 24) & mask
        x8 = (x8 + x13) & mask; x7 ^= x8; x7 = (x7 << 7 | x7 >> 25) & mask
        x3 = (x3 + x4) & mask; x14 ^= x3; x14 = (x14 << 16 | x14 >> 16) & mask
        x9 = (x9 + x14) & mask; x4 ^= x9; x4 = (x4 << 12 | x4 >> 20) & mask
        x3 = (x3 + x4) & mask; x14 ^= x3; x14 = (x14 << 8 | x14 >> 24) & mask
        x9 = (x9 + x14) & mask; x4 ^= x9; x4 = (x4 << 7 | x4 >> 25) & mask
    mixed = (x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15)
    out = [(a + b) & mask for a, b in zip(mixed, state)]
    return b"".join(struct.pack("<16I", *[w >> shift & _MASK for w in out]) for shift in lanes)


def _cipher(key: bytes, nonce: bytes, length: int) -> tuple[bytes, bytes]:
    """The one-time Poly1305 key, from block 0 (§2.6), and ``length`` bytes of
    keystream from block 1 on (§2.4)."""
    blocks = _blocks(key, nonce, 1 - (-length // 64))
    return blocks[:32], blocks[64 : 64 + length]


def _xor(data: bytes, stream: bytes) -> bytes:
    n = len(data)
    return (int.from_bytes(data, "little") ^ int.from_bytes(stream, "little")).to_bytes(n, "little")


def _pad16(data: bytes) -> bytes:
    return bytes(-len(data) % 16)


def _tag(otk: bytes, ciphertext: bytes, aad: bytes) -> bytes:
    """Poly1305 (§2.5) over the §2.8 MAC data, under the one-time key ``otk``."""
    r = int.from_bytes(otk[:16], "little") & _CLAMP
    s = int.from_bytes(otk[16:32], "little")
    data = b"".join((
        aad, _pad16(aad), ciphertext, _pad16(ciphertext),
        struct.pack("<QQ", len(aad), len(ciphertext)),
    ))
    acc = 0
    for i in range(0, len(data), 16):  # every block is whole: the data is padded
        acc = (acc + int.from_bytes(data[i : i + 16], "little") + (1 << 128)) * r % _P1305
    return ((acc + s) & ((1 << 128) - 1)).to_bytes(TAG_BYTES, "little")


def encrypt(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
    """Ciphertext of ``plaintext`` followed by the tag over it and ``aad``."""
    otk, stream = _cipher(key, nonce, len(plaintext))
    ciphertext = _xor(plaintext, stream)
    return ciphertext + _tag(otk, ciphertext, aad)


def decrypt(key: bytes, nonce: bytes, blob: bytes, aad: bytes) -> bytes:
    """The plaintext `encrypt` sealed into ``blob``; ValueError if the blob is
    shorter than a tag or its tag does not verify."""
    if len(blob) < TAG_BYTES:
        raise ValueError(f"sealed blob of {len(blob)} bytes holds no tag")
    ciphertext, tag = blob[:-TAG_BYTES], blob[-TAG_BYTES:]
    otk, stream = _cipher(key, nonce, len(ciphertext))
    if not compare_digest(_tag(otk, ciphertext, aad), tag):
        raise ValueError("tag does not verify")
    return _xor(ciphertext, stream)
