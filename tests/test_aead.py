"""The in-tree AEAD_CHACHA20_POLY1305 (RFC 8439) and the refund sealing on it.

RFC 8439's known-answer vector is pinned as bytes; `cryptography`, when
installed (the `test` extra), serves as a differential oracle.  Every
single-bit change to what the tag covers, and every blob too short to hold
a tag, makes `unseal_refund_entries` raise `UndecryptableRefundTo`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from refundsim import aead, protocol
from refundsim.keys import dh_shared, keygen
from refundsim.protocol import (
    RefundEntry,
    UndecryptableRefundTo,
    seal_refund_entries,
    unseal_refund_entries,
)

# RFC 8439 §2.8.2: the AEAD_CHACHA20_POLY1305 encryption example
RFC_KEY = bytes(range(0x80, 0xA0))
RFC_NONCE = bytes.fromhex("070000004041424344454647")
RFC_AAD = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
RFC_PLAINTEXT = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you only one"
    b" tip for the future, sunscreen would be it."
)
RFC_CIPHERTEXT = bytes.fromhex(
    "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
    "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
    "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
    "3ff4def08e4b7a9de576d26586cec64b6116"
)
RFC_TAG = bytes.fromhex("1ae10b594f09e26a7e902ecbd0600691")

# one block boundary each side: the last partial block, a whole one, a new one
PLAINTEXT_LENGTHS = (0, 15, 16, 17, 63, 64, 65, 127, 128, 129)

C_PRIV, C_PUB = keygen(b"aead-customer")
M_PRIV, M_PUB = keygen(b"aead-merchant")
SECRET = dh_shared(C_PRIV, M_PUB)
MERCHANT_DATA = b"order-aead"
ENTRIES = (
    RefundEntry(keygen(b"aead-refundee")[1], 500),
    RefundEntry(keygen(b"aead-refundee-2")[1], 700, cosigner_pubkey=C_PUB),
)


def bit_flips(data: bytes):
    """Every copy of ``data`` with exactly one bit changed."""
    for i in range(len(data) * 8):
        flipped = bytearray(data)
        flipped[i // 8] ^= 1 << (i % 8)
        yield bytes(flipped)


def test_rfc8439_known_answer():
    blob = aead.encrypt(RFC_KEY, RFC_NONCE, RFC_PLAINTEXT, RFC_AAD)
    assert blob == RFC_CIPHERTEXT + RFC_TAG
    assert aead.decrypt(RFC_KEY, RFC_NONCE, blob, RFC_AAD) == RFC_PLAINTEXT


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    key=st.binary(min_size=32, max_size=32),
    nonce=st.binary(min_size=aead.NONCE_BYTES, max_size=aead.NONCE_BYTES),
    length=st.sampled_from(PLAINTEXT_LENGTHS),
    aad=st.binary(max_size=40),
    data=st.data(),
)
def test_matches_the_library_cipher(key, nonce, length, aad, data):
    oracle = pytest.importorskip("cryptography.hazmat.primitives.ciphers.aead")
    plaintext = data.draw(st.binary(min_size=length, max_size=length))
    blob = aead.encrypt(key, nonce, plaintext, aad)
    assert blob == oracle.ChaCha20Poly1305(key).encrypt(nonce, plaintext, aad)
    assert aead.decrypt(key, nonce, blob, aad) == plaintext


def test_every_single_bit_change_is_undecryptable():
    """A flipped bit of the ciphertext or tag, of the AAD it was sealed
    under, or of its nonce: the tag does not verify."""
    key, nonce = protocol._seal_key(SECRET), protocol._seal_nonce(MERCHANT_DATA)
    blob = seal_refund_entries(ENTRIES, SECRET, MERCHANT_DATA)
    assert unseal_refund_entries(blob, SECRET, MERCHANT_DATA) == ENTRIES
    plaintext = aead.decrypt(key, nonce, blob, MERCHANT_DATA)
    tampered = [
        *bit_flips(blob),
        *(aead.encrypt(key, nonce, plaintext, aad) for aad in bit_flips(MERCHANT_DATA)),
        *(aead.encrypt(key, other, plaintext, MERCHANT_DATA) for other in bit_flips(nonce)),
    ]
    assert len(tampered) == 8 * (len(blob) + len(MERCHANT_DATA) + aead.NONCE_BYTES)
    for sealed in tampered:
        with pytest.raises(UndecryptableRefundTo, match="does not decrypt"):
            unseal_refund_entries(sealed, SECRET, MERCHANT_DATA)


@pytest.mark.parametrize("size", range(aead.TAG_BYTES))
def test_blob_shorter_than_a_tag_is_undecryptable(size):
    blob = seal_refund_entries(ENTRIES, SECRET, MERCHANT_DATA)[:size]
    with pytest.raises(ValueError, match="holds no tag"):
        aead.decrypt(protocol._seal_key(SECRET), protocol._seal_nonce(MERCHANT_DATA), blob, b"")
    with pytest.raises(UndecryptableRefundTo):
        unseal_refund_entries(blob, SECRET, MERCHANT_DATA)
