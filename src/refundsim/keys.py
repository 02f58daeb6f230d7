"""Key material: deterministic keygen, child-key derivation, and DH masking.

A parent public key plus a 32-byte chain code (an extended public key) lets
anyone derive child public keys, while only the parent private-key holder can
derive the matching child private keys.  A merchant holding a private key m
can additionally *mask* a child key into the point
``child + H*(m * child) * G``; the child-key owner recovers the masked private
key from m's public half, and nobody else can link the masked key back to the
parent without solving DH.

Masking is linear in the child.  A non-hardened child is ``child = P + t*G``
with ``t`` the HMAC tweak of the parent ``P`` and the index, so

    ``m * child = m*P + (t*m mod n)*G``.

`ChildMasker` masks several indexes of one extended key under one masking key
this way: one ``mul`` for ``m*P`` per (masking key, extended key) pair, then
two ``g_mul`` per index, or for a long sweep of indexes two batched walks
(``mask_many``, over `CurveGroup.g_mul_many`).  Database recovery, the
mixer's chunk keys and the aggregate emission's per-transaction masks use
it.  A lone mask (`issue_refund`, linkage proofs) uses `mask_child`, the
definition, which costs one ``mul`` per child; tests hold the two paths equal.

The customer computes the same shared point from its side,

    ``m * child = (x + t) * M``,

with ``x`` its private key and ``M = m*G`` the masker's public key, so every
child it tries under one masker multiplies the same base ``M``.
`unmask_children` unmasks a sweep of children in one
`CurveGroup.mul_many` batch, which builds ``M``'s comb once; a lone unmask
uses `unmask_child_private`, the definition, at one ``mul``.  Tests hold
the two paths equal.

All functions are pure; curve parameters are injectable for tests and default
to secp256k1.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Sequence

from .curve import SECP256K1, CurveGroup, Point

NON_HARDENED_LIMIT = 1 << 31

_MASK_HASH_KEY = b"H*"


class KeyDerivationError(Exception):
    """Base class for key-module failures."""


class IndexOutOfRange(KeyDerivationError):
    """Child index outside the non-hardened range [0, 2^31)."""


class DegenerateChild(KeyDerivationError):
    """Derived tweak is 0 mod n or the child point is the identity."""


class KeyMismatch(KeyDerivationError):
    """Supplied private key does not match the public key."""


class IdentityPoint(KeyDerivationError):
    """An operation produced or received the identity point."""


@dataclass(frozen=True)
class ExtendedPublicKey:
    """A public key plus chain code; parent for non-hardened derivation."""

    pubkey: Point
    chain_code: bytes

    def __post_init__(self):
        if self.pubkey is None:
            raise IdentityPoint("extended key needs a non-identity point")
        if len(self.chain_code) != 32:
            raise ValueError("chain code must be 32 bytes")

    def encode(self, curve: CurveGroup = SECP256K1) -> bytes:
        return curve.encode_point(self.pubkey) + self.chain_code

    @classmethod
    def decode(cls, data: bytes, curve: CurveGroup = SECP256K1) -> "ExtendedPublicKey":
        point_len = 1 + curve.coord_bytes
        if len(data) != point_len + 32:
            raise ValueError("malformed extended key")
        return cls(curve.decode_point(data[:point_len]), data[point_len:])


def _hmac512(key: bytes, msg: bytes) -> bytes:
    return hmac.new(key, msg, hashlib.sha512).digest()


def _tweak(parent: ExtendedPublicKey, index: int, curve: CurveGroup) -> int:
    msg = curve.encode_point(parent.pubkey) + index.to_bytes(4, "big")
    left = _hmac512(parent.chain_code, msg)[:32]
    return int.from_bytes(left, "big") % curve.n


def point_hash_scalar(point: Point, curve: CurveGroup = SECP256K1) -> int:
    """Hash a curve point to a scalar mod n (the H* map)."""
    if point is None:
        raise IdentityPoint("cannot hash the identity point")
    left = _hmac512(_MASK_HASH_KEY, curve.encode_point(point))[:32]
    return int.from_bytes(left, "big") % curve.n


def seed_scalar(rng_seed: bytes, curve: CurveGroup = SECP256K1) -> int:
    """The private key `keygen` derives from a seed.

    The seed is hashed and reduced mod n; a zero reduction re-hashes, so any
    non-empty seed yields a valid key.
    """
    if not rng_seed:
        raise ValueError("seed must be non-empty")
    digest = hashlib.sha256(rng_seed).digest()
    k = int.from_bytes(digest, "big") % curve.n
    while k == 0:
        digest = hashlib.sha256(digest).digest()
        k = int.from_bytes(digest, "big") % curve.n
    return k


def keygen(rng_seed: bytes, curve: CurveGroup = SECP256K1) -> tuple[int, Point]:
    """Deterministically derive a keypair from a seed (`seed_scalar`)."""
    k = seed_scalar(rng_seed, curve)
    return k, curve.g_mul(k)


def derive_child_public(
    parent: ExtendedPublicKey, index: int, curve: CurveGroup = SECP256K1
) -> Point:
    """Derive the child public key at a non-hardened index."""
    if not 0 <= index < NON_HARDENED_LIMIT:
        raise IndexOutOfRange(f"index {index} not in [0, 2^31)")
    t = _tweak(parent, index, curve)
    if t == 0:
        raise DegenerateChild(f"tweak is zero at index {index}")
    child = curve.add(parent.pubkey, curve.g_mul(t))
    if child is None:
        raise DegenerateChild(f"child at index {index} is the identity")
    return child


def derive_child_private(
    parent_priv: int,
    parent: ExtendedPublicKey,
    index: int,
    curve: CurveGroup = SECP256K1,
    *,
    pair_checked: bool = False,
) -> int:
    """Derive the child private key; requires the matching parent key pair.

    Checking the pair costs a ``g_mul``.  A caller deriving several children
    of one pair checks it at the first and passes ``pair_checked=True`` after.
    """
    if not pair_checked and curve.g_mul(parent_priv) != parent.pubkey:
        raise KeyMismatch("private key does not match extended public key")
    if not 0 <= index < NON_HARDENED_LIMIT:
        raise IndexOutOfRange(f"index {index} not in [0, 2^31)")
    t = _tweak(parent, index, curve)
    child = (parent_priv + t) % curve.n
    if t == 0 or child == 0:
        raise DegenerateChild(f"degenerate child at index {index}")
    return child


def next_usable_index(
    parent: ExtendedPublicKey, start: int, curve: CurveGroup = SECP256K1
) -> tuple[int, Point]:
    """First index >= start whose child derivation is non-degenerate, and its child."""
    index = start
    while True:
        try:
            return index, derive_child_public(parent, index, curve)
        except DegenerateChild:
            index += 1


def dh_shared(priv: int, peer_pub: Point, curve: CurveGroup = SECP256K1) -> bytes:
    """Hashed Diffie-Hellman secret, as canonical scalar bytes.

    Symmetric: dh_shared(a, b*G) == dh_shared(b, a*G).
    """
    if peer_pub is None:
        raise IdentityPoint("peer key is the identity")
    shared = curve.mul(priv, peer_pub)
    if shared is None:
        raise IdentityPoint("shared point is the identity")
    return curve.encode_scalar(point_hash_scalar(shared, curve))


def mask_child(
    child_pub: Point, merchant_priv: int, curve: CurveGroup = SECP256K1
) -> Point:
    """Offset a child key by the hashed DH secret: child + H*(m*child)*G."""
    if child_pub is None:
        raise IdentityPoint("child key is the identity")
    offset = int.from_bytes(dh_shared(merchant_priv, child_pub, curve), "big")
    masked = curve.add(child_pub, curve.g_mul(offset))
    if masked is None:
        raise IdentityPoint("masked key is the identity")
    return masked


def unmask_child_private(
    child_priv: int, merchant_pub: Point, curve: CurveGroup = SECP256K1
) -> int:
    """Recover the private key of a masked child from the masker's pubkey."""
    if merchant_pub is None:
        raise IdentityPoint("merchant key is the identity")
    offset = int.from_bytes(dh_shared(child_priv, merchant_pub, curve), "big")
    return (child_priv + offset) % curve.n


def unmask_children(
    child_privs: Sequence[int], merchant_pub: Point, curve: CurveGroup = SECP256K1
) -> list:
    """``unmask_child_private(c, merchant_pub)`` for each of `child_privs`, as
    the key it returns or the `IdentityPoint` it raises; the shared points
    ``c * M`` come from one ``mul_many`` walk of ``M``'s comb."""
    if merchant_pub is None:
        raise IdentityPoint("merchant key is the identity")
    return [
        IdentityPoint("shared point is the identity") if shared is None
        else (child_priv + point_hash_scalar(shared, curve)) % curve.n
        for child_priv, shared in zip(child_privs, curve.mul_many(child_privs, merchant_pub))
    ]


class ChildMasker:
    """Masks children of extended keys under one masking key, by linearity.

    ``mask(parent, index)`` equals
    ``mask_child(derive_child_public(parent, index), m)`` and raises where
    they would: `IndexOutOfRange` and `DegenerateChild` for the child,
    `IdentityPoint` for the shared or the masked point.  ``m*P`` is computed
    once per parent, at its first non-degenerate index; each index then
    costs two ``g_mul`` and no ``mul``.  ``mask_many(parent, indexes)``
    masks a whole sweep with two `CurveGroup.g_mul_many` walks in place of
    the per-index ``g_mul`` and ``add``.
    """

    def __init__(self, masking_priv: int, curve: CurveGroup = SECP256K1):
        self.masking_priv = masking_priv
        self.curve = curve
        self._scaled: dict[ExtendedPublicKey, Point] = {}  # parent -> m*P

    def _checked_tweak(self, parent: ExtendedPublicKey, index: int) -> int:
        """The index's tweak, raising where ``mask`` does before any point sum."""
        curve = self.curve
        if not 0 <= index < NON_HARDENED_LIMIT:
            raise IndexOutOfRange(f"index {index} not in [0, 2^31)")
        t = _tweak(parent, index, curve)
        if t == 0:
            raise DegenerateChild(f"tweak is zero at index {index}")
        if self.masking_priv % curve.n == 0:  # m*child is the identity whatever the child
            derive_child_public(parent, index, curve)
            raise IdentityPoint("shared point is the identity")
        return t

    def _scaled_parent(self, parent: ExtendedPublicKey) -> Point:
        if parent not in self._scaled:
            self._scaled[parent] = self.curve.mul(self.masking_priv, parent.pubkey)
        return self._scaled[parent]

    def mask(self, parent: ExtendedPublicKey, index: int) -> Point:
        curve = self.curve
        t = self._checked_tweak(parent, index)
        # for m != 0 mod the prime order, m*child is the identity iff child is
        shared = curve.add(self._scaled_parent(parent), curve.g_mul(t * self.masking_priv))
        if shared is None:
            raise DegenerateChild(f"child at index {index} is the identity")
        masked = curve.add(parent.pubkey, curve.g_mul(t + point_hash_scalar(shared, curve)))
        if masked is None:
            raise IdentityPoint("masked key is the identity")
        return masked

    def mask_many(self, parent: ExtendedPublicKey, indexes: Sequence[int]) -> list:
        """``mask(parent, i)`` for each of `indexes`, as the point it returns
        or the `KeyDerivationError` it raises.

        The shared points ``m*P + (t*m)*G`` come from one ``g_mul_many``
        walk started at ``m*P``, and the masked points ``P + (t + H*)*G``
        from one started at ``P``.
        """
        curve = self.curve
        results: list = [None] * len(indexes)
        tweaks: dict[int, int] = {}  # position -> tweak
        for pos, index in enumerate(indexes):
            try:
                tweaks[pos] = self._checked_tweak(parent, index)
            except KeyDerivationError as exc:
                results[pos] = exc
        if not tweaks:
            return results
        shared = curve.g_mul_many(
            [t * self.masking_priv for t in tweaks.values()],
            [self._scaled_parent(parent)] * len(tweaks),
        )
        offsets: dict[int, int] = {}  # position -> t + H*(shared)
        for (pos, t), point in zip(tweaks.items(), shared):
            if point is None:
                results[pos] = DegenerateChild(f"child at index {indexes[pos]} is the identity")
            else:
                offsets[pos] = t + point_hash_scalar(point, curve)
        masked = curve.g_mul_many(list(offsets.values()), [parent.pubkey] * len(offsets))
        for pos, point in zip(offsets, masked):
            results[pos] = point if point is not None else IdentityPoint(
                "masked key is the identity"
            )
        return results
