"""Simplified transaction model: three script templates, signing, validation.

Canonical serialization layout (integers little-endian unless noted):

    version           u32   (currently 1)
    input_count       u32
    per input:
        prev_txid     32 raw bytes
        prev_index    u32
        witness_count u32
        per witness pair:
            signature 64 raw bytes
            pubkey    33 raw bytes, compressed
        has_script    u8    (0 or 1)
        script        key_count u8, then key_count compressed keys
    output_count      u32
    per output:
        value         u64
        script_tag    u8    (1 = pay-to-pubkey-hash, 2 = script-hash,
                             3 = data carrier)
        body          p2pkh: 20-byte key hash; script-hash: 20-byte hash;
                      data carrier: length u8 + payload
    lock_height       u32

The txid is the double SHA-256 of this serialization.  The signing digest is
the double SHA-256 of the serialization with every witness emptied, so a
signature commits to the whole transaction minus the witnesses themselves.

Signatures are deterministic Schnorr in (e, s) form, 32 + 32 bytes.  The
20-byte output hashes are double SHA-256 truncated to 20 bytes (this build's
OpenSSL lacks ripemd160; any second-preimage-resistant 20-byte digest serves
the same role here).
"""

from __future__ import annotations

import enum
import hashlib
import hmac
import struct
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence, Union

from .curve import SECP256K1, Point

DATA_CARRIER_LIMIT = 80
MULTISIG_MAX_KEYS = 4
SIGNATURE_SIZE = 64
POINT_SIZE = 1 + SECP256K1.coord_bytes


class TransactionBuildError(Exception):
    """Base class for construction-time failures."""


class PayloadTooLarge(TransactionBuildError):
    pass


class InsufficientFunds(TransactionBuildError):
    pass


class BadLockHeight(TransactionBuildError):
    pass


class ScriptMismatch(TransactionBuildError):
    pass


class MissingSigner(TransactionBuildError):
    pass


def sha256d(data: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def hash20(data: bytes) -> bytes:
    """20-byte output-script hash."""
    return sha256d(data)[:20]


def key_hash(pub: Point) -> bytes:
    return hash20(SECP256K1.encode_point(pub))


# -- scripts ------------------------------------------------------------------


@dataclass(frozen=True)
class NOfNScript:
    """An all-must-sign multisig script over 2..4 keys."""

    keys: tuple[Point, ...]

    def __post_init__(self):
        if not 2 <= len(self.keys) <= MULTISIG_MAX_KEYS:
            raise ScriptMismatch(f"multisig needs 2..{MULTISIG_MAX_KEYS} keys")
        if any(k is None for k in self.keys):
            raise ScriptMismatch("identity point in script")

    def encode(self) -> bytes:
        return bytes([len(self.keys)]) + b"".join(
            SECP256K1.encode_point(k) for k in self.keys
        )

    @classmethod
    def decode(cls, data: bytes) -> "NOfNScript":
        count = data[0] if data else 0
        if not 2 <= count <= MULTISIG_MAX_KEYS or len(data) != 1 + count * POINT_SIZE:
            raise ValueError("malformed multisig script")
        keys = tuple(
            SECP256K1.decode_point(data[1 + i * POINT_SIZE : 1 + (i + 1) * POINT_SIZE])
            for i in range(count)
        )
        return cls(keys)

    def script_hash(self) -> bytes:
        return hash20(self.encode())


def two_of_two(key_a: Point, key_b: Point) -> NOfNScript:
    return NOfNScript((key_a, key_b))


@dataclass(frozen=True)
class PayToPubkeyHash:
    pubkey_hash: bytes

    def __post_init__(self):
        if len(self.pubkey_hash) != 20:
            raise ValueError("pubkey hash must be 20 bytes")


@dataclass(frozen=True)
class ScriptHash:
    """Commitment to an NOfNScript; spendable by revealing and satisfying it."""

    script_hash: bytes

    def __post_init__(self):
        if len(self.script_hash) != 20:
            raise ValueError("script hash must be 20 bytes")


@dataclass(frozen=True)
class DataCarrier:
    """Unspendable zero-value output embedding up to 80 bytes."""

    payload: bytes

    def __post_init__(self):
        if len(self.payload) > DATA_CARRIER_LIMIT:
            raise PayloadTooLarge(f"payload over {DATA_CARRIER_LIMIT} bytes")


OutputScript = Union[PayToPubkeyHash, ScriptHash, DataCarrier]

_SCRIPT_TAGS = {PayToPubkeyHash: 1, ScriptHash: 2, DataCarrier: 3}


# -- transactions --------------------------------------------------------------


@dataclass(frozen=True)
class TxOutput:
    value: int
    script: OutputScript

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("negative output value")
        if (self.value == 0) != isinstance(self.script, DataCarrier):
            raise ValueError("value must be 0 iff the script is a data carrier")


@dataclass(frozen=True)
class TxInput:
    prev_txid: bytes
    prev_index: int
    witness: tuple[tuple[bytes, Point], ...] = ()
    reveal_script: Optional[NOfNScript] = None

    def __post_init__(self):
        if len(self.prev_txid) != 32:
            raise ValueError("txid must be 32 bytes")
        if self.prev_index < 0:
            raise ValueError("negative output index")


@dataclass(frozen=True)
class Transaction:
    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]
    lock_height: int = 0
    version: int = 1

    def __post_init__(self):
        if not self.outputs:
            raise ValueError("transaction needs at least one output")

    @property
    def is_seed(self) -> bool:
        """Seed (coinbase-style) transactions create value from nothing."""
        return not self.inputs


class FundingOutpoint(NamedTuple):
    """A spendable output reference with its value, as a wallet tracks it."""

    txid: bytes
    index: int
    value: int


def _u32(v: int) -> bytes:
    return struct.pack("<I", v)


def _u64(v: int) -> bytes:
    return struct.pack("<Q", v)


def serialize_tx(tx: Transaction, strip_witness: bool = False) -> bytes:
    parts = [_u32(tx.version), _u32(len(tx.inputs))]
    for txin in tx.inputs:
        parts.append(txin.prev_txid)
        parts.append(_u32(txin.prev_index))
        witness = () if strip_witness else txin.witness
        parts.append(_u32(len(witness)))
        for sig, pub in witness:
            parts.append(sig)
            parts.append(SECP256K1.encode_point(pub))
        script = None if strip_witness else txin.reveal_script
        if script is None:
            parts.append(b"\x00")
        else:
            parts.append(b"\x01")
            parts.append(script.encode())
    parts.append(_u32(len(tx.outputs)))
    for out in tx.outputs:
        parts.append(_u64(out.value))
        parts.append(bytes([_SCRIPT_TAGS[type(out.script)]]))
        if isinstance(out.script, PayToPubkeyHash):
            parts.append(out.script.pubkey_hash)
        elif isinstance(out.script, ScriptHash):
            parts.append(out.script.script_hash)
        else:
            parts.append(bytes([len(out.script.payload)]))
            parts.append(out.script.payload)
    parts.append(_u32(tx.lock_height))
    return b"".join(parts)


class ByteReader:
    """Cursor over one wire encoding, in one byte order.

    Each read takes the next bytes or raises ValueError if too few are left;
    `done` raises if any are left over.  Integers are unsigned; `lv` is a
    u16-length-prefixed field and `point` a compressed point.
    """

    def __init__(self, data: bytes, byteorder: str):
        self.data = data
        self.byteorder = byteorder
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise ValueError(f"truncated: {count} bytes wanted at offset {self.pos}")
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def _uint(self, size: int) -> int:
        return int.from_bytes(self.take(size), self.byteorder)

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return self._uint(2)

    def u32(self) -> int:
        return self._uint(4)

    def u64(self) -> int:
        return self._uint(8)

    def lv(self) -> bytes:
        return self.take(self.u16())

    def point(self) -> Point:
        return SECP256K1.decode_point(self.take(POINT_SIZE))

    def done(self) -> None:
        if self.pos != len(self.data):
            raise ValueError(f"{len(self.data) - self.pos} trailing bytes")


def deserialize_tx(data: bytes) -> Transaction:
    r = ByteReader(data, "little")
    version = r.u32()
    inputs = []
    for _ in range(r.u32()):
        prev_txid = r.take(32)
        prev_index = r.u32()
        witness = tuple(
            (r.take(SIGNATURE_SIZE), r.point())
            for _ in range(r.u32())
        )
        reveal = None
        has_script = r.u8()
        if has_script > 1:
            raise ValueError(f"has-script byte {has_script} is not 0 or 1")
        if has_script:
            count = r.u8()
            reveal = NOfNScript.decode(
                bytes([count]) + r.take(count * POINT_SIZE)
            )
        inputs.append(TxInput(prev_txid, prev_index, witness, reveal))
    outputs = []
    for _ in range(r.u32()):
        value = r.u64()
        tag = r.u8()
        if tag == 1:
            script: OutputScript = PayToPubkeyHash(r.take(20))
        elif tag == 2:
            script = ScriptHash(r.take(20))
        elif tag == 3:
            size = r.u8()
            if size > DATA_CARRIER_LIMIT:
                raise ValueError(f"data carrier over {DATA_CARRIER_LIMIT} bytes")
            script = DataCarrier(r.take(size))
        else:
            raise ValueError(f"unknown script tag {tag}")
        outputs.append(TxOutput(value, script))
    lock_height = r.u32()
    r.done()
    return Transaction(tuple(inputs), tuple(outputs), lock_height, version)


def txid(tx: Transaction) -> bytes:
    return sha256d(serialize_tx(tx))


def signing_digest(tx: Transaction) -> bytes:
    return sha256d(serialize_tx(tx, strip_witness=True))


def signer_keys(tx: Transaction) -> tuple[Point, ...]:
    """The witness keys of `tx`'s inputs, each once, in input order."""
    return tuple(dict.fromkeys(pub for txin in tx.inputs for _sig, pub in txin.witness))


# -- signatures ----------------------------------------------------------------


def schnorr_sign(priv: int, pub: Point, digest: bytes) -> bytes:
    """Deterministic Schnorr signature in (e, s) form over secp256k1.

    ``pub`` is the caller's public key for ``priv``; it is committed to, not
    recomputed, so a mismatched key yields a signature that fails to verify.
    """
    n = SECP256K1.n
    priv %= n
    if priv == 0:
        raise ValueError("zero private key")
    nonce_seed = priv.to_bytes(32, "big") + digest
    k = 0
    counter = 0
    while k == 0:
        material = hmac.new(b"nonce", nonce_seed + bytes([counter]), hashlib.sha256)
        k = int.from_bytes(material.digest(), "big") % n
        counter += 1
    commit = SECP256K1.g_mul(k)
    e = _challenge(commit, pub, digest)
    s = (k + e * priv) % n
    return e.to_bytes(32, "big") + s.to_bytes(32, "big")


def schnorr_verify(pub: Point, sig: bytes, digest: bytes) -> bool:
    if pub is None or len(sig) != SIGNATURE_SIZE:
        return False
    n = SECP256K1.n
    e = int.from_bytes(sig[:32], "big")
    s = int.from_bytes(sig[32:], "big")
    if e >= n or s >= n:
        return False
    commit = SECP256K1.lincomb(s, n - e, pub)
    if commit is None:
        return False
    return _challenge(commit, pub, digest) == e


def _challenge(commit: Point, pub: Point, digest: bytes) -> int:
    material = (
        SECP256K1.encode_point(commit) + SECP256K1.encode_point(pub) + digest
    )
    return int.from_bytes(hashlib.sha256(material).digest(), "big") % SECP256K1.n


# -- builders ------------------------------------------------------------------


def _funding_inputs(funding: Sequence[FundingOutpoint]) -> tuple[TxInput, ...]:
    return tuple(TxInput(f.txid, f.index, ()) for f in funding)


def _sign_all(
    tx: Transaction, input_signers: Sequence[tuple[Sequence[tuple[int, Point]], Optional[NOfNScript]]]
) -> Transaction:
    """Attach witnesses: one (signers, reveal_script) entry per input."""
    digest = signing_digest(tx)
    signed = []
    for txin, (signers, reveal) in zip(tx.inputs, input_signers):
        witness = tuple((schnorr_sign(priv, pub, digest), pub) for priv, pub in signers)
        signed.append(replace(txin, witness=witness, reveal_script=reveal))
    return replace(tx, inputs=tuple(signed))


def build_seed_tx(payouts: Sequence[tuple[Point, int]]) -> Transaction:
    """Input-less transaction creating the simulation's initial coins."""
    outputs = tuple(TxOutput(v, PayToPubkeyHash(key_hash(pub))) for pub, v in payouts)
    return Transaction((), outputs)


def build_main_tc(
    funding: Sequence[FundingOutpoint],
    pay_to: Point,
    amount: int,
    xpubs: Sequence,
    funding_signers: Sequence[tuple[int, Point]],
    change: Sequence[tuple[Point, int]],
) -> Transaction:
    """Payment transaction: P2PKH to the merchant plus the embedded xpubs.

    outputs[0] pays `amount` to `pay_to`; then one data carrier per entry of
    `xpubs`, in order; then one P2PKH per `change` entry (pub, value).  The
    funding must equal the amount plus the change.  One signer per funding
    outpoint, in order.
    """
    if amount <= 0:
        raise ValueError("amount must be positive")
    total_in = sum(f.value for f in funding)
    total_out = amount + sum(value for _pub, value in change)
    if total_in != total_out:
        raise InsufficientFunds(f"funding {total_in} must equal amount plus change {total_out}")
    outputs = [TxOutput(amount, PayToPubkeyHash(key_hash(pay_to)))]
    outputs.extend(TxOutput(0, DataCarrier(xpub.encode())) for xpub in xpubs)
    outputs.extend(TxOutput(value, PayToPubkeyHash(key_hash(pub))) for pub, value in change)
    tx = Transaction(_funding_inputs(funding), tuple(outputs))
    return _sign_all(tx, [([signer], None) for signer in funding_signers])


def build_funded_tx(
    outputs: Sequence[TxOutput],
    funding: Sequence[FundingOutpoint],
    signer: tuple[int, Point],
    lock_height: int = 0,
) -> Transaction:
    """Spend one key's funding outpoints to `outputs`, change back to that key.

    Every merchant-signed refund and emission is this transaction: the
    funding key (priv, pub) signs each input, and whatever the funding holds
    beyond the outputs returns to the key's hash as a final change output.
    """
    total_out = sum(o.value for o in outputs)
    total_in = sum(f.value for f in funding)
    if total_in < total_out:
        raise InsufficientFunds(f"need {total_out}, have {total_in}")
    outputs = list(outputs)
    change = total_in - total_out
    if change > 0:
        outputs.append(TxOutput(change, PayToPubkeyHash(key_hash(signer[1]))))
    tx = Transaction(_funding_inputs(funding), tuple(outputs), lock_height)
    return _sign_all(tx, [([signer], None)] * len(funding))


def build_refund_tc1(
    refunds: Sequence[tuple],
    merchant_funding: Sequence[FundingOutpoint],
    merchant_key_m1: Point,
    merchant_priv_m1: int,
) -> Transaction:
    """Joint-refund transaction: one n-of-n script-hash output per refundee.

    Each refund entry is (customer_keys, refundee_key, value) where
    customer_keys is a tuple of masked child keys, more than one for multi
    co-signer locking; the committed script requires every listed key plus
    the refundee to sign.  Change returns to the funding key m1.
    """
    if not refunds:
        raise ValueError("no refund entries")
    outputs = []
    for customer_keys, refundee_key, value in refunds:
        script = NOfNScript(customer_keys + (refundee_key,))
        outputs.append(TxOutput(value, ScriptHash(script.script_hash())))
    return build_funded_tx(outputs, merchant_funding, (merchant_priv_m1, merchant_key_m1))


def build_refund_tc2(
    masked_customer_key: Point,
    value: int,
    merchant_funding: Sequence[FundingOutpoint],
    merchant_key_m2: Point,
    merchant_priv_m2: int,
    lock_height: int,
    current_height: int,
) -> Transaction:
    """Fallback refund: a time-locked P2PKH to the masked customer child."""
    if lock_height <= current_height:
        raise BadLockHeight(f"lock {lock_height} not past height {current_height}")
    return build_funded_tx(
        [TxOutput(value, PayToPubkeyHash(key_hash(masked_customer_key)))],
        merchant_funding,
        (merchant_priv_m2, merchant_key_m2),
        lock_height,
    )


def build_redeem(
    source: Transaction,
    output_index: int,
    signers: Sequence[tuple[int, Point]],
    dest: Point,
    reveal_script: Optional[NOfNScript] = None,
) -> Transaction:
    """Spend one output of `source` to a P2PKH at `dest`.

    P2PKH sources need the single matching signer; script-hash sources need
    the revealed script and a signer for every script key.  The redeem
    inherits the source's lock height, so a time-locked source stays gated
    by the same height bound.
    """
    if not 0 <= output_index < len(source.outputs):
        raise ScriptMismatch("no such output")
    out = source.outputs[output_index]
    by_pub = {SECP256K1.encode_point(pub): (priv, pub) for priv, pub in signers}
    if isinstance(out.script, PayToPubkeyHash):
        match = [s for s in signers if key_hash(s[1]) == out.script.pubkey_hash]
        if not match:
            raise MissingSigner("no signer matches the output key hash")
        ordered = [match[0]]
        reveal = None
    elif isinstance(out.script, ScriptHash):
        if reveal_script is None or reveal_script.script_hash() != out.script.script_hash:
            raise ScriptMismatch("revealed script does not match the commitment")
        ordered = []
        for k in reveal_script.keys:
            entry = by_pub.get(SECP256K1.encode_point(k))
            if entry is None:
                raise MissingSigner("script key has no signer")
            ordered.append(entry)
        reveal = reveal_script
    else:
        raise ScriptMismatch("data carriers are unspendable")
    tx = Transaction(
        (TxInput(txid(source), output_index),),
        (TxOutput(out.value, PayToPubkeyHash(key_hash(dest))),),
        lock_height=source.lock_height,
    )
    return _sign_all(tx, [(ordered, reveal)])


# -- validation -----------------------------------------------------------------


class RejectReason(enum.Enum):
    UNKNOWN_INPUT = "unknown-input"
    DOUBLE_SPEND = "double-spend"
    BAD_WITNESS = "bad-witness"
    LOCKED = "locked"
    VALUE_MISMATCH = "value-mismatch"


@dataclass(frozen=True)
class ValidationResult:
    accepted: bool
    reason: Optional[RejectReason] = None
    detail: str = ""
    txid: bytes = b""  # set by the ledger, which hashes each broadcast once

    def __bool__(self) -> bool:
        return self.accepted


def _witness_satisfies(txin: TxInput, out: TxOutput, digest: bytes) -> bool:
    script = out.script
    if isinstance(script, DataCarrier):
        return False
    if isinstance(script, PayToPubkeyHash):
        if len(txin.witness) != 1 or txin.reveal_script is not None:
            return False
        sig, pub = txin.witness[0]
        return key_hash(pub) == script.pubkey_hash and schnorr_verify(pub, sig, digest)
    # script-hash: reveal must match, every script key must have a valid
    # signature, in script order
    reveal = txin.reveal_script
    if reveal is None or reveal.script_hash() != script.script_hash:
        return False
    if len(txin.witness) != len(reveal.keys):
        return False
    for (sig, pub), key in zip(txin.witness, reveal.keys):
        if pub != key or not schnorr_verify(pub, sig, digest):
            return False
    return True


def validate(tx: Transaction, ledger_view) -> ValidationResult:
    """Full acceptance check against a ledger view: the lock, then `validate_spend`.

    The view must expose `height`, `output_exists(txid, index)` and
    `unspent_output(txid, index) -> TxOutput | None`.
    """
    if tx.lock_height > ledger_view.height:
        return ValidationResult(
            False, RejectReason.LOCKED, f"locked until {tx.lock_height}"
        )
    return validate_spend(tx, ledger_view)


def validate_spend(tx: Transaction, ledger_view) -> ValidationResult:
    """Every check but the lock; seed transactions skip value conservation."""
    if tx.is_seed:
        return ValidationResult(True)
    digest = signing_digest(tx)
    seen = set()
    total_in = 0
    for txin in tx.inputs:
        key = (txin.prev_txid, txin.prev_index)
        if key in seen:
            return ValidationResult(
                False, RejectReason.DOUBLE_SPEND, "duplicate outpoint in tx"
            )
        seen.add(key)
        if not ledger_view.output_exists(*key):
            return ValidationResult(
                False, RejectReason.UNKNOWN_INPUT, f"missing {txin.prev_txid.hex()[:16]}:{txin.prev_index}"
            )
        out = ledger_view.unspent_output(*key)
        if out is None:
            return ValidationResult(
                False, RejectReason.DOUBLE_SPEND, f"spent {txin.prev_txid.hex()[:16]}:{txin.prev_index}"
            )
        if not _witness_satisfies(txin, out, digest):
            return ValidationResult(False, RejectReason.BAD_WITNESS, "script unsatisfied")
        total_in += out.value
    total_out = sum(o.value for o in tx.outputs)
    if total_in != total_out:
        return ValidationResult(
            False, RejectReason.VALUE_MISMATCH, f"in {total_in} != out {total_out}"
        )
    return ValidationResult(True)
