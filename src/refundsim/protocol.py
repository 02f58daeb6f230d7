"""Payment-protocol messages and the merchant/customer actors.

The message flow follows the classic three-message payment protocol
(request, payment, acknowledgment) with a hardened refund path: the payment
embeds the customer's extended public key, and a refund is issued as a pair
of transactions — a joint n-of-n refund spendable only by customer and
refundee together, plus a time-locked fallback spendable by the customer
alone.  Both lock to DH-masked child keys of the embedded extended key, so
chain observers cannot link refunds to payments.

Refund addresses may be replaced during the refund window over any channel,
email included: updates are unauthenticated, the joint lock makes a hijacked
update worthless, and moving value between the signers of a multi-signer
session locks every entry to all of them.  Refund instructions hold at most
`dispute.MAX_CHILD_INDEX` entries, so discovery and recovery try every child
a refund uses.

Sessions move through Created -> Paid -> RefundIssued -> Redeemed.  Expiry
is judged, not stored: a session is refundable while it is Paid, its payment
confirmed and its refund window open (`Merchant.refundable_session`).
"""

from __future__ import annotations

import enum
import hashlib
import random
import struct
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import dropwhile
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from . import dispute
from .curve import SECP256K1, Point
from .keys import (
    ExtendedPublicKey,
    KeyDerivationError,
    KeyMismatch,
    derive_child_private,
    dh_shared,
    keygen,
    mask_child,
    next_usable_index,
    seed_scalar,
    unmask_child_private,
    unmask_children,
)
from .ledger import SimLedger
from .transactions import (
    ByteReader,
    DataCarrier,
    FundingOutpoint,
    InsufficientFunds,
    MissingSigner,
    NOfNScript,
    PayToPubkeyHash,
    ScriptHash,
    Transaction,
    TxOutput,
    build_funded_tx,
    build_main_tc,
    build_redeem,
    build_refund_tc1,
    build_refund_tc2,
    key_hash,
    schnorr_sign,
    schnorr_verify,
    serialize_tx,
    deserialize_tx,
    signer_keys,
    txid,
)

ONE_WEEK_BLOCKS = 1008
TWO_MONTHS_BLOCKS = 8640
DEFAULT_REQUEST_TTL = 100


class ProtocolError(Exception):
    pass


class RequestExpired(ProtocolError):
    pass


class RequestBadSignature(ProtocolError):
    pass


class BadTransaction(ProtocolError):
    pass


class AmountMismatch(ProtocolError):
    pass


class UndecryptableRefundTo(ProtocolError):
    pass


class UnknownSession(ProtocolError):
    pass


class WindowExpired(ProtocolError):
    pass


class InsufficientMerchantFunds(ProtocolError):
    pass


class AlreadySpent(ProtocolError):
    pass


class Locked(ProtocolError):
    pass


class RefundNotFound(ProtocolError):
    pass


# -- wire helpers -----------------------------------------------------------


def _wb(data: bytes) -> bytes:
    if len(data) > 0xFFFF:
        raise ValueError("field too long")
    return struct.pack(">H", len(data)) + data


def _wstr(text: str) -> bytes:
    return _wb(text.encode("utf-8"))


# -- messages -----------------------------------------------------------------


@dataclass(frozen=True)
class RefundEntry:
    """One (amount, address) refund instruction, optionally bound to a co-signer."""

    refundee: Union[Point, ExtendedPublicKey]
    value: int
    cosigner_pubkey: Optional[Point] = None

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("refund value must be positive")

    @property
    def refundee_point(self) -> Point:
        if isinstance(self.refundee, ExtendedPublicKey):
            return self.refundee.pubkey
        return self.refundee

    def encode(self) -> bytes:
        flags = 0
        parts = []
        if self.cosigner_pubkey is not None:
            flags |= 1
            parts.append(SECP256K1.encode_point(self.cosigner_pubkey))
        if isinstance(self.refundee, ExtendedPublicKey):
            flags |= 2
            parts.append(self.refundee.encode())
        else:
            parts.append(SECP256K1.encode_point(self.refundee))
        return bytes([flags]) + b"".join(parts) + struct.pack(">Q", self.value)

    @classmethod
    def decode(cls, data: bytes) -> "RefundEntry":
        cur = ByteReader(data, "big")
        flags = cur.u8()
        if flags > 3:
            raise ValueError(f"unknown refund entry flags {flags:#x}")
        cosigner = cur.point() if flags & 1 else None
        if flags & 2:
            refundee: Union[Point, ExtendedPublicKey] = ExtendedPublicKey(
                cur.point(), cur.take(32)
            )
        else:
            refundee = cur.point()
        value = cur.u64()
        cur.done()
        return cls(refundee, value, cosigner)


@dataclass(frozen=True)
class SealedRefundTo:
    """refund_to entries encrypted to the merchant under a DH key."""

    ciphertext: bytes
    sender_pubkey: Point


def _seal_key(dh_secret: bytes) -> ChaCha20Poly1305:
    return ChaCha20Poly1305(hashlib.sha256(dh_secret).digest())


def _seal_nonce(merchant_data: bytes) -> bytes:
    return hashlib.sha256(merchant_data).digest()[:12]


def seal_refund_entries(
    entries: Sequence[RefundEntry], dh_secret: bytes, merchant_data: bytes
) -> bytes:
    plaintext = struct.pack(">H", len(entries)) + b"".join(
        _wb(e.encode()) for e in entries
    )
    return _seal_key(dh_secret).encrypt(_seal_nonce(merchant_data), plaintext, merchant_data)


def unseal_refund_entries(
    ciphertext: bytes, dh_secret: bytes, merchant_data: bytes
) -> tuple[RefundEntry, ...]:
    try:
        plaintext = _seal_key(dh_secret).decrypt(
            _seal_nonce(merchant_data), ciphertext, merchant_data
        )
    except InvalidTag as exc:
        raise UndecryptableRefundTo("sealed refund_to does not decrypt") from exc
    cur = ByteReader(plaintext, "big")
    entries = tuple(RefundEntry.decode(cur.lv()) for _ in range(cur.u16()))
    cur.done()
    return entries


@dataclass(frozen=True)
class PaymentRequest:
    merchant_pubkey: Point  # fresh per transaction; DH target for sealing
    payment_address: Point
    amount: int
    created_at: int
    expires_at: int
    memo: str
    merchant_data: bytes
    signature: bytes = b""

    def signing_digest(self) -> bytes:
        return hashlib.sha256(self._encode_unsigned()).digest()

    def _encode_unsigned(self) -> bytes:
        return (
            SECP256K1.encode_point(self.merchant_pubkey)
            + SECP256K1.encode_point(self.payment_address)
            + struct.pack(">QII", self.amount, self.created_at, self.expires_at)
            + _wstr(self.memo)
            + _wb(self.merchant_data)
        )

    def encode(self) -> bytes:
        return self._encode_unsigned() + _wb(self.signature)

    @classmethod
    def decode(cls, data: bytes) -> "PaymentRequest":
        cur = ByteReader(data, "big")
        merchant_pubkey = cur.point()
        payment_address = cur.point()
        amount, created_at, expires_at = (
            cur.u64(),
            cur.u32(),
            cur.u32(),
        )
        memo = cur.lv().decode("utf-8")
        merchant_data = cur.lv()
        signature = cur.lv()
        cur.done()
        return cls(
            merchant_pubkey,
            payment_address,
            amount,
            created_at,
            expires_at,
            memo,
            merchant_data,
            signature,
        )


@dataclass(frozen=True)
class PaymentMsg:
    merchant_data: bytes
    transactions: tuple[Transaction, ...]
    refund_to: tuple[RefundEntry, ...] = ()
    sealed_refund_to: Optional[SealedRefundTo] = None
    memo: str = ""

    def encode(self) -> bytes:
        parts = [_wb(self.merchant_data), struct.pack(">H", len(self.transactions))]
        parts.extend(_wb(serialize_tx(tx)) for tx in self.transactions)
        parts.append(struct.pack(">H", len(self.refund_to)))
        parts.extend(_wb(e.encode()) for e in self.refund_to)
        if self.sealed_refund_to is None:
            parts.append(b"\x00")
        else:
            parts.append(b"\x01")
            parts.append(_wb(self.sealed_refund_to.ciphertext))
            parts.append(SECP256K1.encode_point(self.sealed_refund_to.sender_pubkey))
        parts.append(_wstr(self.memo))
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "PaymentMsg":
        cur = ByteReader(data, "big")
        merchant_data = cur.lv()
        transactions = tuple(deserialize_tx(cur.lv()) for _ in range(cur.u16()))
        refund_to = tuple(RefundEntry.decode(cur.lv()) for _ in range(cur.u16()))
        sealed = None
        present = cur.u8()
        if present > 1:
            raise ValueError(f"sealed-presence byte {present} is not 0 or 1")
        if present:
            sealed = SealedRefundTo(cur.lv(), cur.point())
        memo = cur.lv().decode("utf-8")
        cur.done()
        return cls(merchant_data, transactions, refund_to, sealed, memo)

    def digest(self) -> bytes:
        return hashlib.sha256(self.encode()).digest()


@dataclass(frozen=True)
class PaymentAck:
    payment_copy: PaymentMsg
    memo: str
    signature: bytes

    def encode(self) -> bytes:
        return _wb(self.payment_copy.encode()) + _wstr(self.memo) + _wb(self.signature)

    @classmethod
    def decode(cls, data: bytes) -> "PaymentAck":
        cur = ByteReader(data, "big")
        payment_copy = PaymentMsg.decode(cur.lv())
        memo = cur.lv().decode("utf-8")
        signature = cur.lv()
        cur.done()
        return cls(payment_copy, memo, signature)


@dataclass(frozen=True)
class RefundAddressUpdate:
    merchant_data: bytes
    new_entries: tuple[RefundEntry, ...]

    def encode(self) -> bytes:
        parts = [_wb(self.merchant_data), struct.pack(">H", len(self.new_entries))]
        parts.extend(_wb(e.encode()) for e in self.new_entries)
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "RefundAddressUpdate":
        cur = ByteReader(data, "big")
        merchant_data = cur.lv()
        entries = tuple(RefundEntry.decode(cur.lv()) for _ in range(cur.u16()))
        cur.done()
        return cls(merchant_data, entries)


# -- key hygiene ----------------------------------------------------------------


class KeyRoleLog:
    """Global log asserting every key plays exactly one role in a scenario."""

    def __init__(self):
        self._roles: dict[bytes, tuple[str, str]] = {}
        self.conflicts: list[str] = []

    def register(self, pub: Point, role: str, context: str = "") -> None:
        enc = SECP256K1.encode_point(pub)
        prior = self._roles.get(enc)
        if prior is not None and prior[0] != role:
            self.conflicts.append(
                f"key {enc.hex()[:16]} used as {prior[0]} ({prior[1]}) and {role} ({context})"
            )
        self._roles.setdefault(enc, (role, context))


class IdentityRegistry:
    """Static stand-in for merchant certificates: name -> identity key."""

    def __init__(self):
        self._known: dict[str, Point] = {}

    def register(self, name: str, identity_pub: Point) -> None:
        self._known[name] = identity_pub

    def lookup(self, name: str) -> Point:
        return self._known[name]


# -- wallets --------------------------------------------------------------------


class MerchantWallet:
    """Deterministic key chain: key i is a pure function of the master seed.

    ``key(i)`` derives one key pair by `keygen`, the definition.
    ``public_keys()`` derives every public key at once, hashing each seed
    by keygen's own rule (`seed_scalar`) and multiplying in one
    `CurveGroup.g_mul_many` batch; once it has, ``key(i)`` raises
    `KeyMismatch` for a key whose point differs from the batch's.
    """

    def __init__(self, master_seed: bytes, size: int = 256):
        self.master_seed = master_seed
        self.size = size
        self._cache: dict[int, tuple[int, Point]] = {}
        self._public: Optional[tuple[Point, ...]] = None
        self._utxos: dict[int, list[FundingOutpoint]] = {}
        self._allocated: set[int] = set()

    def _seed(self, index: int) -> bytes:
        return self.master_seed + b"/" + index.to_bytes(4, "big")

    def key(self, index: int) -> tuple[int, Point]:
        if index not in self._cache:
            priv, pub = keygen(self._seed(index))
            if self._public is not None and self._public[index] != pub:
                raise KeyMismatch(f"wallet key {index} differs from the batch-derived key")
            self._cache[index] = (priv, pub)
        return self._cache[index]

    def public_keys(self) -> tuple[Point, ...]:
        """Every key's public point, in index order, derived once per wallet."""
        if self._public is None:
            scalars = [seed_scalar(self._seed(i)) for i in range(self.size)]
            self._public = tuple(SECP256K1.g_mul_many(scalars, [None] * self.size))
        return self._public

    def credit(self, index: int, outpoint: FundingOutpoint) -> None:
        self._utxos.setdefault(index, []).append(outpoint)

    def utxos(self, index: int) -> list[FundingOutpoint]:
        return self._utxos.get(index, [])

    def consume(self, index: int) -> list[FundingOutpoint]:
        return self._utxos.pop(index, [])

    def allocate(self, funded: bool = False, min_value: int = 0) -> int:
        """Reserve the next unused key, optionally requiring seeded funds.

        Roles that only receive prefer unfunded keys, keeping the seeded
        pool available for refund funding.
        """
        fallback = None
        for i in range(self.size):
            if i in self._allocated:
                continue
            has_funds = sum(o.value for o in self._utxos.get(i, ())) >= max(min_value, 1)
            if funded and not has_funds:
                continue
            if not funded and has_funds:
                if fallback is None:
                    fallback = i
                continue
            self._allocated.add(i)
            return i
        if not funded and fallback is not None:
            self._allocated.add(fallback)
            return fallback
        raise InsufficientMerchantFunds(
            "no unused wallet key" + (" with sufficient funds" if funded else "")
        )


class CustomerWallet:
    """Single extended key plus spendable coins held at its address."""

    def __init__(self, seed: bytes):
        self.priv, self.pub = keygen(seed)
        chain = hashlib.sha512(b"chain-code/" + seed).digest()[32:]
        self.xpub = ExtendedPublicKey(self.pub, chain)
        self.utxos: list[FundingOutpoint] = []
        self._children: dict[int, int] = {}

    def credit(self, outpoint: FundingOutpoint) -> None:
        self.utxos.append(outpoint)

    def select(self, amount: int) -> list[FundingOutpoint]:
        chosen, total = [], 0
        for utxo in self.utxos:
            chosen.append(utxo)
            total += utxo.value
            if total >= amount:
                break
        if total < amount:
            raise InsufficientFunds(f"wallet holds {total}, need {amount}")
        for utxo in chosen:
            self.utxos.remove(utxo)
        return chosen

    def child_private(self, index: int) -> int:
        """Child private key at `index`, derived once; the key pair is checked at the first."""
        if index not in self._children:
            self._children[index] = derive_child_private(
                self.priv, self.xpub, index, pair_checked=bool(self._children)
            )
        return self._children[index]

    def masked_private(self, masker_pub: Point, index: int) -> int:
        """Private key of child `index` as masked under `masker_pub`."""
        return unmask_child_private(self.child_private(index), masker_pub)

    def masked_privates(self, masker_pub: Point, indexes: Sequence[int]) -> list:
        """``masked_private(masker_pub, i)`` for each of `indexes`, as the key
        it returns or the `KeyDerivationError` it raises, unmasked in one
        `unmask_children` batch."""
        results: list = [None] * len(indexes)
        children: dict[int, int] = {}  # position -> child private key
        for pos, index in enumerate(indexes):
            try:
                children[pos] = self.child_private(index)
            except KeyDerivationError as exc:
                results[pos] = exc
        for pos, masked in zip(children, unmask_children(list(children.values()), masker_pub)):
            results[pos] = masked
        return results


# -- merchant-side sessions --------------------------------------------------------


class SessionState(enum.Enum):
    CREATED = "created"
    PAID = "paid"
    REFUND_ISSUED = "refund-issued"
    REDEEMED = "redeemed"


@dataclass
class RefundIssue:
    tc1: Transaction
    tc2s: list[Transaction]
    records: list[dispute.RefundRecord]
    # joint-refund output position -> the masked customer keys its script locks
    entry_keys: list[tuple[Point, ...]]
    # joint-refund output position -> (extended key, child index) of the
    # first key in its script: what a linkage proof for that output derives
    entry_children: dict[int, tuple[ExtendedPublicKey, int]]

    @property
    def tc2(self) -> Transaction:
        return self.tc2s[0]

    @property
    def record(self) -> dispute.RefundRecord:
        return self.records[0]


@dataclass
class MerchantSession:
    merchant_data: bytes
    request: PaymentRequest
    payment_key_index: int
    request_key_index: int
    state: SessionState = SessionState.CREATED
    entries: tuple[RefundEntry, ...] = ()
    customer_xpubs: tuple[ExtendedPublicKey, ...] = ()
    cosigner_keys: tuple[Point, ...] = ()
    main_txid: bytes = b""
    paid_height: int = 0
    values_changed: bool = False
    refund: Optional[RefundIssue] = None
    masking_privs: dict = field(default_factory=dict)  # record pos -> (m1, m2)

    @property
    def multi_signer(self) -> bool:
        return len(self.customer_xpubs) > 1


def _check_refund_entries(
    entries: Sequence[RefundEntry], amount: int, signers: Sequence[Point]
) -> None:
    """Raise BadTransaction unless the entries number at most
    `dispute.MAX_CHILD_INDEX`, refund at most `amount`, and each co-signer
    binding names a payment signer.

    Every intake of refund instructions, the payment and each later address
    update, obeys this one rule.
    """
    if len(entries) > dispute.MAX_CHILD_INDEX:
        raise BadTransaction(f"more than {dispute.MAX_CHILD_INDEX} refund entries")
    if sum(e.value for e in entries) > amount:
        raise BadTransaction("refund total exceeds the amount paid")
    for entry in entries:
        if entry.cosigner_pubkey is not None and entry.cosigner_pubkey not in signers:
            raise BadTransaction("co-signer binding is not a payment signer")


def _bound_values(entries: Sequence[RefundEntry]) -> dict[Optional[Point], int]:
    """Refund value bound to each co-signer (None for unbound entries)."""
    bindings = {e.cosigner_pubkey for e in entries}
    return {b: sum(e.value for e in entries if e.cosigner_pubkey == b) for b in bindings}


class Merchant:
    """Merchant actor: request issuance, payment intake, hardened refunds."""

    def __init__(
        self,
        name: str,
        seed: bytes,
        ledger: SimLedger,
        registry: IdentityRegistry,
        key_log: Optional[KeyRoleLog] = None,
        wallet_size: int = 256,
        lock_blocks: int = ONE_WEEK_BLOCKS,
        window_blocks: int = TWO_MONTHS_BLOCKS,
        db_path: Optional[str] = None,
    ):
        self.name = name
        self.ledger = ledger
        self.key_log = key_log if key_log is not None else KeyRoleLog()
        self.lock_blocks = lock_blocks
        self.window_blocks = window_blocks
        self.identity_priv, self.identity_pub = keygen(seed + b"/identity")
        registry.register(name, self.identity_pub)
        self.key_log.register(self.identity_pub, "merchant-identity", name)
        self.wallet = MerchantWallet(seed + b"/wallet", wallet_size)
        self._rng = random.Random(int.from_bytes(hashlib.sha256(seed).digest(), "big"))
        self.sessions: dict[bytes, MerchantSession] = {}
        self._issues: list[RefundIssue] = []  # in issue order
        self.store = dispute.RecordStore(db_path) if db_path else None

    # -- payment flow -------------------------------------------------------

    def create_request(self, item_price: int, memo: str = "") -> PaymentRequest:
        """Signed payment request with per-transaction fresh keys."""
        request_idx = self.wallet.allocate()
        payment_idx = self.wallet.allocate()
        _, request_pub = self.wallet.key(request_idx)
        _, payment_pub = self.wallet.key(payment_idx)
        self.key_log.register(request_pub, "merchant-request-key", self.name)
        self.key_log.register(payment_pub, "merchant-payment-address", self.name)
        merchant_data = self._rng.randbytes(16)
        request = PaymentRequest(
            merchant_pubkey=request_pub,
            payment_address=payment_pub,
            amount=item_price,
            created_at=self.ledger.height,
            expires_at=self.ledger.height + DEFAULT_REQUEST_TTL,
            memo=memo,
            merchant_data=merchant_data,
        )
        request = replace(
            request,
            signature=schnorr_sign(
                self.identity_priv, self.identity_pub, request.signing_digest()
            ),
        )
        self.sessions[merchant_data] = MerchantSession(
            merchant_data=merchant_data,
            request=request,
            payment_key_index=payment_idx,
            request_key_index=request_idx,
        )
        return request

    def process_payment(self, msg: PaymentMsg) -> PaymentAck:
        """Validate and broadcast the payment, store refund instructions."""
        session = self.sessions.get(msg.merchant_data)
        if session is None:
            raise UnknownSession(msg.merchant_data.hex())
        if session.state is not SessionState.CREATED:
            raise BadTransaction("payment already processed for this session")
        if not msg.transactions:
            raise BadTransaction("no transactions in payment")
        main = msg.transactions[0]
        _, payment_pub = self.wallet.key(session.payment_key_index)
        wanted = key_hash(payment_pub)
        paid = sum(
            o.value
            for o in main.outputs
            if isinstance(o.script, PayToPubkeyHash) and o.script.pubkey_hash == wanted
        )
        if paid != session.request.amount:
            raise AmountMismatch(f"paid {paid}, requested {session.request.amount}")
        xpubs = tuple(dispute.extract_all_xpubs(main))
        # one key per signer, in input order: a signer may spend several coins
        signers = signer_keys(main)
        if not xpubs or len(xpubs) != len(signers):
            raise BadTransaction(
                f"payment embeds {len(xpubs)} extended keys for {len(signers)} "
                "signers, not one per signer"
            )
        entries = msg.refund_to
        if msg.sealed_refund_to is not None:
            request_priv, _ = self.wallet.key(session.request_key_index)
            secret = dh_shared(request_priv, msg.sealed_refund_to.sender_pubkey)
            entries = unseal_refund_entries(
                msg.sealed_refund_to.ciphertext, secret, msg.merchant_data
            )
        _check_refund_entries(entries, session.request.amount, signers)
        if len(xpubs) > 1 and any(e.cosigner_pubkey is None for e in entries):
            raise BadTransaction("multi-signer refund entry lacks a co-signer")
        result = self.ledger.broadcast(main)
        if not result:
            raise BadTransaction(f"payment rejected: {result.reason} {result.detail}")
        session.entries = tuple(entries)
        session.customer_xpubs = xpubs
        session.cosigner_keys = signers
        session.main_txid = result.txid
        session.paid_height = self.ledger.height
        session.state = SessionState.PAID
        digest = hashlib.sha256(msg.encode() + b"ack").digest()
        return PaymentAck(msg, "ack", schnorr_sign(self.identity_priv, self.identity_pub, digest))

    # -- refund window ---------------------------------------------------------

    def refundable_session(self, merchant_data: bytes) -> MerchantSession:
        """The session, if it is Paid, its payment confirmed and its refund
        window open; else UnknownSession or WindowExpired."""
        session = self.sessions.get(merchant_data)
        if session is None:
            raise UnknownSession(merchant_data.hex())
        if (
            session.state is not SessionState.PAID
            or self.ledger.confirmation_height(session.main_txid) is None
            or self.ledger.height > session.paid_height + self.window_blocks
        ):
            raise WindowExpired("session is not refundable")
        return session

    def update_refund_addresses(self, update: RefundAddressUpdate) -> None:
        """Replace refund instructions from any sender; one that moves value
        between signers, by values or by bindings, marks the session."""
        session = self.refundable_session(update.merchant_data)
        _check_refund_entries(
            update.new_entries, session.request.amount, session.cosigner_keys
        )
        if _bound_values(update.new_entries) != _bound_values(session.entries):
            session.values_changed = True
        session.entries = update.new_entries

    # -- refund issuance ---------------------------------------------------------

    def reserve_funded_key(
        self, total: int, role: str
    ) -> tuple[int, Point, list[FundingOutpoint]]:
        """Take the next unused wallet key holding at least `total` for `role`.

        Returns the key pair and its funding outpoints, which are consumed:
        the caller spends them all in one `build_funded_tx` transaction.
        """
        index = self.wallet.allocate(funded=True, min_value=total)
        priv, pub = self.wallet.key(index)
        self.key_log.register(pub, role, self.name)
        return priv, pub, self.wallet.consume(index)

    def broadcast(self, tx: Transaction, what: str) -> bytes:
        """Submit a merchant-signed transaction and return its txid.

        A rejection is a BadTransaction.
        """
        result = self.ledger.broadcast(tx)
        if not result:
            raise BadTransaction(f"{what} rejected: {result.reason}")
        return result.txid

    def _lock_all_cosigners(self, session: MerchantSession) -> bool:
        if not session.multi_signer:
            return False
        if session.values_changed:
            return True
        return any(e.cosigner_pubkey is None for e in session.entries)

    def issue_refund(self, merchant_data: bytes) -> RefundIssue:
        """Issue the joint refund plus its time-locked fallback.

        Child indexes count up from 0 per extended key: entry i of a key gets
        its i-th child, the fallback gets the next one.  Entry children mask
        under the joint refund's funding key, fallback children under the
        fallback's funding key.  With several payment signers, one fallback
        transaction is issued per signer (covering that signer's entries),
        and an update that moved value between signers locks every entry to
        all of them.
        """
        session = self.refundable_session(merchant_data)
        if not session.entries:
            raise RefundNotFound("no refund entries on file")
        total = sum(e.value for e in session.entries)
        m1_priv, m1_pub, m1_funding = self.reserve_funded_key(
            total, "refund-joint-funding"
        )

        xpub_of = dict(zip(session.cosigner_keys, session.customer_xpubs))
        lock_all = self._lock_all_cosigners(session)
        next_index: dict[Point, int] = {}

        def take_index(owner: Point) -> tuple[int, Point]:
            idx, child = next_usable_index(xpub_of[owner], next_index.get(owner, 0))
            next_index[owner] = idx + 1
            return idx, child

        refund_rows = []
        entry_children: dict[int, tuple[ExtendedPublicKey, int]] = {}
        entry_owner: list[Point] = []
        for position, entry in enumerate(session.entries):
            if lock_all:
                owners = list(session.cosigner_keys)
            else:
                owners = [entry.cosigner_pubkey or session.cosigner_keys[0]]
            masked_group = []
            for owner in owners:
                idx, child = take_index(owner)
                entry_children.setdefault(position, (xpub_of[owner], idx))
                masked = mask_child(child, m1_priv)
                self.key_log.register(masked, "masked-refund-child")
                masked_group.append(masked)
            refund_rows.append((tuple(masked_group), entry.refundee_point, entry.value))
            entry_owner.append(owners[0])

        tc1 = build_refund_tc1(refund_rows, m1_funding, m1_pub, m1_priv)
        tc1_id = self.broadcast(tc1, "joint refund")

        # one fallback per signer, valued at that signer's entries
        fallback_totals: dict[Point, int] = {}
        for entry, owner in zip(session.entries, entry_owner):
            fallback_totals[owner] = fallback_totals.get(owner, 0) + entry.value
        tc2s: list[Transaction] = []
        records: list[dispute.RefundRecord] = []
        lock_height = self.ledger.height + self.lock_blocks
        for owner, owner_total in fallback_totals.items():
            m2_priv, m2_pub, m2_funding = self.reserve_funded_key(
                owner_total, "refund-fallback-funding"
            )
            _idx, child = take_index(owner)
            masked = mask_child(child, m2_priv)
            self.key_log.register(masked, "masked-fallback-child")
            tc2 = build_refund_tc2(
                masked,
                owner_total,
                m2_funding,
                m2_pub,
                m2_priv,
                lock_height,
                self.ledger.height,
            )
            tc2_id = self.broadcast(tc2, "fallback refund")
            tc2s.append(tc2)
            record = dispute.RefundRecord(session.main_txid, tc1_id, tc2_id)
            records.append(record)
            session.masking_privs[len(records) - 1] = (m1_priv, m2_priv)

        tc1_refund_total = sum(
            o.value for o in tc1.outputs if isinstance(o.script, ScriptHash)
        )
        tc2_total = sum(t.outputs[0].value for t in tc2s)
        if tc1_refund_total != tc2_total or tc1_refund_total != total:
            raise BadTransaction("refund pair values diverge")

        entry_keys = [keys for keys, _refundee, _value in refund_rows]
        session.refund = RefundIssue(tc1, tc2s, records, entry_keys, entry_children)
        session.state = SessionState.REFUND_ISSUED
        self._issues.append(session.refund)
        self._persist_records()
        return session.refund

    def issue_refund_unprotected(self, merchant_data: bytes) -> Transaction:
        """Vanilla behavior: pay the latest refund addresses directly.

        This is the baseline the hardened path replaces; it exists so attack
        scenarios can demonstrate the unprotected outcome.
        """
        session = self.refundable_session(merchant_data)
        total = sum(e.value for e in session.entries)
        priv, pub, funding = self.reserve_funded_key(total, "refund-direct-funding")
        outs = [
            TxOutput(e.value, PayToPubkeyHash(key_hash(e.refundee_point)))
            for e in session.entries
        ]
        tx = build_funded_tx(outs, funding, (priv, pub))
        self.broadcast(tx, "direct refund")
        session.state = SessionState.REFUND_ISSUED
        return tx

    # -- monitoring -----------------------------------------------------------

    @property
    def records(self) -> list[dispute.RefundRecord]:
        """Every issued refund's records, in issue order."""
        return [record for issue in self._issues for record in issue.records]

    def monitor(self) -> None:
        """Fill empty redeem slots of issued refunds by `dispute.fill_redeem`.

        Safe while a refund pair still waits in the mempool: its slots stay
        empty.  The record file is rewritten once, and only if a slot was
        filled.
        """
        changed = False
        for session in self.sessions.values():
            issue = session.refund
            records = issue.records if issue else []
            empty = [i for i, r in enumerate(records) if r.redeem_txid == bytes(32)]
            if not empty:
                continue
            joint = dispute.joint_spenders(self.ledger, issue.record.refund_tc1_txid)
            for i in empty:
                updated = dispute.fill_redeem(records[i], joint, self.ledger)
                if updated != records[i]:
                    records[i] = updated
                    session.state = SessionState.REDEEMED
                    changed = True
        if changed:
            self._persist_records()

    def _persist_records(self) -> None:
        if self.store is not None:
            self.store.rewrite(self.records)

    def linkage_proof(self, merchant_data: bytes) -> dispute.LinkageProof:
        """Disclose the per-session masking key and build the proof.

        The proof derives the signer and child index that `issue_refund`
        assigned to the joint-refund output the redeem spent.
        """
        session = self.sessions.get(merchant_data)
        if session is None or session.refund is None:
            raise UnknownSession("no refund issued for this session")
        record = session.refund.records[0]
        m1_priv, _m2 = session.masking_privs[0]
        return dispute.generate_linkage_proof(
            record, m1_priv, self.ledger, session.refund.entry_children
        )


# -- customer side -----------------------------------------------------------------


@dataclass(frozen=True)
class LocatedRefund:
    """An output that one of the customer's masked children unlocks."""

    tx: Transaction
    txid: bytes
    output_index: int
    masked_priv: int
    masked_point: Point


class Customer:
    """Customer actor: pays requests, discovers and redeems its refunds."""

    def __init__(
        self,
        name: str,
        seed: bytes,
        ledger: SimLedger,
        trusted_identity: Point,
    ):
        self.name = name
        self.ledger = ledger
        self.trusted_identity = trusted_identity
        self.wallet = CustomerWallet(seed)
        _, self.fallback_pub = keygen(seed + b"/fallback-dest")

    def verify_request(self, request: PaymentRequest) -> None:
        if not schnorr_verify(
            self.trusted_identity, request.signature, request.signing_digest()
        ):
            raise RequestBadSignature("request signature invalid")
        if self.ledger.height > request.expires_at:
            raise RequestExpired(f"request expired at {request.expires_at}")

    def pay(
        self,
        request: PaymentRequest,
        refund_plan: Sequence[RefundEntry],
        encrypt: bool = False,
        memo: str = "",
    ) -> PaymentMsg:
        """Pay the whole amount alone; see `pay_joint`."""
        return pay_joint(request, [(self, request.amount)], refund_plan, encrypt, memo)

    # -- refund discovery ------------------------------------------------------

    def _since_payment(self) -> Iterator[tuple[bytes, Transaction]]:
        """Confirmed (txid, tx) from the first that embeds self's extended key.

        Masking a child needs the extended key, which reaches anyone else
        only in self's payment, and a refund is issued only once that payment
        has confirmed.  So every refund to self confirms after the payment,
        and chain order keeps the first match the same.  Decoders accept only
        canonical encodings, so equal bytes are equal keys.
        """
        needle = self.wallet.xpub.encode()

        def before_payment(item: tuple[int, bytes, Transaction]) -> bool:
            return not any(
                isinstance(out.script, DataCarrier) and out.script.payload == needle
                for out in item[2].outputs
            )

        return (
            (tid, tx)
            for _height, tid, tx in dropwhile(before_payment, self.ledger.all_confirmed())
        )

    def _locate(
        self,
        txs: Iterable[tuple[bytes, Transaction]],
        shape: dispute.RefundShape,
        lookup: Callable[[Point], bytes],
    ) -> Optional[LocatedRefund]:
        """First unspent output among ``txs`` (txid, tx) that a masked child of self unlocks.

        Candidates are the ``shape`` refunds, by `dispute.refund_locks`;
        ``lookup`` is the lock a masked child point would carry.
        Under each funder of a candidate, children 0..`dispute.MAX_CHILD_INDEX`
        are unmasked in `dispute.child_sweep` order.  A repeat customer's
        earlier refunds are spent and skipped; if every output found is
        spent, the first is returned, for the claim to report as already
        spent.
        """
        first_spent = None
        for tid, tx in txs:
            locks = dispute.refund_locks(tx, shape)
            if not locks:
                continue
            for funder in signer_keys(tx):
                for _index, masked_priv in dispute.child_sweep(
                    partial(self.wallet.masked_private, funder),
                    partial(self.wallet.masked_privates, funder),
                ):
                    if isinstance(masked_priv, KeyDerivationError):
                        raise masked_priv
                    masked_point = SECP256K1.g_mul(masked_priv)
                    out_idx = locks.get(lookup(masked_point))
                    if out_idx is None:
                        continue
                    found = LocatedRefund(tx, tid, out_idx, masked_priv, masked_point)
                    # a pending transaction's outputs exist only once it confirms
                    if not (
                        self.ledger.output_exists(tid, out_idx)
                        and self.ledger.is_spent(tid, out_idx)[0]
                    ):
                        return found
                    first_spent = first_spent or found
        return first_spent

    def find_joint_refund(self, refundee_pub: Point) -> Optional[LocatedRefund]:
        """Scan the chain for a joint refund locking self to the refundee."""
        return self._locate(
            self._since_payment(),
            dispute.RefundShape.JOINT,
            lambda point: NOfNScript((point, refundee_pub)).script_hash(),
        )

    def find_fallback(self) -> Optional[LocatedRefund]:
        """Scan the chain for the time-locked fallback addressed to self."""
        return self._locate(self._since_payment(), dispute.RefundShape.FALLBACK, key_hash)

    # -- redemption ---------------------------------------------------------------

    def _claim(
        self, what: str, located: LocatedRefund, cosigners: list[tuple[int, Point]],
        dest: Point, reveal_script: Optional[NOfNScript] = None,
    ) -> Transaction:
        """Spend a located refund output to `dest`, signed with its masked child."""
        spent, _ = self.ledger.is_spent(located.txid, located.output_index)
        if spent:
            raise AlreadySpent(f"{what} already claimed")
        signers = [(located.masked_priv, located.masked_point)] + cosigners
        redeem = build_redeem(located.tx, located.output_index, signers, dest, reveal_script)
        result = self.ledger.broadcast(redeem)
        if not result:
            raise BadTransaction(f"{what} redeem rejected: {result.reason}")
        return redeem

    def redeem_with_refundee(
        self, refundee_priv: int, refundee_pub: Optional[Point] = None
    ) -> Transaction:
        """Jointly redeem the refund with a collaborating refundee."""
        if refundee_pub is None:
            refundee_pub = SECP256K1.g_mul(refundee_priv)
        located = self.find_joint_refund(refundee_pub)
        if located is None:
            raise MissingSigner("no joint refund locks self to this refundee")
        script = NOfNScript((located.masked_point, refundee_pub))
        return self._claim(
            "joint refund", located, [(refundee_priv, refundee_pub)], refundee_pub, script
        )

    def redeem_fallback(self) -> Transaction:
        """Claim the time-locked fallback once its lock height has passed."""
        located = self.find_fallback()
        if located is None:
            # a fallback waits in the mempool until its lock height passes
            if self._locate(
                self.ledger.mempool.items(), dispute.RefundShape.FALLBACK, key_hash
            ):
                raise Locked("fallback refund still time-locked")
            raise RefundNotFound("no fallback refund addressed to this wallet")
        return self._claim("fallback", located, [], self.fallback_pub)


def check_payment_plan(
    amount: int, refund_values: Sequence[int], shares: Sequence[int] = ()
) -> None:
    """Raise ValueError unless co-payers' shares, if any, sum to `amount`
    and the refunds return at most `amount`."""
    if shares and sum(shares) != amount:
        raise ValueError("shares must sum to the requested amount")
    if sum(refund_values) > amount:
        raise ValueError("refund plan exceeds the payment amount")


def pay_joint(
    request: PaymentRequest,
    participants: Sequence[tuple[Customer, int]],
    refund_plan: Sequence[RefundEntry],
    encrypt: bool = False,
    memo: str = "",
) -> PaymentMsg:
    """Build the payment message; the merchant broadcasts the transaction.

    Every payment, by one customer or several co-payers, is built here.
    Each participant (customer, share) funds its share from its own coins
    and gets the surplus of the coins it selected back as change, credited
    to its wallet; if any participant lacks its share, InsufficientFunds
    is raised and every wallet keeps the coins it held.  The transaction
    embeds every participant's extended key, in order; with several, each
    refund entry carries a co-signer binding naming the participant it
    belongs to.  The first participant verifies the request and, with
    `encrypt`, seals the refund entries to the merchant.
    """
    lead = participants[0][0]
    lead.verify_request(request)
    entries = tuple(refund_plan)
    check_payment_plan(
        request.amount, [e.value for e in entries], [share for _c, share in participants]
    )
    funding: list[FundingOutpoint] = []
    signers: list[tuple[int, Point]] = []
    change: list[tuple[CustomerWallet, int]] = []
    held = [(c.wallet, list(c.wallet.utxos)) for c, _share in participants]
    try:
        for customer, share in participants:
            wallet = customer.wallet
            picked = wallet.select(share)
            funding.extend(picked)
            signers.extend([(wallet.priv, wallet.pub)] * len(picked))
            surplus = sum(p.value for p in picked) - share
            if surplus:
                change.append((wallet, surplus))
    except InsufficientFunds:
        for wallet, utxos in held:
            wallet.utxos[:] = utxos
        raise
    main = build_main_tc(
        funding,
        request.payment_address,
        request.amount,
        [customer.wallet.xpub for customer, _share in participants],
        signers,
        [(wallet.pub, value) for wallet, value in change],
    )
    for position, (wallet, value) in enumerate(change, len(main.outputs) - len(change)):
        wallet.credit(FundingOutpoint(txid(main), position, value))
    if not encrypt:
        return PaymentMsg(request.merchant_data, (main,), entries, memo=memo)
    secret = dh_shared(lead.wallet.priv, request.merchant_pubkey)
    sealed = seal_refund_entries(entries, secret, request.merchant_data)
    return PaymentMsg(
        request.merchant_data, (main,),
        sealed_refund_to=SealedRefundTo(sealed, lead.wallet.pub), memo=memo,
    )
