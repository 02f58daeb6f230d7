"""Payment-protocol messages and the merchant/customer actors.

The message flow follows the classic three-message payment protocol
(request, payment, acknowledgment) with a hardened refund path: the payment
embeds the customer's extended public key, and a refund is issued as a pair
of transactions — a joint n-of-n refund spendable only by customer and
refundee together, plus a time-locked fallback spendable by the customer
alone.  Both lock to DH-masked child keys of the embedded extended key, so
chain observers cannot link refunds to payments.

Refund addresses may be replaced during the refund window, deliberately even
over an unauthenticated email channel: the joint lock makes a hijacked
address update worthless to the hijacker.

Sessions move through Created -> Paid -> RefundIssued -> Redeemed, with
Expired reachable once the refund window lapses; "refundable" means Paid,
payment confirmed, window still open.
"""

from __future__ import annotations

import enum
import hashlib
import random
import struct
from dataclasses import dataclass, field, replace
from itertools import dropwhile
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from . import dispute
from .curve import SECP256K1, Point
from .keys import (
    ChildUnmasker,
    ExtendedPublicKey,
    derive_child_private,
    dh_shared,
    keygen,
    mask_child,
    next_usable_index,
)
from .ledger import SimLedger
from .transactions import (
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
    txid,
)

ONE_WEEK_BLOCKS = 1008
TWO_MONTHS_BLOCKS = 8640
DEFAULT_REQUEST_TTL = 100
MAX_CHILD_SCAN = 16


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


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated message")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def lv(self) -> bytes:
        (n,) = struct.unpack(">H", self.take(2))
        return self.take(n)

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def point(self) -> Point:
        return SECP256K1.decode_point(self.take(1 + SECP256K1.coord_bytes))

    def done(self) -> None:
        if self.pos != len(self.data):
            raise ValueError("trailing bytes")


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
        cur = _Cursor(data)
        flags = cur.u8()
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
    cur = _Cursor(plaintext)
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
        cur = _Cursor(data)
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
        cur = _Cursor(data)
        merchant_data = cur.lv()
        transactions = tuple(deserialize_tx(cur.lv()) for _ in range(cur.u16()))
        refund_to = tuple(RefundEntry.decode(cur.lv()) for _ in range(cur.u16()))
        sealed = None
        if cur.u8():
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
        cur = _Cursor(data)
        payment_copy = PaymentMsg.decode(cur.lv())
        memo = cur.lv().decode("utf-8")
        signature = cur.lv()
        cur.done()
        return cls(payment_copy, memo, signature)


class UpdateChannel(enum.Enum):
    AUTHENTICATED = 1
    EMAIL = 2  # deliberately unauthenticated


@dataclass(frozen=True)
class RefundAddressUpdate:
    merchant_data: bytes
    new_entries: tuple[RefundEntry, ...]
    channel: UpdateChannel

    def encode(self) -> bytes:
        parts = [_wb(self.merchant_data), bytes([self.channel.value])]
        parts.append(struct.pack(">H", len(self.new_entries)))
        parts.extend(_wb(e.encode()) for e in self.new_entries)
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "RefundAddressUpdate":
        cur = _Cursor(data)
        merchant_data = cur.lv()
        channel = UpdateChannel(cur.u8())
        entries = tuple(RefundEntry.decode(cur.lv()) for _ in range(cur.u16()))
        cur.done()
        return cls(merchant_data, entries, channel)


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
    """Deterministic key chain: key i is a pure function of the master seed."""

    def __init__(self, master_seed: bytes, size: int = 256):
        self.master_seed = master_seed
        self.size = size
        self._cache: dict[int, tuple[int, Point]] = {}
        self._utxos: dict[int, list[FundingOutpoint]] = {}
        self._allocated: set[int] = set()

    def key(self, index: int) -> tuple[int, Point]:
        if index not in self._cache:
            self._cache[index] = keygen(
                self.master_seed + b"/" + index.to_bytes(4, "big")
            )
        return self._cache[index]

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

    def masked_private(self, unmasker: ChildUnmasker, index: int) -> int:
        """Private key of child `index` as masked under the unmasker's masker key.

        Keep one unmasker per masker key across the indexes tried under it.
        """
        return unmasker.unmask(self.child_private(index))


# -- merchant-side sessions --------------------------------------------------------


class SessionState(enum.Enum):
    CREATED = "created"
    PAID = "paid"
    REFUND_ISSUED = "refund-issued"
    REDEEMED = "redeemed"
    EXPIRED = "expired"


@dataclass
class RefundIssue:
    tc1: Transaction
    tc2s: list[Transaction]
    records: list[dispute.RefundRecord]
    entry_outputs: list[tuple[int, RefundEntry, tuple[Point, ...]]]
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
    email_value_changed: bool = False
    refund: Optional[RefundIssue] = None
    masking_privs: dict = field(default_factory=dict)  # record pos -> (m1, m2)

    @property
    def multi_signer(self) -> bool:
        return len(self.customer_xpubs) > 1


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
        self.records: list[dispute.RefundRecord] = []
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
        if not xpubs:
            raise BadTransaction("payment embeds no extended key")
        entries = msg.refund_to
        if msg.sealed_refund_to is not None:
            request_priv, _ = self.wallet.key(session.request_key_index)
            secret = dh_shared(request_priv, msg.sealed_refund_to.sender_pubkey)
            entries = unseal_refund_entries(
                msg.sealed_refund_to.ciphertext, secret, msg.merchant_data
            )
        if sum(e.value for e in entries) > session.request.amount:
            raise BadTransaction("refund total exceeds the amount paid")
        # one key per signer, in input order: a signer may spend several coins
        signer_keys = tuple(
            dict.fromkeys(pub for txin in main.inputs for _sig, pub in txin.witness)
        )
        if len(xpubs) > 1:
            for entry in entries:
                if entry.cosigner_pubkey is None:
                    raise BadTransaction("multi-signer refund entry lacks a co-signer")
                if entry.cosigner_pubkey not in signer_keys:
                    raise BadTransaction("co-signer binding is not a payment signer")
        result = self.ledger.broadcast(main)
        if not result:
            raise BadTransaction(f"payment rejected: {result.reason} {result.detail}")
        session.entries = tuple(entries)
        session.customer_xpubs = xpubs
        session.cosigner_keys = signer_keys
        session.main_txid = result.txid
        session.paid_height = self.ledger.height
        session.state = SessionState.PAID
        ack = PaymentAck(payment_copy=msg, memo="ack", signature=b"")
        digest = hashlib.sha256(ack.payment_copy.encode() + ack.memo.encode()).digest()
        return replace(
            ack, signature=schnorr_sign(self.identity_priv, self.identity_pub, digest)
        )

    # -- refund window ---------------------------------------------------------

    def refundable(self, merchant_data: bytes) -> bool:
        session = self.sessions.get(merchant_data)
        if session is None or session.state is not SessionState.PAID:
            return False
        if self.ledger.confirmation_height(session.main_txid) is None:
            return False
        return self.ledger.height <= session.paid_height + self.window_blocks

    def session_state(self, merchant_data: bytes) -> SessionState:
        session = self.sessions.get(merchant_data)
        if session is None:
            raise UnknownSession(merchant_data.hex())
        if (
            session.state is SessionState.PAID
            and self.ledger.height > session.paid_height + self.window_blocks
        ):
            return SessionState.EXPIRED
        return session.state

    def update_refund_addresses(self, update: RefundAddressUpdate) -> bool:
        """Replace refund instructions; the newest entries win, email included."""
        session = self.sessions.get(update.merchant_data)
        if session is None:
            raise UnknownSession(update.merchant_data.hex())
        if not self.refundable(update.merchant_data):
            raise WindowExpired("session is not refundable")
        if update.channel is UpdateChannel.EMAIL:
            old_values = sorted(e.value for e in session.entries)
            new_values = sorted(e.value for e in update.new_entries)
            if old_values != new_values:
                session.email_value_changed = True
        session.entries = update.new_entries
        return True

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
        if session.email_value_changed:
            return True
        return any(e.cosigner_pubkey is None for e in session.entries)

    def issue_refund(self, merchant_data: bytes) -> RefundIssue:
        """Issue the joint refund plus its time-locked fallback.

        Child indexes count up from 0 per extended key: entry i of a key gets
        its i-th child, the fallback gets the next one.  Entry children mask
        under the joint refund's funding key, fallback children under the
        fallback's funding key.  With several payment signers, one fallback
        transaction is issued per signer (covering that signer's entries),
        and an email-tampered value locks every entry to all signers.
        """
        session = self.sessions.get(merchant_data)
        if session is None:
            raise UnknownSession(merchant_data.hex())
        if not self.refundable(merchant_data):
            raise WindowExpired("session is not refundable")
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
        entry_outputs = []
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
            entry_outputs.append((position, entry, tuple(masked_group)))
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

        session.refund = RefundIssue(tc1, tc2s, records, entry_outputs, entry_children)
        session.state = SessionState.REFUND_ISSUED
        self.records.extend(records)
        self._persist_records()
        return session.refund

    def issue_refund_unprotected(self, merchant_data: bytes) -> Transaction:
        """Vanilla behavior: pay the latest refund addresses directly.

        This is the baseline the hardened path replaces; it exists so attack
        scenarios can demonstrate the unprotected outcome.
        """
        session = self.sessions.get(merchant_data)
        if session is None:
            raise UnknownSession(merchant_data.hex())
        if not self.refundable(merchant_data):
            raise WindowExpired("session is not refundable")
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

    def monitor(self) -> None:
        """Fill redeem slots from confirmed spends of issued refunds.

        The earliest confirmed spend (ties broken by txid) of a record's
        joint-refund outputs or fallback output becomes its redeem entry.
        The record file is rewritten once, and only if a slot was filled.
        """
        changed = False
        for session in self.sessions.values():
            issue = session.refund
            if issue is None:
                continue
            # map each record to the entry outputs covered by its fallback owner
            for pos, record in enumerate(issue.records):
                if record.redeem_txid != bytes(32):
                    continue
                tc1_id, tc2_id = record.refund_tc1_txid, record.refund_tc2_txid
                candidates = []
                for out_idx, out in enumerate(issue.tc1.outputs):
                    if isinstance(out.script, ScriptHash):
                        spent, spender = self.ledger.is_spent(tc1_id, out_idx)
                        if spent:
                            candidates.append(spender)
                if self.ledger.output_exists(tc2_id, 0):  # confirmed once lock passes
                    spent, spender = self.ledger.is_spent(tc2_id, 0)
                    if spent:
                        candidates.append(spender)
                if candidates:
                    chosen = min(
                        candidates,
                        key=lambda t: (self.ledger.confirmation_height(t), t),
                    )
                    updated = record.with_redeem(chosen)
                    issue.records[pos] = updated
                    self.records[self.records.index(record)] = updated
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


def _fallback_locks(tx: Transaction) -> dict[bytes, int]:
    """Key hash -> output position of a time-locked transaction's pay-to-key outputs."""
    return {
        out.script.pubkey_hash: i
        for i, out in enumerate(tx.outputs)
        if isinstance(out.script, PayToPubkeyHash) and tx.lock_height
    }


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
        """Build the payment message; the merchant broadcasts the transaction."""
        self.verify_request(request)
        entries = tuple(refund_plan)
        check_payment_plan(request.amount, [e.value for e in entries])
        funding = self.wallet.select(request.amount)
        main = build_main_tc(
            funding,
            request.payment_address,
            request.amount,
            self.wallet.xpub,
            [(self.wallet.priv, self.wallet.pub)] * len(funding),
            change_to=self.wallet.pub,
        )
        change = sum(f.value for f in funding) - request.amount
        if change > 0:
            self.wallet.credit(FundingOutpoint(txid(main), len(main.outputs) - 1, change))
        sealed = None
        wire_entries: tuple[RefundEntry, ...] = entries
        if encrypt:
            secret = dh_shared(self.wallet.priv, request.merchant_pubkey)
            sealed = SealedRefundTo(
                seal_refund_entries(entries, secret, request.merchant_data),
                self.wallet.pub,
            )
            wire_entries = ()
        return PaymentMsg(
            merchant_data=request.merchant_data,
            transactions=(main,),
            refund_to=wire_entries,
            sealed_refund_to=sealed,
            memo=memo,
        )

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
        targets: Callable[[Transaction], dict[bytes, int]],
        lookup: Callable[[Point], bytes],
    ) -> Optional[LocatedRefund]:
        """First unspent output among ``txs`` (txid, tx) that a masked child of self unlocks.

        ``targets`` maps a transaction's candidate locks to their output
        positions; ``lookup`` is the lock a masked child point would carry.
        Under each funder of a candidate, children 0..MAX_CHILD_SCAN are tried,
        through one unmasker per funder.  A repeat customer's earlier refunds
        are spent and skipped; if every output found is spent, the first is
        returned, for the claim to report as already spent.
        """
        unmaskers: dict[Point, ChildUnmasker] = {}
        first_spent = None
        for tid, tx in txs:
            locks = targets(tx)
            if not locks:
                continue
            funders = {pub for txin in tx.inputs for _sig, pub in txin.witness}
            for funder in funders:
                unmasker = unmaskers.setdefault(funder, ChildUnmasker(funder))
                for index in range(MAX_CHILD_SCAN + 1):
                    masked_priv = self.wallet.masked_private(unmasker, index)
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
            lambda tx: {
                out.script.script_hash: i
                for i, out in enumerate(tx.outputs)
                if isinstance(out.script, ScriptHash)
            },
            lambda point: NOfNScript((point, refundee_pub)).script_hash(),
        )

    def find_fallback(self) -> Optional[LocatedRefund]:
        """Scan the chain for the time-locked fallback addressed to self."""
        return self._locate(self._since_payment(), _fallback_locks, key_hash)

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
            if self._locate(self.ledger.mempool.items(), _fallback_locks, key_hash):
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
    memo: str = "",
) -> PaymentMsg:
    """Multi-party payment: several wallets co-fund one payment transaction.

    Each participant contributes a share of the amount; the transaction
    embeds every participant's extended key, and refund entries carry
    co-signer bindings naming the participant each refund belongs to.
    """
    lead = participants[0][0]
    lead.verify_request(request)
    check_payment_plan(
        request.amount, [e.value for e in refund_plan], [share for _c, share in participants]
    )
    funding: list[FundingOutpoint] = []
    signers: list[tuple[int, Point]] = []
    xpubs = []
    for customer, share in participants:
        picked = customer.wallet.select(share)
        if sum(p.value for p in picked) != share:
            raise InsufficientFunds("joint payments need exact funding per share")
        funding.extend(picked)
        signers.extend(
            [(customer.wallet.priv, customer.wallet.pub)] * len(picked)
        )
        xpubs.append(customer.wallet.xpub)
    main = build_main_tc(
        funding,
        request.payment_address,
        request.amount,
        xpubs[0],
        signers,
        extra_xpubs=xpubs[1:],
    )
    return PaymentMsg(
        merchant_data=request.merchant_data,
        transactions=(main,),
        refund_to=tuple(refund_plan),
        memo=memo,
    )
