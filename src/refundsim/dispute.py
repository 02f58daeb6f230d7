"""Implicit logging: fixed-size refund records, linkage proofs, recovery.

The merchant's database holds one 128-byte record per protocol run: the four
transaction ids (payment, joint refund, fallback refund, redeem).  All
evidentiary content lives on the chain, so a lost database is rebuilt by
re-enumerating the merchant's deterministic wallet keys and scanning the
ledger.  A linkage proof discloses one per-session masking key and lets a
third party replay the child-key derivation from on-chain data alone.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

from .curve import SECP256K1, Point
from .keys import (
    ChildMasker,
    DegenerateChild,
    ExtendedPublicKey,
    KeyDerivationError,
    derive_child_public,
    mask_child,
)
from .ledger import SimLedger
from .transactions import (
    DataCarrier,
    NOfNScript,
    PayToPubkeyHash,
    ScriptHash,
    Transaction,
    key_hash,
    signer_keys,
)

RECORD_SIZE = 128
_ZERO_ID = bytes(32)
# a signer's n <= 16 refund entries take children 0..n-1 and its fallback child n
MAX_CHILD_INDEX = 16


class NotRedeemed(Exception):
    """No joint redemption exists to prove."""


class ChainDataMissing(Exception):
    """A transaction named by a record is not on the ledger."""


class MaskCheckFailed(Exception):
    """A masked key recovery accepted disagrees with `mask_child`."""


@dataclass(frozen=True)
class RefundRecord:
    """Four transaction ids; the redeem slot is zero until observed."""

    main_txid: bytes
    refund_tc1_txid: bytes
    refund_tc2_txid: bytes
    redeem_txid: bytes = _ZERO_ID

    def __post_init__(self):
        for tid in (self.main_txid, self.refund_tc1_txid, self.refund_tc2_txid, self.redeem_txid):
            if len(tid) != 32:
                raise ValueError("transaction ids are 32 bytes")

    def serialize(self) -> bytes:
        return self.main_txid + self.refund_tc1_txid + self.refund_tc2_txid + self.redeem_txid

    @classmethod
    def deserialize(cls, data: bytes) -> "RefundRecord":
        if len(data) != RECORD_SIZE:
            raise ValueError(f"record must be {RECORD_SIZE} bytes")
        return cls(data[0:32], data[32:64], data[64:96], data[96:128])

    def with_redeem(self, redeem_txid: bytes) -> "RefundRecord":
        return RefundRecord(
            self.main_txid, self.refund_tc1_txid, self.refund_tc2_txid, redeem_txid
        )


def record_size(record: RefundRecord) -> int:
    """Stored bytes per protocol run; constant regardless of refundee count."""
    return len(record.serialize())


@dataclass(frozen=True)
class StorageModel:
    """Parameters of the endorsement-signature alternative's storage cost."""

    n_refundees: int
    endorsement_sig_size: int  # L_S
    payment_msg_size: int  # L_pay, memo + payment request, up to 50 kB

    def __post_init__(self):
        if self.n_refundees < 1:
            raise ValueError("need at least one refundee")
        if self.payment_msg_size > 50_000:
            raise ValueError("payment message size capped at 50,000 bytes")


def mccorry_storage(model: StorageModel) -> int:
    """Merchant-side bytes for the signed-endorsement scheme: 210 + 42n + L_S + L_pay."""
    return 210 + 42 * model.n_refundees + model.endorsement_sig_size + model.payment_msg_size


class RecordStore:
    """Flat file of 128-byte records; `rewrite` replaces it, `append` adds one."""

    def __init__(self, path: str):
        self.path = path

    def append(self, record: RefundRecord) -> None:
        """Add one record after the last whole one, dropping any torn tail."""
        with open(self.path, "ab") as fh:
            fh.truncate(fh.tell() - fh.tell() % RECORD_SIZE)
            fh.write(record.serialize())

    def load(self) -> list[RefundRecord]:
        if not os.path.exists(self.path):
            return []
        with open(self.path, "rb") as fh:
            data = fh.read()
        if len(data) % RECORD_SIZE:
            data = data[: len(data) - len(data) % RECORD_SIZE]  # drop torn tail
        return [
            RefundRecord.deserialize(data[i : i + RECORD_SIZE])
            for i in range(0, len(data), RECORD_SIZE)
        ]

    def rewrite(self, records: list[RefundRecord]) -> None:
        """Replace the records via a synced temporary file renamed over the old one.

        The directory is synced after the rename, so a crash cannot undo it.
        """
        tmp = self.path + ".tmp"
        try:
            with open(tmp, "wb") as fh:
                for record in records:
                    fh.write(record.serialize())
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
            dir_fd = os.open(os.path.dirname(os.path.abspath(self.path)), os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise

    def wipe(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)


# -- linkage proofs -------------------------------------------------------------


@dataclass(frozen=True)
class LinkageProof:
    """Replayable transcript tying a payment to a redeemed joint refund."""

    record: RefundRecord
    child_index: int
    masking_priv: int  # disclosed per-session key; fresh keys keep other sessions dark
    customer_xpub: ExtendedPublicKey
    child_point: Point
    masked_point: Point
    script: NOfNScript


@dataclass(frozen=True)
class ProofCheck:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def extract_xpub(tx: Transaction) -> Optional[ExtendedPublicKey]:
    """First well-formed extended key embedded in a data-carrier output."""
    for xpub in extract_all_xpubs(tx):
        return xpub
    return None


def extract_all_xpubs(tx: Transaction) -> list[ExtendedPublicKey]:
    found = []
    for out in tx.outputs:
        if isinstance(out.script, DataCarrier):
            try:
                found.append(ExtendedPublicKey.decode(out.script.payload))
            except ValueError:
                continue
    return found


def generate_linkage_proof(
    record: RefundRecord,
    masking_priv: int,
    ledger: SimLedger,
    children: Mapping[int, tuple[ExtendedPublicKey, int]],
) -> LinkageProof:
    """Build the derivation transcript for a jointly redeemed refund.

    Requires the record's redeem slot to name a confirmed spend of the joint
    refund transaction.  ``children`` maps each joint-refund output position
    to the extended key and child index its script's first key was derived
    from, as the issuer assigned them; the proof derives the entry of the
    spent output.
    """
    if record.redeem_txid == _ZERO_ID:
        raise NotRedeemed("record has no redeem transaction")
    main = ledger.get_transaction(record.main_txid)
    tc1 = ledger.get_transaction(record.refund_tc1_txid)
    redeem = ledger.get_transaction(record.redeem_txid)
    if main is None or tc1 is None or redeem is None:
        raise ChainDataMissing("record names transactions absent from the ledger")
    spend = next(
        (i for i in redeem.inputs if i.prev_txid == record.refund_tc1_txid), None
    )
    if spend is None or spend.reveal_script is None:
        raise NotRedeemed("redeem transaction does not spend the joint refund")
    customer_xpub, index = children[spend.prev_index]
    child = derive_child_public(customer_xpub, index)
    masked = mask_child(child, masking_priv)
    return LinkageProof(
        record=record,
        child_index=index,
        masking_priv=masking_priv,
        customer_xpub=customer_xpub,
        child_point=child,
        masked_point=masked,
        script=spend.reveal_script,
    )


def verify_linkage_proof(proof: LinkageProof, ledger: SimLedger) -> ProofCheck:
    """Replay a linkage proof against the chain.

    True only when all four named transactions are confirmed, the derivation
    transcript reproduces exactly from on-chain data, the disclosed masking
    key matches the joint refund's funding key, and the redeem spends the
    committed output with signatures under both script keys.
    """
    record = proof.record
    main = ledger.get_transaction(record.main_txid)
    tc1 = ledger.get_transaction(record.refund_tc1_txid)
    tc2 = ledger.get_transaction(record.refund_tc2_txid)
    redeem = ledger.get_transaction(record.redeem_txid)
    if main is None or tc1 is None or tc2 is None or redeem is None:
        return ProofCheck(False, "chain-data-missing")
    if proof.customer_xpub not in extract_all_xpubs(main):
        return ProofCheck(False, "xpub-not-in-payment")
    try:
        child = derive_child_public(proof.customer_xpub, proof.child_index)
    except DegenerateChild:
        return ProofCheck(False, "degenerate-child")
    if child != proof.child_point:
        return ProofCheck(False, "child-mismatch")
    masked = mask_child(child, proof.masking_priv)
    if masked != proof.masked_point:
        return ProofCheck(False, "mask-mismatch")
    # the disclosed key must be the joint refund's own funding key
    masking_pub = SECP256K1.g_mul(proof.masking_priv)
    if masking_pub not in signer_keys(tc1):
        return ProofCheck(False, "masking-key-not-tc1-funder")
    if masked not in proof.script.keys:
        return ProofCheck(False, "masked-key-not-in-script")
    spend = next(
        (i for i in redeem.inputs if i.prev_txid == record.refund_tc1_txid), None
    )
    if spend is None:
        return ProofCheck(False, "redeem-does-not-spend-tc1")
    out = tc1.outputs[spend.prev_index]
    if not isinstance(out.script, ScriptHash):
        return ProofCheck(False, "spent-output-not-script-hash")
    if proof.script.script_hash() != out.script.script_hash:
        return ProofCheck(False, "script-commitment-mismatch")
    if spend.reveal_script != proof.script:
        return ProofCheck(False, "revealed-script-differs")
    witness_keys = tuple(pub for _sig, pub in spend.witness)
    if witness_keys != proof.script.keys:
        return ProofCheck(False, "missing-cosignature")
    spent, spender = ledger.is_spent(record.refund_tc1_txid, spend.prev_index)
    if not spent or spender != record.redeem_txid:
        return ProofCheck(False, "redeem-not-confirmed-spender")
    return ProofCheck(True)


# -- reading a refund pair off the chain ----------------------------------------


class RefundShape(enum.Enum):
    JOINT = "joint"
    FALLBACK = "fallback"


def refund_shape(tx: Transaction) -> Optional[RefundShape]:
    """Which refund a merchant-funded transaction is, confirmed or pending.

    A joint refund pays script hashes; a fallback is time-locked.
    """
    if any(isinstance(out.script, ScriptHash) for out in tx.outputs):
        return RefundShape.JOINT
    if tx.lock_height > 0:
        return RefundShape.FALLBACK
    return None


def refund_locks(tx: Transaction, shape: RefundShape) -> dict[bytes, int]:
    """Lock -> output position for each locked output, if ``tx`` is a ``shape`` refund.

    A joint refund locks script hashes and a fallback key hashes; any
    other transaction, a refund of the other shape included, locks nothing.
    """
    if refund_shape(tx) is not shape:
        return {}
    joint = shape is RefundShape.JOINT
    return {
        out.script.script_hash if joint else out.script.pubkey_hash: i
        for i, out in enumerate(tx.outputs)
        if isinstance(out.script, ScriptHash if joint else PayToPubkeyHash)
    }


def joint_spenders(ledger: SimLedger, tc1_id: bytes) -> list[bytes]:
    """Confirmed spenders of a joint refund's script-hash outputs.

    A joint refund still in the mempool has no outputs yet, so no spenders.
    """
    tc1 = ledger.get_transaction(tc1_id)
    spenders = (
        ledger.is_spent(tc1_id, i)[1]
        for i, out in enumerate(tc1.outputs if tc1 else ())
        if isinstance(out.script, ScriptHash)
    )
    return [tid for tid in spenders if tid is not None]


def fill_redeem(record: RefundRecord, joint: list[bytes], ledger: SimLedger) -> RefundRecord:
    """The record with its redeem slot set to the pair's earliest confirmed spend.

    Candidates are ``joint``, the `joint_spenders` of the record's joint
    refund, and the spender of its fallback output; the earliest by (height,
    txid) wins, and the slot stays zero without one.  A fallback's spend
    confirms after the fallback, so its spender is read only when the
    fallback has confirmed and no joint spend confirmed at or before it.
    """
    height = ledger.confirmation_height
    fallback = height(record.refund_tc2_txid)
    if fallback is not None and all(height(tid) > fallback for tid in joint):
        joint = joint + [ledger.is_spent(record.refund_tc2_txid, 0)[1]]
    spends = [tid for tid in joint if tid is not None]
    return record.with_redeem(min(spends, key=lambda t: (height(t), t), default=_ZERO_ID))


# -- database recovery ------------------------------------------------------------


@dataclass
class RecoveryTelemetry:
    """Operation counters for the blockchain-scan rebuild.

    ``key_ops`` counts the (refund, payment) pairs considered, not the
    masked sweeps run: a pair whose payment already holds a refund of that
    shape is counted but decided without masking, and a payment that
    confirmed after the refund was issued is not considered.
    ``search_ops`` counts the ledger's answered queries: every
    ``find_by_pubkey`` and every ``is_spent``.
    """

    key_ops: int = 0
    search_ops: int = 0


@dataclass
class RecoveryResult:
    records: list[RefundRecord] = field(default_factory=list)
    telemetry: RecoveryTelemetry = field(default_factory=RecoveryTelemetry)


def child_sweep(one: Callable[[int], Any], many: Callable[[Sequence[int]], list]) -> Iterator:
    """``(index, result)`` for child indexes 0..MAX_CHILD_INDEX, in index order.

    Indexes 0 and 1, where the hits land (a joint refund's at child 0, a
    one-entry fallback's at child 1), go one at a time through ``one(index)``;
    the rest is one ``many(indexes)`` batch, computed only if read.  A result
    is a value or the `KeyDerivationError` computing it raised, so a reader
    that stops at the first match or error sees what sweeping index by index
    would.
    """
    for index in range(2):
        try:
            yield index, one(index)
        except KeyDerivationError as exc:
            yield index, exc
    rest = range(2, MAX_CHILD_INDEX + 1)
    yield from zip(rest, many(rest))


def _match_masked_key(xpub: ExtendedPublicKey, masker: ChildMasker, target_check) -> bool:
    """Whether a child index 0..MAX_CHILD_INDEX has a masked point that passes
    the predicate.

    The children are masked in `child_sweep` order.  A degenerate index is
    skipped.  The accepted index is re-derived by `derive_child_public` and
    `mask_child`, the definition a linkage proof replays; a disagreement
    with the masker raises `MaskCheckFailed`.
    """
    for index, masked in child_sweep(partial(masker.mask, xpub), partial(masker.mask_many, xpub)):
        if isinstance(masked, DegenerateChild):
            continue
        if isinstance(masked, KeyDerivationError):
            raise masked
        if target_check(masked):
            child = derive_child_public(xpub, index)
            if mask_child(child, masker.masking_priv) != masked:
                raise MaskCheckFailed(f"masked child {index} disagrees with mask_child")
            return True
    return False


def recover_database(merchant_wallet, ledger: SimLedger) -> RecoveryResult:
    """Rebuild the refund records from the chain and the deterministic wallet.

    The wallet re-derives every public key it could ever have issued, in
    one batch (`MerchantWallet.public_keys`); searching the ledger for each
    finds the transactions the key signs, confirmed or still in the
    mempool, which `refund_shape` reads as joint refunds, fallbacks or
    neither, and the payments: any other transaction that embeds extended
    keys.  Only a key that signs a refund has its private key derived, by
    `MerchantWallet.key`, which checks it against the batch.  Masked-child
    reconstruction ties each refund to its payment: a fallback through its
    locked key hash, a joint refund through the scripts its redeems reveal,
    each under every extended key the payment embeds.

    The refunds are walked once, in wallet-key order.  Every refund issue
    allocates its joint funding key before its fallback funding keys, so a
    fallback is read after its companion joint refund.  Each refund goes to
    the first payment that confirmed before it was issued (a joint refund is
    dated by its confirmation, a fallback by its companion's) and whose slot
    for it is free: a payment holds one joint refund, and one fallback per
    extended key.  A fallback's record is built when it is matched, with the
    joint refund holding its payment's joint slot, or else its companion;
    `fill_redeem` fills the redeem slot, so refunds nobody has redeemed yet
    yield records with a zeroed slot.  ``key_ops`` counts every (refund,
    payment) pair considered; a pair whose payment already holds a refund of
    that shape is decided without masking.  Masking costs one ``mul`` per
    (masking key, extended key) pair swept, plus one definitional check per
    hit (`_match_masked_key`).
    """
    telemetry = RecoveryTelemetry()
    queries_before = ledger.queries
    mains: dict[bytes, list[ExtendedPublicKey]] = {}
    refunds: dict[bytes, tuple] = {}  # txid -> (tx, shape, funding priv, key idx)
    wallet_keys = {pub: i for i, pub in enumerate(merchant_wallet.public_keys())}

    def note_refund(tid: bytes, tx: Transaction, idx: int) -> None:
        shape = refund_shape(tx)
        if shape is not None and tid not in refunds:
            refunds[tid] = (tx, shape, merchant_wallet.key(idx)[0], idx)

    for pub, i in wallet_keys.items():
        for tid, tx in ledger.find_by_pubkey(pub):
            if pub in signer_keys(tx):
                note_refund(tid, tx, i)
            elif xpubs := extract_all_xpubs(tx):
                mains.setdefault(tid, xpubs)
    # refunds still in the mempool are in flight: a fallback waits for its
    # lock, and a refund pair issued just before the loss waits to confirm
    for tid, tx in ledger.mempool.items():
        signer = next((wallet_keys[pub] for pub in signer_keys(tx) if pub in wallet_keys), None)
        if signer is not None:
            note_refund(tid, tx, signer)

    # a fallback locks a masked child's key hash; a joint refund is tied
    # through its redeems' revealed scripts, so an unredeemed one matches none
    height = ledger.confirmation_height
    result = RecoveryResult(telemetry=telemetry)
    spenders: dict[bytes, list[bytes]] = {}  # joint refund txid -> its spenders
    # a payment's slots: (main, None) -> its joint refund, (main, xpub) -> a fallback
    held: dict[tuple[bytes, Optional[ExtendedPublicKey]], bytes] = {}
    companion: Optional[bytes] = None  # the latest joint refund read
    issued: Optional[int] = None  # its date; None while pending
    for tid, (tx, shape, priv, _idx) in sorted(refunds.items(), key=lambda kv: kv[1][3]):
        is_joint = shape is RefundShape.JOINT
        if is_joint:
            companion, issued = tid, height(tid)
            spenders[tid] = joint_spenders(ledger, tid)
            revealed = {
                key
                for spender in spenders[tid]
                for txin in ledger.get_transaction(spender).inputs
                if txin.prev_txid == tid and txin.reveal_script
                for key in txin.reveal_script.keys
            }
            if not revealed:
                continue
            target = revealed.__contains__
        else:
            locked = tx.outputs[0].script.pubkey_hash
            target = lambda mk, locked=locked: key_hash(mk) == locked
        masker = ChildMasker(priv)
        for main_id, xpubs in mains.items():
            if issued is not None and height(main_id) >= issued:
                continue
            telemetry.key_ops += 1
            free = [x for x in xpubs if (main_id, None if is_joint else x) not in held]
            hit = next((x for x in free if _match_masked_key(x, masker, target)), None)
            if hit is None:
                continue
            held[main_id, None if is_joint else hit] = tid
            tc1_id = held.get((main_id, None), companion)
            if not is_joint and tc1_id is not None:
                record = RefundRecord(main_id, tc1_id, tid)
                result.records.append(fill_redeem(record, spenders[tc1_id], ledger))
            break

    telemetry.search_ops = ledger.queries - queries_before
    result.records.sort(key=lambda r: r.main_txid)
    return result
