"""Merchant-as-mixer: refund splitting, batched mixed emission, analysis.

A customer overpays (or cancels an order) and names refundee extended keys
as refund addresses.  The merchant splits each refund into equal-value
chunks, pays every chunk to a DH-masked child of the refundee key, and mixes
chunks from several customers into shared transactions emitted over a jitter
window.  Equal values, masked one-time addresses, batching and jitter remove
the value, address and time relations between payments in and refunds out.

`analyze_linkage` is the resident adversary: given everything a global
passive observer could hold (chunk outputs with values and heights, plus
per-customer refund totals and payment heights), it counts the
value-and-causality-consistent assignments of chunks to customers exactly
and picks one uniformly; its accuracy against ground truth is the
unlinkability measure.

The aggregate mode combines mixing with the joint-refund protection: every
chunk is locked to customer and refundee together, with a per-transaction
masking key, plus a time-locked fallback row for the customer — so proofs of
linkage stay available to the merchant while outsiders still see nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .curve import SECP256K1, Point
from .keys import ChildMasker, ChildUnmasker, ExtendedPublicKey
from .ledger import SimLedger
from .protocol import (
    CustomerWallet,
    Merchant,
    SessionState,
    WindowExpired,
)
from . import dispute
from .transactions import (
    NOfNScript,
    PayToPubkeyHash,
    ScriptHash,
    Transaction,
    TxOutput,
    build_funded_tx,
    build_redeem,
    key_hash,
)


class MixerError(Exception):
    pass


class ChunkTooSmall(MixerError):
    pass


# -- splitting -------------------------------------------------------------------


@dataclass(frozen=True)
class SplitPlan:
    total: int
    k: int
    chunks: tuple[int, ...]

    def __post_init__(self):
        if sum(self.chunks) != self.total:
            raise ValueError("chunks must sum to the total")
        if max(self.chunks) - min(self.chunks) > 1:
            raise ValueError("chunks must differ by at most one unit")


def split_value(total: int, k: int) -> SplitPlan:
    """Split a value into k near-equal chunks; the remainder spreads left-first."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if total < k:
        raise ChunkTooSmall(f"cannot split {total} into {k} nonzero chunks")
    base, extra = divmod(total, k)
    chunks = tuple(base + 1 if i < extra else base for i in range(k))
    return SplitPlan(total, k, chunks)


def derive_chunk_keys(
    refundee_xpub: ExtendedPublicKey, k: int, merchant_priv: int
) -> list[Point]:
    """Masked refundee children at indexes 0..k-1, one per chunk.

    The refundee recovers each private key from its wallet plus the masking
    public key, which travels out of band (sealed acknowledgment path).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    masker = ChildMasker(merchant_priv)
    return [masker.mask(refundee_xpub, index) for index in range(k)]


# -- batching and emission ----------------------------------------------------------


@dataclass(frozen=True)
class MixChunk:
    masked_point: Point
    value: int
    origin: bytes  # session id, merchant-internal only


@dataclass
class MixBatch:
    """Pending chunks from one or more customers awaiting mixed emission."""

    min_customers: int = 2
    timeout_blocks: int = 20
    created_height: int = 0
    entries: list[MixChunk] = field(default_factory=list)

    def add(self, chunk: MixChunk) -> int:
        self.entries.append(chunk)
        return len(self.entries) - 1

    def origins(self) -> list[bytes]:
        seen = []
        for entry in self.entries:
            if entry.origin not in seen:
                seen.append(entry.origin)
        return seen

    def ready(self, height: int) -> bool:
        if not self.entries:
            return False
        if len(self.origins()) >= self.min_customers:
            return True
        return height >= self.created_height + self.timeout_blocks


def _interleave_by_origin(entries: Sequence, rng: random.Random) -> list:
    """Round-robin across origins so no emission groups a single customer."""
    by_origin: dict[bytes, list] = {}
    for entry in entries:
        by_origin.setdefault(entry.origin, []).append(entry)
    queues = [list(group) for _origin, group in sorted(by_origin.items())]
    for queue in queues:
        rng.shuffle(queue)
    interleaved = []
    while any(queues):
        for queue in queues:
            if queue:
                interleaved.append(queue.pop(0))
    return interleaved


def _partition(interleaved: Sequence, outputs_per_tx: int) -> list[list]:
    """Cut the interleaved sequence into per-transaction groups.

    Contiguous blocks of an origin-interleaved sequence keep every group
    multi-origin; a fix-up swap covers lopsided tails.
    """
    groups = [
        list(interleaved[i : i + outputs_per_tx])
        for i in range(0, len(interleaved), outputs_per_tx)
    ]
    all_origins = {e.origin for e in interleaved}
    if len(all_origins) < 2:
        return groups
    for gi, group in enumerate(groups):
        if len({e.origin for e in group}) > 1:
            continue
        lone = group[0].origin
        for hj, other in enumerate(groups):
            if hj == gi:
                continue
            for k, entry in enumerate(other):
                if entry.origin != lone and len({e.origin for e in other}) > 1:
                    group[0], other[k] = other[k], group[0]
                    break
            else:
                continue
            break
    return groups


def _mixed_groups(
    entries: Sequence,
    rng: random.Random,
    outputs_per_tx: int,
    jitter_window: int,
    base_height: int,
) -> Iterator[tuple[list, int]]:
    """Yield (shuffled group, lock height) per emission transaction.

    Draws from `rng` in a fixed order: the origin interleave first, then per
    group the output shuffle and the lock jitter in [0, jitter_window).
    """
    for group in _partition(_interleave_by_origin(entries, rng), outputs_per_tx):
        rng.shuffle(group)
        yield group, base_height + rng.randrange(jitter_window)


@dataclass(frozen=True)
class ChunkFact:
    """Ground truth for one emitted chunk output."""

    txid: bytes
    vout: int
    value: int
    origin: bytes
    emission_height: int


@dataclass
class MixGroundTruth:
    customers: list[str] = field(default_factory=list)
    origin_names: dict[bytes, str] = field(default_factory=dict)
    refund_totals: dict[str, int] = field(default_factory=dict)
    payment_heights: dict[str, int] = field(default_factory=dict)
    chunk_facts: list[ChunkFact] = field(default_factory=list)


class MixerService:
    """Drives splitting, batching and mixed emission for one merchant."""

    def __init__(
        self,
        merchant: Merchant,
        k: int = 4,
        min_customers: int = 2,
        timeout_blocks: int = 20,
        outputs_per_tx: int = 4,
        jitter_window: int = 3,
        rng_seed: int = 0,
        service_fee: int = 0,
    ):
        self.merchant = merchant
        self.ledger = merchant.ledger
        self.k = k
        self.outputs_per_tx = outputs_per_tx
        self.jitter_window = jitter_window
        self.rng = random.Random(rng_seed)
        self.service_fee = service_fee  # withheld per refund entry; off by default
        self.batch = MixBatch(
            min_customers=min_customers,
            timeout_blocks=timeout_blocks,
            created_height=self.ledger.height,
        )
        self.truth = MixGroundTruth()
        self.masker_pubs: dict[bytes, Point] = {}  # session -> out-of-band mask key
        self.emitted_unmixed = False

    def enqueue_refund(self, merchant_data: bytes, customer_name: str) -> list[int]:
        """Split a refundable session's entries into chunks and batch them.

        Every refund entry must name a refundee extended key.  Returns the
        batch positions taken; emission waits for enough distinct customers
        or the batch timeout.
        """
        if not self.merchant.refundable(merchant_data):
            raise WindowExpired("session is not refundable")
        session = self.merchant.sessions[merchant_data]
        masker_idx = self.merchant.wallet.allocate()
        masker_priv, masker_pub = self.merchant.wallet.key(masker_idx)
        self.merchant.key_log.register(masker_pub, "chunk-masking-key")
        self.masker_pubs[merchant_data] = masker_pub
        positions = []
        total = 0
        for entry in session.entries:
            if not isinstance(entry.refundee, ExtendedPublicKey):
                raise MixerError("mixing requires refundee extended keys")
            payable = entry.value - self.service_fee
            if payable < self.k:
                raise ChunkTooSmall("refund too small after the service fee")
            plan = split_value(payable, self.k)
            masked = derive_chunk_keys(entry.refundee, self.k, masker_priv)
            for chunk_value, masked_key in zip(plan.chunks, masked):
                self.merchant.key_log.register(masked_key, "masked-chunk-key")
                positions.append(
                    self.batch.add(MixChunk(masked_key, chunk_value, merchant_data))
                )
            total += payable
        session.state = SessionState.REFUND_ISSUED
        self.truth.customers.append(customer_name)
        self.truth.origin_names[merchant_data] = customer_name
        self.truth.refund_totals[customer_name] = total
        self.truth.payment_heights[customer_name] = session.paid_height
        return positions

    def try_emit(self) -> list[Transaction]:
        if not self.batch.ready(self.ledger.height):
            return []
        return self.emit_mixed_transactions(self.batch)

    def emit_mixed_transactions(self, batch: MixBatch) -> list[Transaction]:
        """Emit the batch: interleaved origins, shuffled outputs, jittered heights.

        A batch that never reached two customers is emitted anyway at
        timeout (funds must move), flagged as unmixed.
        """
        if not batch.entries:
            raise MixerError("empty batch")
        if len(batch.origins()) < batch.min_customers:
            self.emitted_unmixed = True
        emitted = []
        for chunks, lock in _mixed_groups(
            batch.entries, self.rng, self.outputs_per_tx, self.jitter_window,
            self.ledger.height + 1,
        ):
            priv, pub, funding = self.merchant.reserve_funded_key(
                sum(c.value for c in chunks), "mix-funding"
            )
            outs = [
                TxOutput(c.value, PayToPubkeyHash(key_hash(c.masked_point)))
                for c in chunks
            ]
            tx = build_funded_tx(outs, funding, (priv, pub), lock)
            tid = self.merchant.broadcast(tx, "emission")
            emitted.append(tx)
            for vout, chunk in enumerate(chunks):
                self.truth.chunk_facts.append(
                    ChunkFact(tid, vout, chunk.value, chunk.origin, lock)
                )
        batch.entries.clear()
        return emitted


def sweep_chunks(
    refundee_wallet: CustomerWallet,
    masker_pub: Point,
    ledger: SimLedger,
    dest: Point,
    max_index: int = 32,
) -> tuple[list[Transaction], int]:
    """Refundee-side claim of every chunk addressed to its masked children.

    Chunks are claimed by child index, then in chain order; the ledger's key
    index names the transactions paying each masked child.
    """
    claimed = []
    total = 0
    unmasker = ChildUnmasker(masker_pub)
    for index in range(max_index + 1):
        masked_priv = refundee_wallet.masked_private(unmasker, index)
        masked_point = SECP256K1.g_mul(masked_priv)
        wanted = key_hash(masked_point)
        for loc in ledger.find_by_pubkey(masked_point):
            tx = ledger.get_transaction(loc.txid)
            for vout, out in enumerate(tx.outputs):
                if (
                    isinstance(out.script, PayToPubkeyHash)
                    and out.script.pubkey_hash == wanted
                    and ledger.unspent_output(loc.txid, vout) is not None
                ):
                    redeem = build_redeem(
                        tx, vout, [(masked_priv, masked_point)], dest
                    )
                    if ledger.broadcast(redeem):
                        claimed.append(redeem)
                        total += out.value
    return claimed, total


# -- the resident adversary -----------------------------------------------------------


@dataclass
class LinkageReport:
    accuracy: float
    baseline: float
    n_outputs: int
    feasible_assignments: int
    target_correct: bool


def _feasible_assignments(
    outputs: list[ChunkFact],
    customers: list[str],
    totals: dict[str, int],
    payment_heights: dict[str, int],
) -> tuple[int, Callable[[int], tuple[str, ...]]]:
    """Count the assignments of outputs to customers consistent with the view.

    Consistency: each customer's assigned values sum to its refund total,
    and no chunk is emitted before its customer paid.  Returns the exact
    count and a function building the assignment of each rank in
    [0, count), in search order: outputs by descending value, each given
    to the customers in turn.  Nothing is enumerated: counts are memoized on
    the position and the remaining totals.  Customers who may take exactly
    the same outputs (one class per tuple of ``payment_height <=
    emission_height``) are interchangeable, since swapping two of them maps
    completions one to one; the memo key sorts the remaining totals within
    each class, so the states stay polynomial in the class sizes.
    """
    order = sorted(range(len(outputs)), key=lambda i: -outputs[i].value)
    classes: dict[tuple[bool, ...], list[int]] = {}
    for c, customer in enumerate(customers):
        signature = tuple(payment_heights[customer] <= out.emission_height for out in outputs)
        classes.setdefault(signature, []).append(c)
    memo: dict[tuple, int] = {}

    def moves(pos: int, remaining: tuple[int, ...]) -> Iterator[tuple[int, tuple[int, ...]]]:
        out = outputs[order[pos]]
        for c, customer in enumerate(customers):
            if remaining[c] >= out.value and payment_heights[customer] <= out.emission_height:
                yield c, remaining[:c] + (remaining[c] - out.value,) + remaining[c + 1:]

    def count(pos: int, remaining: tuple[int, ...]) -> int:
        if pos == len(order):
            return int(not any(remaining))
        key = (pos, *(tuple(sorted(remaining[c] for c in cls)) for cls in classes.values()))
        if key not in memo:
            memo[key] = sum(count(pos + 1, rest) for _c, rest in moves(pos, remaining))
        return memo[key]

    start = tuple(totals[c] for c in customers)

    def nth(rank: int) -> tuple[str, ...]:
        assignment = [""] * len(outputs)
        remaining = start
        for pos in range(len(order)):
            for c, rest in moves(pos, remaining):
                if rank < count(pos + 1, rest):
                    break
                rank -= count(pos + 1, rest)
            assignment[order[pos]] = customers[c]
            remaining = rest
        return tuple(assignment)

    return count(0, start), nth


def analyze_linkage(
    ledger: SimLedger,
    truth: MixGroundTruth,
    rng_seed: int = 0,
) -> LinkageReport:
    """Best-effort origin assignment by a global passive observer.

    The adversary holds the emitted chunk outputs (values, heights), each
    customer's refund total and payment height; it never sees session ids or
    wallet internals.  It counts every value/causality-consistent
    assignment and picks one uniformly at random — with equal chunks and mixed
    emission that is the best it can do.  `ledger` is not read: the chunk
    facts already carry everything the chain shows.
    """
    rng = random.Random(rng_seed)
    outputs = sorted(truth.chunk_facts, key=lambda f: (f.txid, f.vout))
    customers = sorted(truth.customers)
    feasible, nth = _feasible_assignments(
        outputs, customers, truth.refund_totals, truth.payment_heights
    )
    n = len(outputs)
    baseline = 1.0 / max(1, len(customers))
    if not feasible:
        return LinkageReport(0.0, baseline, n, 0, False)
    chosen = nth(rng.randrange(feasible))
    correct = sum(
        1
        for fact, guess in zip(outputs, chosen)
        if truth.origin_names[fact.origin] == guess
    )
    target_fact = outputs[0]
    target_correct = (
        chosen[0] == truth.origin_names[target_fact.origin]
    )
    return LinkageReport(
        accuracy=correct / n if n else 0.0,
        baseline=baseline,
        n_outputs=n,
        feasible_assignments=feasible,
        target_correct=target_correct,
    )


# -- aggregate mode ---------------------------------------------------------------


@dataclass(frozen=True)
class AggregateChunk:
    """One (entry, chunk) cell of a session's aggregate refund."""

    origin: bytes
    customer_xpub: ExtendedPublicKey
    refundee_xpub: ExtendedPublicKey
    chunk_index: int
    flat_index: int  # customer child index: entry * k + chunk
    value: int


@dataclass(frozen=True)
class AggregateFallbackChunk:
    origin: bytes
    customer_xpub: ExtendedPublicKey
    flat_index: int  # fallback row: n_entries * k + chunk
    value: int


@dataclass
class AggregateChunkDetail:
    record: dispute.RefundRecord
    chunk: AggregateChunk
    masking_priv: int
    masking_pub: Point
    joint_txid: bytes
    joint_vout: int
    script: NOfNScript


class AggregateService:
    """Joint-locked chunk refunds, batch-mixed across customers.

    Per chunk the joint transaction locks (masked customer child, masked
    refundee child) 2-of-2, and the fallback transaction time-locks the
    chunk to a masked customer child alone.  Masking keys are the emitting
    transactions' own funding keys, so every chunk later admits a linkage
    proof replayable from the chain.
    """

    def __init__(
        self,
        merchant: Merchant,
        k: int = 4,
        outputs_per_tx: int = 4,
        jitter_window: int = 3,
        rng_seed: int = 0,
    ):
        self.merchant = merchant
        self.ledger = merchant.ledger
        self.k = k
        self.outputs_per_tx = outputs_per_tx
        self.jitter_window = jitter_window
        self.rng = random.Random(rng_seed)
        self.pending_joint: list[AggregateChunk] = []
        self.pending_fallback: list[AggregateFallbackChunk] = []
        self.truth = MixGroundTruth()
        self.details: dict[bytes, list[AggregateChunkDetail]] = {}

    def aggregate_refund(self, merchant_data: bytes, customer_name: str) -> int:
        """Queue a session's chunked joint+fallback refund for mixed emission."""
        if not self.merchant.refundable(merchant_data):
            raise WindowExpired("session is not refundable")
        session = self.merchant.sessions[merchant_data]
        xpub = session.customer_xpubs[0]
        n = len(session.entries)
        total = 0
        for i, entry in enumerate(session.entries):
            if not isinstance(entry.refundee, ExtendedPublicKey):
                raise MixerError("aggregate mode requires refundee extended keys")
            plan = split_value(entry.value, self.k)
            for j, chunk_value in enumerate(plan.chunks):
                self.pending_joint.append(
                    AggregateChunk(
                        origin=merchant_data,
                        customer_xpub=xpub,
                        refundee_xpub=entry.refundee,
                        chunk_index=j,
                        flat_index=i * self.k + j,
                        value=chunk_value,
                    )
                )
            total += entry.value
        fallback_plan = split_value(total, self.k)
        for j, chunk_value in enumerate(fallback_plan.chunks):
            self.pending_fallback.append(
                AggregateFallbackChunk(
                    origin=merchant_data,
                    customer_xpub=xpub,
                    flat_index=n * self.k + j,
                    value=chunk_value,
                )
            )
        session.state = SessionState.REFUND_ISSUED
        self.truth.customers.append(customer_name)
        self.truth.origin_names[merchant_data] = customer_name
        self.truth.refund_totals[customer_name] = total
        self.truth.payment_heights[customer_name] = session.paid_height
        self.details[merchant_data] = []
        return len(self.pending_joint)

    def emit(self) -> tuple[list[Transaction], list[Transaction]]:
        """Emit all queued chunks as mixed joint and fallback transactions."""
        if not self.pending_joint:
            raise MixerError("nothing queued")
        height = self.ledger.height
        joint_txs = []
        placements: dict[tuple[bytes, int], tuple[bytes, int, int, NOfNScript]] = {}
        for chunks, lock in _mixed_groups(
            self.pending_joint, self.rng, self.outputs_per_tx, self.jitter_window, height + 1
        ):
            priv, pub, funding = self.merchant.reserve_funded_key(
                sum(c.value for c in chunks), "aggregate-joint-funding"
            )
            masker = ChildMasker(priv)
            scripts = [
                NOfNScript((
                    masker.mask(c.customer_xpub, c.flat_index),
                    masker.mask(c.refundee_xpub, c.chunk_index),
                ))
                for c in chunks
            ]
            outs = [
                TxOutput(c.value, ScriptHash(script.script_hash()))
                for c, script in zip(chunks, scripts)
            ]
            tx = build_funded_tx(outs, funding, (priv, pub), lock)
            tid = self.merchant.broadcast(tx, "aggregate joint emission")
            joint_txs.append(tx)
            for vout, (c, script) in enumerate(zip(chunks, scripts)):
                placements[(c.origin, c.flat_index)] = (tid, vout, priv, pub, script)
                self.truth.chunk_facts.append(ChunkFact(tid, vout, c.value, c.origin, lock))
        fallback_txs = []
        fallback_place: dict[tuple[bytes, int], bytes] = {}
        for chunks, lock in _mixed_groups(
            self.pending_fallback, self.rng, self.outputs_per_tx, self.jitter_window,
            height + self.merchant.lock_blocks,
        ):
            priv, pub, funding = self.merchant.reserve_funded_key(
                sum(c.value for c in chunks), "aggregate-fallback-funding"
            )
            masker = ChildMasker(priv)
            outs = [
                TxOutput(
                    c.value,
                    PayToPubkeyHash(key_hash(masker.mask(c.customer_xpub, c.flat_index))),
                )
                for c in chunks
            ]
            tx = build_funded_tx(outs, funding, (priv, pub), lock)
            tid = self.merchant.broadcast(tx, "aggregate fallback emission")
            fallback_txs.append(tx)
            for c in chunks:
                fallback_place[(c.origin, c.flat_index % self.k)] = tid
        # assemble per-chunk records: a chunk's fallback is its session's
        # fallback chunk with the same chunk position
        for chunk in self.pending_joint:
            joint_txid, vout, priv, pub, script = placements[(chunk.origin, chunk.flat_index)]
            session = self.merchant.sessions[chunk.origin]
            fb_txid = fallback_place[(chunk.origin, chunk.chunk_index)]
            record = dispute.RefundRecord(session.main_txid, joint_txid, fb_txid)
            self.details[chunk.origin].append(
                AggregateChunkDetail(
                    record=record,
                    chunk=chunk,
                    masking_priv=priv,
                    masking_pub=pub,
                    joint_txid=joint_txid,
                    joint_vout=vout,
                    script=script,
                )
            )
        self.pending_joint.clear()
        self.pending_fallback.clear()
        return joint_txs, fallback_txs

    def joint_redeem_all(
        self,
        merchant_data: bytes,
        customer_wallet: CustomerWallet,
        refundee_wallet: CustomerWallet,
        dest: Point,
    ) -> list[Transaction]:
        """Customer and refundee jointly claim every chunk of a session."""
        redeems = []
        for detail in self.details[merchant_data]:
            chunk = detail.chunk
            unmasker = ChildUnmasker(detail.masking_pub)  # two unmasks: no table
            masked_c, masked_r = detail.script.keys
            joint_tx = self.ledger.get_transaction(detail.joint_txid)
            redeem = build_redeem(
                joint_tx,
                detail.joint_vout,
                [
                    (customer_wallet.masked_private(unmasker, chunk.flat_index), masked_c),
                    (refundee_wallet.masked_private(unmasker, chunk.chunk_index), masked_r),
                ],
                dest=dest,
                reveal_script=detail.script,
            )
            result = self.ledger.broadcast(redeem)
            if not result:
                raise MixerError(f"joint chunk redeem rejected: {result.reason}")
            detail.record = detail.record.with_redeem(result.txid)
            redeems.append(redeem)
        return redeems

    def chunk_proofs(self, merchant_data: bytes) -> list[dispute.LinkageProof]:
        """One linkage proof per redeemed chunk of a session."""
        proofs = []
        for detail in self.details[merchant_data]:
            child = (detail.chunk.customer_xpub, detail.chunk.flat_index)
            proofs.append(
                dispute.generate_linkage_proof(
                    detail.record, detail.masking_priv, self.ledger,
                    {detail.joint_vout: child},
                )
            )
        return proofs
