"""Merchant-as-mixer: refund splitting, batched mixed emission, analysis.

A customer overpays (or cancels an order) and names refundee extended keys
as refund addresses.  The merchant splits each refund into equal-value
chunks, pays every chunk to a DH-masked child of the refundee key, and mixes
chunks from several customers into shared transactions emitted over a jitter
window.  Equal values, masked one-time addresses, batching and jitter remove
the value, address and time relations between payments in and refunds out.

`analyze_linkage` is the resident adversary: given everything a global
passive observer could hold (chunk outputs with values and heights, plus
each refund's total and payment height), it counts the
value-and-causality-consistent assignments of chunks to refunds exactly
and picks one uniformly; its accuracy against ground truth is the
unlinkability measure.  Ground truth is kept per refund, so a repeat
customer's refunds stay apart.

The aggregate mode combines mixing with the joint-refund protection: every
chunk is locked to customer and refundee together, with a per-transaction
masking key, plus a time-locked fallback row for the customer — so proofs of
linkage stay available to the merchant while outsiders still see nothing.
Both modes share one base, `_MixingService`: it holds the merchant, the
chunk count, the emission shape, the rng and the ground truth, checks a
session by `_refund_plans` and emits by `_emit_mixed`.  Each mode obeys
`check_mixable`, keeps only its own keys, scripts and rows, and marks the
sessions it takes `REFUND_ISSUED`; the ground truth only records.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Iterator, Optional, Sequence

from .curve import Point
from .keys import ChildMasker, ExtendedPublicKey, KeyDerivationError
from .ledger import SimLedger
from .protocol import (
    CustomerWallet,
    Merchant,
    MerchantSession,
    SessionState,
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

MIX_TIMEOUT_BLOCKS = 20  # a batch below quorum emits this long after its first chunk


class MixerError(Exception):
    pass


class ChunkTooSmall(MixerError):
    pass


# -- splitting -------------------------------------------------------------------


def split_value(total: int, k: int) -> tuple[int, ...]:
    """Split a value into k near-equal chunks; the remainder spreads left-first."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if total < k:
        raise ChunkTooSmall(f"cannot split {total} into {k} nonzero chunks")
    base, extra = divmod(total, k)
    return tuple(base + 1 if i < extra else base for i in range(k))


def derive_chunk_keys(
    refundee_xpub: ExtendedPublicKey, k: int, merchant_priv: int
) -> list[Point]:
    """Masked refundee children at indexes 0..k-1, one per chunk.

    The refundee recovers each private key from its wallet plus the masking
    public key.  No acknowledgment carries that key: the refundee reads it
    from `MixerService.masker_pubs`, which stands in for an out-of-band
    channel.
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
    multi-origin; a fix-up swap covers lopsided tails.  It takes a chunk of
    another origin only from a group holding two such chunks, so the donor
    still mixes; a tail no group can spare a chunk for stays single-origin.
    """
    groups = [
        list(interleaved[i : i + outputs_per_tx])
        for i in range(0, len(interleaved), outputs_per_tx)
    ]
    for group in groups:
        lone = group[0]
        if any(e.origin != lone.origin for e in group):
            continue
        for other in groups:
            # a donor of two foreign chunks keeps one, so it still mixes
            foreign = [k for k, entry in enumerate(other) if entry.origin != lone.origin]
            if len(foreign) > 1:
                group[0], other[foreign[0]] = other[foreign[0]], lone
                break
    return groups


def check_mixable(origins: int, chunks_per_origin: int, outputs_per_tx: int) -> None:
    """Raise ValueError unless every emission transaction mixes origins.

    With `origins` customers of `chunks_per_origin` chunks each,
    `_interleave_by_origin` cycles through the origins in a fixed order, so
    adjacent entries always differ, and `_partition` cuts the cycle into
    groups of `outputs_per_tx`, the last one shorter.  Every group mixes
    exactly when it holds two chunks or more: `outputs_per_tx` >= 2 and no
    lone chunk left over for the last group.  A single origin has nothing
    to mix with.
    """
    chunks = origins * chunks_per_origin
    if origins > 1 and (outputs_per_tx < 2 or chunks % outputs_per_tx == 1):
        raise ValueError(
            f"{chunks} chunks at {outputs_per_tx} per transaction leave one "
            "transaction a lone chunk of a single origin"
        )


def check_spans_txs(origins: int, chunks_per_origin: int, outputs_per_tx: int) -> None:
    """Raise ValueError if the chunks of several origins fit in one transaction."""
    chunks = origins * chunks_per_origin
    if origins > 1 and chunks <= outputs_per_tx:
        raise ValueError(f"all {chunks} chunks fit in one transaction of {outputs_per_tx}")


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
    """What the merchant knows of its mixed refunds, keyed by session id:
    the chunk's `origin`."""

    origin_names: dict[bytes, str] = field(default_factory=dict)
    refund_totals: dict[bytes, int] = field(default_factory=dict)
    payment_heights: dict[bytes, int] = field(default_factory=dict)
    chunk_facts: list[ChunkFact] = field(default_factory=list)

    def record(self, session: MerchantSession, customer_name: str, total: int) -> None:
        """Note what the adversary may know of a session's refund."""
        origin = session.merchant_data
        self.origin_names[origin] = customer_name
        self.refund_totals[origin] = total
        self.payment_heights[origin] = session.paid_height

    def unmixed_txids(self) -> set[bytes]:
        """The emitted transactions whose chunks all share one origin."""
        origins: dict[bytes, set[bytes]] = {}
        for fact in self.chunk_facts:
            origins.setdefault(fact.txid, set()).add(fact.origin)
        return {tid for tid, found in origins.items() if len(found) < 2}


class _MixingService:
    """What both mixing modes share: the merchant, the chunk count, the
    emission shape, the rng and the ground truth, plus the session check
    and the mixed emission built on them."""

    def __init__(
        self, merchant: Merchant, k: int, outputs_per_tx: int, jitter_window: int,
        rng_seed: int,
    ):
        self.merchant = merchant
        self.ledger = merchant.ledger
        self.k = k
        self.outputs_per_tx = outputs_per_tx
        self.jitter_window = jitter_window
        self.rng = random.Random(rng_seed)
        self.truth = MixGroundTruth()

    def _refund_plans(
        self, merchant_data: bytes
    ) -> tuple[MerchantSession, list[tuple[int, ...]]]:
        """A refundable session and the `k`-chunk split of each of its entries.

        The session must have one payment signer, since every chunk is locked
        to the payer's children, and every entry must name a refundee extended
        key.  Nothing is taken, queued or recorded here, so a refused session
        leaves no partial state.
        """
        session = self.merchant.refundable_session(merchant_data)
        if session.multi_signer:
            raise MixerError("mixing takes sessions with one payment signer")
        if not all(isinstance(e.refundee, ExtendedPublicKey) for e in session.entries):
            raise MixerError("mixing requires refundee extended keys")
        return session, [split_value(entry.value, self.k) for entry in session.entries]

    def _emit_mixed(
        self,
        entries: Sequence,
        base_height: int,
        role: str,
        label: str,
        outputs: Callable[[list, ChildMasker], list[TxOutput]],
    ) -> Iterator[tuple[Transaction, bytes, list, int, tuple[int, Point]]]:
        """Fund, sign and broadcast one mixed transaction per group of `entries`.

        Draws from `rng` in a fixed order: the origin interleave first, then
        per group the output shuffle and the lock jitter in
        [0, `jitter_window`).  Each group's funding key is reserved under
        `role` and masks the group's `outputs`; the transaction is broadcast
        under `label`.  Yields (tx, txid, group, lock height, funding key
        pair) per transaction, in emission order.
        """
        merchant, rng = self.merchant, self.rng
        for group in _partition(_interleave_by_origin(entries, rng), self.outputs_per_tx):
            rng.shuffle(group)
            lock = base_height + rng.randrange(self.jitter_window)
            priv, pub, funding = merchant.reserve_funded_key(sum(c.value for c in group), role)
            tx = build_funded_tx(outputs(group, ChildMasker(priv)), funding, (priv, pub), lock)
            yield tx, merchant.broadcast(tx, label), group, lock, (priv, pub)


class MixerService(_MixingService):
    """Drives splitting, batching and mixed emission for one merchant."""

    def __init__(
        self,
        merchant: Merchant,
        k: int = 4,
        min_customers: int = 2,
        outputs_per_tx: int = 4,
        jitter_window: int = 3,
        rng_seed: int = 0,
    ):
        super().__init__(merchant, k, outputs_per_tx, jitter_window, rng_seed)
        self.min_customers = min_customers
        self.pending: list[MixChunk] = []
        self.pending_since = 0  # height at which the first pending chunk was queued
        self.masker_pubs: dict[bytes, Point] = {}  # session -> out-of-band mask key

    def ready(self) -> bool:
        """Pending chunks from `min_customers` customers, or pending for
        `MIX_TIMEOUT_BLOCKS`."""
        if not self.pending:
            return False
        if len({chunk.origin for chunk in self.pending}) >= self.min_customers:
            return True
        return self.ledger.height >= self.pending_since + MIX_TIMEOUT_BLOCKS

    def enqueue_refund(self, merchant_data: bytes, customer_name: str) -> None:
        """Split a refundable session's entries into chunks and queue them.

        The session must have one payment signer and every refund entry
        must name a refundee extended key; both are checked before the
        masking key is taken or a chunk queued.
        Emission waits for enough distinct customers or the timeout, which
        starts when a chunk is queued while none is pending.
        """
        session, plans = self._refund_plans(merchant_data)
        if not self.pending:
            self.pending_since = self.ledger.height
        masker_idx = self.merchant.wallet.allocate()
        masker_priv, masker_pub = self.merchant.wallet.key(masker_idx)
        self.merchant.key_log.register(masker_pub, "chunk-masking-key")
        self.masker_pubs[merchant_data] = masker_pub
        for entry, chunks in zip(session.entries, plans):
            masked = derive_chunk_keys(entry.refundee, self.k, masker_priv)
            for chunk_value, masked_key in zip(chunks, masked):
                self.merchant.key_log.register(masked_key, "masked-chunk-key")
                self.pending.append(MixChunk(masked_key, chunk_value, merchant_data))
        session.state = SessionState.REFUND_ISSUED
        self.truth.record(session, customer_name, sum(e.value for e in session.entries))

    def try_emit(self) -> list[Transaction]:
        """Emit ready chunks: interleaved origins, shuffled outputs, jittered heights.

        Chunks that never reached two customers are emitted anyway at
        timeout (funds must move); `MixGroundTruth.unmixed_txids` names
        every transaction holding a single customer's chunks.
        """
        if not self.ready():
            return []
        emitted = []
        for tx, tid, chunks, lock, _key in self._emit_mixed(
            self.pending, self.ledger.height + 1, "mix-funding", "emission",
            lambda chunks, _masker: [
                TxOutput(c.value, PayToPubkeyHash(key_hash(c.masked_point))) for c in chunks
            ],
        ):
            emitted.append(tx)
            self.truth.chunk_facts.extend(
                ChunkFact(tid, vout, c.value, c.origin, lock) for vout, c in enumerate(chunks)
            )
        self.pending.clear()
        return emitted


def sweep_chunks(
    refundee_wallet: CustomerWallet,
    masker_pub: Point,
    ledger: SimLedger,
    dest: Point,
    chunk_count: int,
) -> tuple[list[Transaction], int]:
    """Refundee-side claim of every chunk addressed to its masked children
    0..chunk_count-1 (`derive_chunk_keys`), unmasked with their points in one
    batch, by child index, then in chain order; the ledger's key index names
    the transactions paying each child."""
    claimed, total = [], 0
    for masked in refundee_wallet.masked_keys(masker_pub, range(chunk_count)):
        if isinstance(masked, KeyDerivationError):
            raise masked
        masked_priv, masked_point = masked
        wanted = key_hash(masked_point)
        for tid, tx in ledger.find_by_pubkey(masked_point):
            for vout, out in enumerate(tx.outputs):
                if (
                    isinstance(out.script, PayToPubkeyHash)
                    and out.script.pubkey_hash == wanted
                    and ledger.unspent_output(tid, vout) is not None
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
    feasible_assignments: int
    target_correct: bool


def _feasible_assignments(
    outputs: list[ChunkFact],
    customers: list[bytes],
    totals: dict[bytes, int],
    payment_heights: dict[bytes, int],
) -> tuple[int, Callable[[int], tuple[bytes, ...]]]:
    """Count the assignments of outputs to customers consistent with the view.

    A customer is any key of `totals` and `payment_heights`;
    `analyze_linkage` passes one per refund, its session id.  Consistency:
    each customer's assigned values sum to its refund total, and no chunk
    is emitted before its customer paid.  Returns the exact
    count and a function building the assignment of each rank in
    [0, count), in search order: outputs by descending value, each given
    to the customers in turn.  Nothing is enumerated: counts are memoized on
    the position and the remaining totals.  Customers who may take exactly
    the same outputs (one class per tuple of ``payment_height <=
    emission_height``) are interchangeable, since swapping two of them maps
    completions one to one; the memo key sorts the remaining totals within
    each class, so the states stay polynomial in the class sizes.  A state
    counts 0 at once when some remaining total, or all of them together,
    cannot be met with as many outputs as are left, each worth between the
    next value and the smallest.  Once the outputs left form at most two
    runs, each alike in value and in who may take them, `two_runs` counts
    them customer by customer instead.
    """
    order = sorted(range(len(outputs)), key=lambda i: -outputs[i].value)
    # each output's value and who may take it, in search order
    kinds = [
        (out.value, tuple(payment_heights[c] <= out.emission_height for c in customers))
        for out in (outputs[i] for i in order)
    ]
    classes: dict[tuple[bool, ...], list[int]] = {}
    for c in range(len(customers)):
        classes.setdefault(tuple(allowed[c] for _value, allowed in kinds), []).append(c)
    tail = len(order)  # from here on, every output is like the last one
    while tail and kinds[tail - 1] == kinds[-1]:
        tail -= 1
    runs2 = tail  # from here on, the outputs form at most two runs of like ones
    while runs2 and kinds[runs2 - 1] == kinds[tail - 1]:
        runs2 -= 1
    memo: dict[tuple, int] = {}

    def moves(pos: int, remaining: tuple[int, ...]) -> Iterator[tuple[int, tuple[int, ...]]]:
        out = outputs[order[pos]]
        for c, customer in enumerate(customers):
            if remaining[c] >= out.value and payment_heights[customer] <= out.emission_height:
                yield c, remaining[:c] + (remaining[c] - out.value,) + remaining[c + 1:]

    def two_runs(pos: int, remaining: tuple[int, ...]) -> int:
        """Completions from `pos` >= `runs2`: each customer takes some x of
        the first run's m1 outputs (none from `tail` on) and meets the rest
        of its total with y of the last run's m2.  Customers are taken in
        turn, keyed on the outputs of each run taken so far; choosing which
        x of the s1 + x taken is C(s1 + x, x), so the ways multiply to
        m1!/prod(x!) times m2!/prod(y!)."""
        (v1, allowed1), (v2, allowed2) = kinds[pos], kinds[-1]
        m1, m2 = max(tail - pos, 0), len(order) - max(tail, pos)
        ways = {(0, 0): 1}
        for c, r in enumerate(remaining):
            step: dict[tuple[int, int], int] = {}
            for (s1, s2), w in ways.items():
                for x in range(min(m1 - s1, r // v1) + 1 if allowed1[c] else 1):
                    y, short = divmod(r - x * v1, v2)
                    if short or (y and not allowed2[c]) or s2 + y > m2:
                        continue
                    taken = (s1 + x, s2 + y)
                    step[taken] = step.get(taken, 0) + w * comb(s1 + x, x) * comb(s2 + y, y)
            ways = step
        return ways.get((m1, m2), 0)

    def count(pos: int, remaining: tuple[int, ...]) -> int:
        if pos == len(order):
            return int(not any(remaining))
        key = (pos, *(tuple(sorted(remaining[c] for c in cls)) for cls in classes.values()))
        if key not in memo:
            # values only fall along the search order: each output left is
            # worth between this one's value and the last one's
            high, low = outputs[order[pos]].value, kinds[-1][0]
            spans = [(-(-r // high), r // low) for r in remaining]  # outputs each can take
            fits = all(few <= most for few, most in spans) and (
                sum(few for few, _ in spans) <= len(order) - pos <= sum(m for _, m in spans)
            )
            if not fits:
                memo[key] = 0
            elif pos >= runs2:
                memo[key] = two_runs(pos, remaining)
            else:
                memo[key] = sum(count(pos + 1, rest) for _c, rest in moves(pos, remaining))
        return memo[key]

    start = tuple(totals[c] for c in customers)

    def nth(rank: int) -> tuple[bytes, ...]:
        assignment = [b""] * len(outputs)
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
    refund's total and payment height; it never sees session ids or wallet
    internals, so the refunds are taken in the order of their customers'
    names (a repeat customer's by session id, an order that carries no
    information).  It counts every value/causality-consistent
    assignment and picks one uniformly at random — with equal chunks and mixed
    emission that is the best it can do.  `ledger` is not read: the chunk
    facts already carry everything the chain shows.
    """
    rng = random.Random(rng_seed)
    outputs = sorted(truth.chunk_facts, key=lambda f: (f.txid, f.vout))
    refunds = sorted(truth.origin_names, key=lambda sid: (truth.origin_names[sid], sid))
    feasible, nth = _feasible_assignments(
        outputs, refunds, truth.refund_totals, truth.payment_heights
    )
    if not feasible:
        return LinkageReport(0.0, 0, False)
    chosen = nth(rng.randrange(feasible))
    correct = sum(1 for fact, guess in zip(outputs, chosen) if fact.origin == guess)
    return LinkageReport(
        accuracy=correct / len(outputs) if outputs else 0.0,
        feasible_assignments=feasible,
        target_correct=bool(outputs) and chosen[0] == outputs[0].origin,
    )


# -- aggregate mode ---------------------------------------------------------------


@dataclass(frozen=True)
class AggregateChunk:
    """One (entry, chunk) cell of a session's aggregate refund."""

    origin: bytes
    customer_xpub: ExtendedPublicKey
    refundee_xpub: Optional[ExtendedPublicKey]  # None on a fallback row
    chunk_index: int
    flat_index: int  # customer child: entry * k + chunk, fallback n_entries * k + chunk
    value: int


@dataclass(frozen=True)
class AggregateChunkDetail:
    record: dispute.RefundRecord
    chunk: AggregateChunk
    masking_priv: int
    masking_pub: Point
    joint_vout: int
    script: NOfNScript

    @property
    def joint_txid(self) -> bytes:
        return self.record.refund_tc1_txid


class AggregateService(_MixingService):
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
        super().__init__(merchant, k, outputs_per_tx, jitter_window, rng_seed)
        self.pending_joint: list[AggregateChunk] = []
        self.pending_fallback: list[AggregateChunk] = []
        self.details: dict[bytes, list[AggregateChunkDetail]] = {}

    def aggregate_refund(self, merchant_data: bytes, customer_name: str) -> None:
        """Queue a session's chunked joint+fallback refund for mixed emission."""
        session, plans = self._refund_plans(merchant_data)
        xpub = session.customer_xpubs[0]
        total = sum(entry.value for entry in session.entries)
        rows = [(entry.refundee, chunks) for entry, chunks in zip(session.entries, plans)]
        rows.append((None, split_value(total, self.k)))  # the customer's fallback row
        for i, (refundee, chunks) in enumerate(rows):
            pending = self.pending_fallback if refundee is None else self.pending_joint
            pending.extend(
                AggregateChunk(merchant_data, xpub, refundee, j, i * self.k + j, value)
                for j, value in enumerate(chunks)
            )
        session.state = SessionState.REFUND_ISSUED
        self.truth.record(session, customer_name, total)
        self.details[merchant_data] = []

    def emit(self) -> tuple[list[Transaction], list[Transaction]]:
        """Emit all queued chunks as mixed joint and fallback transactions."""
        if not self.pending_joint:
            raise MixerError("nothing queued")
        height = self.ledger.height
        scripts: dict[AggregateChunk, NOfNScript] = {}

        def joint_outputs(chunks, masker):
            for c in chunks:
                scripts[c] = NOfNScript((
                    masker.mask(c.customer_xpub, c.flat_index),
                    masker.mask(c.refundee_xpub, c.chunk_index),
                ))
            return [TxOutput(c.value, ScriptHash(scripts[c].script_hash())) for c in chunks]

        joint_txs = []
        placements: dict[AggregateChunk, tuple[bytes, int, tuple[int, Point]]] = {}
        for tx, tid, chunks, lock, key in self._emit_mixed(
            self.pending_joint, height + 1,
            "aggregate-joint-funding", "aggregate joint emission", joint_outputs,
        ):
            joint_txs.append(tx)
            for vout, c in enumerate(chunks):
                placements[c] = (tid, vout, key)
                self.truth.chunk_facts.append(ChunkFact(tid, vout, c.value, c.origin, lock))
        fallback_txs = []
        fallback_place: dict[tuple[bytes, int], bytes] = {}
        for tx, tid, chunks, _lock, _key in self._emit_mixed(
            self.pending_fallback, height + self.merchant.lock_blocks,
            "aggregate-fallback-funding", "aggregate fallback emission",
            lambda chunks, masker: [
                TxOutput(
                    c.value,
                    PayToPubkeyHash(key_hash(masker.mask(c.customer_xpub, c.flat_index))),
                )
                for c in chunks
            ],
        ):
            fallback_txs.append(tx)
            for c in chunks:
                fallback_place[c.origin, c.chunk_index] = tid
        # assemble per-chunk records: a chunk's fallback is its session's
        # fallback chunk with the same chunk position
        for chunk in self.pending_joint:
            joint_txid, vout, (priv, pub) = placements[chunk]
            session = self.merchant.sessions[chunk.origin]
            fb_txid = fallback_place[(chunk.origin, chunk.chunk_index)]
            record = dispute.RefundRecord(session.main_txid, joint_txid, fb_txid)
            self.details[chunk.origin].append(
                AggregateChunkDetail(
                    record=record,
                    chunk=chunk,
                    masking_priv=priv,
                    masking_pub=pub,
                    joint_vout=vout,
                    script=scripts[chunk],
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
            chunk, masker_pub = detail.chunk, detail.masking_pub
            masked_c, masked_r = detail.script.keys
            joint_tx = self.ledger.get_transaction(detail.joint_txid)
            redeem = build_redeem(
                joint_tx,
                detail.joint_vout,
                [
                    (customer_wallet.masked_private(masker_pub, chunk.flat_index), masked_c),
                    (refundee_wallet.masked_private(masker_pub, chunk.chunk_index), masked_r),
                ],
                dest=dest,
                reveal_script=detail.script,
            )
            result = self.ledger.broadcast(redeem)
            if not result:
                raise MixerError(f"joint chunk redeem rejected: {result.reason}")
            redeems.append(redeem)
        return redeems

    def chunk_proofs(self, merchant_data: bytes) -> list[dispute.LinkageProof]:
        """One linkage proof per chunk of a session.

        Each chunk's redeem is the confirmed spender of its joint output,
        read from the ledger as `Merchant.monitor` reads redeems; a chunk
        that is unspent, or whose joint emission has not confirmed, raises
        `NotRedeemed`.
        """
        proofs = []
        for detail in self.details[merchant_data]:
            spender = None
            if self.ledger.get_transaction(detail.joint_txid) is not None:
                spender = self.ledger.is_spent(detail.joint_txid, detail.joint_vout)[1]
            if spender is None:
                raise dispute.NotRedeemed("chunk has no confirmed joint redeem")
            child = (detail.chunk.customer_xpub, detail.chunk.flat_index)
            proofs.append(
                dispute.generate_linkage_proof(
                    detail.record.with_redeem(spender), detail.masking_priv, self.ledger,
                    {detail.joint_vout: child},
                )
            )
        return proofs
