"""In-memory simulated blockchain with a block-height clock.

One owner mutates the ledger through `broadcast` and `advance_height`;
reads are safe from anywhere.  Confirmation policy: first-seen wins on
conflicting spends, every height step produces one block containing all
mempool transactions whose locks are satisfied, in broadcast order.

Admission is final: only `broadcast` checks a transaction and computes its
txid.  It admits a new txid whose inputs are confirmed, unspent and claimed
by no pending transaction.  Nothing else can then spend those inputs, and no
witness or value changes, so confirmation re-checks nothing.

Search only finds: `find_by_pubkey` returns the confirmed transactions that
a key index names.  Telling a payment from a refund, and one refund from
another, is `dispute`'s reading of the transaction, not the ledger's.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator, Optional

from .curve import SECP256K1, Point
from .transactions import (
    DataCarrier,
    PayToPubkeyHash,
    RejectReason,
    ScriptHash,
    Transaction,
    TxOutput,
    ValidationResult,
    key_hash,
    serialize_tx,
    txid,
    validate_spend,
)


class UnknownOutput(Exception):
    pass


_ENCODED_KEY_BYTES = 1 + SECP256K1.coord_bytes


def _search_keys(tx: Transaction) -> set:
    """Every value ``find_by_pubkey`` can match ``tx`` on.

    Witness keys, revealed-script keys, P2PKH key hashes, and each
    encoded-key-sized window of every data-carrier payload, so that a key
    embedded anywhere in a payload is found as by a substring test.
    """
    keys: set = set()
    for txin in tx.inputs:
        keys.update(wpub for _sig, wpub in txin.witness)
        if txin.reveal_script:
            keys.update(txin.reveal_script.keys)
    for out in tx.outputs:
        script = out.script
        if isinstance(script, PayToPubkeyHash):
            keys.add(script.pubkey_hash)
        elif isinstance(script, DataCarrier):
            payload = script.payload
            keys.update(
                payload[i:i + _ENCODED_KEY_BYTES]
                for i in range(len(payload) - _ENCODED_KEY_BYTES + 1)
            )
    return keys


class SimLedger:
    def __init__(self):
        self.height = 0
        self.blocks: list[tuple[int, tuple[Transaction, ...]]] = []
        self.mempool: dict[bytes, Transaction] = {}
        self._outputs: dict[tuple[bytes, int], TxOutput] = {}
        self._spent_by: dict[tuple[bytes, int], bytes] = {}
        self._tx_index: dict[bytes, tuple[Transaction, int]] = {}
        self._pending_outpoints: set[tuple[bytes, int]] = set()
        # search key -> (chain position, txid) of each confirmed transaction
        # that names it; see _search_keys
        self._by_key: dict[object, list[tuple[int, bytes]]] = {}
        self.queries = 0  # find_by_pubkey and is_spent calls answered

    # -- queries ---------------------------------------------------------

    def output_exists(self, tx_id: bytes, index: int) -> bool:
        return (tx_id, index) in self._outputs

    def unspent_output(self, tx_id: bytes, index: int) -> Optional[TxOutput]:
        key = (tx_id, index)
        if key not in self._outputs or key in self._spent_by:
            return None
        return self._outputs[key]

    def get_transaction(self, tx_id: bytes) -> Optional[Transaction]:
        entry = self._tx_index.get(tx_id)
        return entry[0] if entry else None

    def confirmation_height(self, tx_id: bytes) -> Optional[int]:
        entry = self._tx_index.get(tx_id)
        return entry[1] if entry else None

    def is_spent(self, tx_id: bytes, index: int) -> tuple[bool, Optional[bytes]]:
        """Whether an output is consumed, and by which confirmed transaction."""
        self.queries += 1
        key = (tx_id, index)
        if key not in self._outputs:
            raise UnknownOutput(f"{tx_id.hex()[:16]}:{index}")
        spender = self._spent_by.get(key)
        return (spender is not None, spender)

    def utxo_snapshot(self) -> dict[tuple[bytes, int], TxOutput]:
        return {
            k: v for k, v in self._outputs.items() if k not in self._spent_by
        }

    def all_confirmed(self) -> Iterator[tuple[int, bytes, Transaction]]:
        """(height, txid, tx) for every confirmed transaction, in chain order."""
        for tid, (tx, height) in self._tx_index.items():
            yield height, tid, tx

    # -- mutations ---------------------------------------------------------

    def broadcast(self, tx: Transaction) -> ValidationResult:
        """Admit a transaction to the mempool.

        Structural validity is required now; a future lock height is not a
        rejection (the transaction waits in the mempool).  A known txid, or
        an outpoint claimed by a pending transaction, rejects the newcomer.
        The result carries the txid, so callers need not hash it again.
        """
        tid = txid(tx)
        if tid in self._tx_index or tid in self.mempool:
            return ValidationResult(
                False, RejectReason.DOUBLE_SPEND, "txid already known", tid
            )
        for txin in tx.inputs:
            if (txin.prev_txid, txin.prev_index) in self._pending_outpoints:
                return ValidationResult(
                    False, RejectReason.DOUBLE_SPEND, "outpoint claimed in mempool", tid
                )
        result = replace(validate_spend(tx, self), txid=tid)
        if not result:
            return result
        self.mempool[tid] = tx
        for txin in tx.inputs:
            self._pending_outpoints.add((txin.prev_txid, txin.prev_index))
        return result

    def advance_height(self, n: int = 1) -> int:
        """Advance the clock, confirming every mempool transaction whose lock passed."""
        if n < 1:
            raise ValueError("advance must be >= 1")
        for _ in range(n):
            self.height += 1
            ready = [t for t, tx in self.mempool.items() if tx.lock_height <= self.height]
            block = tuple(self.mempool.pop(tid) for tid in ready)
            for tid, tx in zip(ready, block):
                self._confirm(tid, tx)
            self.blocks.append((self.height, block))
        return self.height

    def _confirm(self, tid: bytes, tx: Transaction) -> None:
        entry = (len(self._tx_index), tid)
        for key in _search_keys(tx):
            self._by_key.setdefault(key, []).append(entry)
        self._tx_index[tid] = (tx, self.height)
        for txin in tx.inputs:
            key = (txin.prev_txid, txin.prev_index)
            self._spent_by[key] = tid
            self._pending_outpoints.discard(key)
        for i, out in enumerate(tx.outputs):
            if not isinstance(out.script, DataCarrier):
                self._outputs[(tid, i)] = out

    # -- search -------------------------------------------------------------

    def find_by_pubkey(self, pub: Point) -> list[tuple[bytes, Transaction]]:
        """(txid, tx) of every confirmed transaction involving a key, in chain order.

        Matches on-chain-visible appearances only: the key signs an input or
        sits in a revealed script, a P2PKH output pays its hash, or a
        data-carrier payload embeds its compressed encoding.  Only the
        transactions indexed under the key, its hash or its encoding are
        read; what a transaction is to the key's owner is the caller's
        question.
        """
        self.queries += 1
        hits = sorted({
            *self._by_key.get(pub, ()),
            *self._by_key.get(key_hash(pub), ()),
            *self._by_key.get(SECP256K1.encode_point(pub), ()),
        })
        return [(tid, self._tx_index[tid][0]) for _position, tid in hits]

    # -- rendering ------------------------------------------------------------

    def dump_lines(self) -> list[str]:
        """One line per confirmed transaction: decoded summary plus raw hex."""
        lines = []
        for height, tid, tx in self.all_confirmed():
            ins = " ".join(
                f"{i.prev_txid.hex()[:12]}:{i.prev_index}" for i in tx.inputs
            ) or "seed"
            outs = " ".join(self._render_output(o) for o in tx.outputs)
            lock = f" lock={tx.lock_height}" if tx.lock_height else ""
            lines.append(
                f"height={height} txid={tid.hex()} in=[{ins}] out=[{outs}]{lock} "
                f"raw={serialize_tx(tx).hex()}"
            )
        return lines

    @staticmethod
    def _render_output(out: TxOutput) -> str:
        if isinstance(out.script, PayToPubkeyHash):
            return f"p2pkh:{out.script.pubkey_hash.hex()[:12]}={out.value}"
        if isinstance(out.script, ScriptHash):
            return f"p2sh:{out.script.script_hash.hex()[:12]}={out.value}"
        return f"data:{len(out.script.payload)}b"
