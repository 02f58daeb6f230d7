"""Output checks for the benchmark workloads.

Every expected value here is computed apart from the program under test:
balances and hashes come from the benchmark's own inputs plus the affine
oracle in ``tests/reference.py``, record files are parsed byte by byte, and
the statistics are exact.  Each check returns a list of failure strings;
an empty list means the output is correct.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD_SIZE = 128


def _load_reference():
    path = ROOT / "tests" / "reference.py"
    spec = importlib.util.spec_from_file_location("refundsim_reference_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ref = _load_reference()


def pubkey_hash(point) -> bytes:
    """20-byte P2PKH digest of a point, from the oracle's encoding."""
    return ref.ref_sha256d(ref.ref_encode(point))[:20]


def tx_id(serialized: bytes) -> bytes:
    return ref.ref_sha256d(serialized)


def balance(utxos: dict, key_digest: bytes) -> int:
    """Sum of unspent outputs paying one key hash."""
    return sum(
        out.value
        for out in utxos.values()
        if getattr(out.script, "pubkey_hash", None) == key_digest
    )


def parse_records(data: bytes) -> list[bytes]:
    """Split a record file into its 128-byte rows; a torn file is an error."""
    if len(data) % RECORD_SIZE:
        raise ValueError(f"record file holds {len(data)} bytes, not whole rows")
    return [data[i : i + RECORD_SIZE] for i in range(0, len(data), RECORD_SIZE)]


# -- refund_stream ------------------------------------------------------------


def check_gains(gains: dict[str, int], expected: dict[str, int]) -> list[str]:
    """Each party's balance moved by exactly the refund it is owed."""
    return [
        f"{who} gained {gains.get(who)} where {want} was owed"
        for who, want in sorted(expected.items())
        if gains.get(who) != want
    ]


def check_conservation(utxo_total: int, seeded_total: int) -> list[str]:
    if utxo_total != seeded_total:
        return [f"UTXO total {utxo_total} differs from the seeded {seeded_total}"]
    return []


def check_blocks(blocks) -> list[str]:
    """No outpoint is spent twice and no transaction confirms below its lock."""
    failures = []
    spent = set()
    for height, txs in blocks:
        for tx in txs:
            if tx.lock_height > height:
                failures.append(f"tx locked to {tx.lock_height} confirmed at {height}")
            for txin in tx.inputs:
                outpoint = (txin.prev_txid, txin.prev_index)
                if outpoint in spent:
                    failures.append(f"outpoint {txin.prev_txid.hex()[:12]} spent twice")
                spent.add(outpoint)
    return failures


def check_redeem_slot(
    rows: list[bytes], main_id: bytes, claimed_from: tuple[bytes, int],
    spender: bytes | None, redeem_id: bytes, claimed_slot: int,
) -> list[str]:
    """The session's stored row names the confirmed spender of the claimed output.

    ``claimed_slot`` is 1 for the joint refund and 2 for the fallback: the
    claimed output must belong to the transaction the row names there.
    """
    mine = [row for row in rows if row[:32] == main_id]
    if len(mine) != 1:
        return [f"{len(mine)} stored rows name payment {main_id.hex()[:12]}"]
    row = mine[0]
    failures = []
    slot_txid = row[32 * claimed_slot : 32 * (claimed_slot + 1)]
    if claimed_from[0] != slot_txid:
        failures.append("claimed output is not on the transaction the record names")
    if spender != redeem_id:
        failures.append("ledger does not report the redeem as the spender")
    if row[96:128] != redeem_id:
        failures.append("redeem slot does not name the confirmed spender")
    return failures


def oracle_joint_script_hash(xpub_point, chain_code: bytes, index: int,
                             masking_priv: int, refundee_point) -> bytes:
    """Script hash of the 2-of-2 joint refund, recomputed in affine arithmetic."""
    child = ref.ref_child_public(xpub_point, chain_code, index)
    masked = ref.ref_mask(child, masking_priv)
    script = bytes([2]) + ref.ref_encode(masked) + ref.ref_encode(refundee_point)
    return ref.ref_sha256d(script)[:20]


def check_script_hash(got: bytes, want: bytes) -> list[str]:
    if got != want:
        return [f"joint refund script hash {got.hex()} differs from the oracle's {want.hex()}"]
    return []


# -- mix_trials ----------------------------------------------------------------


def check_chunks_redeemed(spenders: list, redeem_ids: list[bytes], n_chunks: int) -> list[str]:
    failures = []
    if len(redeem_ids) != n_chunks:
        failures.append(f"{len(redeem_ids)} chunks redeemed, {n_chunks} emitted")
    for spender, redeem_id in zip(spenders, redeem_ids):
        if spender != redeem_id:
            failures.append("a chunk output is not spent by its redeem")
    return failures


def check_proofs(verdicts: list[bool], n_chunks: int) -> list[str]:
    if len(verdicts) != n_chunks or not all(verdicts):
        return [f"{sum(map(bool, verdicts))} of {n_chunks} chunk proofs verify"]
    return []


def check_feasible(count: int, chunks_per_customer: int, customers: int) -> list[str]:
    """Equal chunks and shared emission: every split of the chunks is feasible."""
    want = math.factorial(chunks_per_customer * customers) // (
        math.factorial(chunks_per_customer) ** customers
    )
    if count != want:
        return [f"{count} feasible assignments, exact count is {want}"]
    return []


def binomial_two_sided_p(successes: int, trials: int) -> float:
    """Exact two-sided binomial test against p = 1/2.

    Sums the probabilities of every outcome no more likely than the one
    observed, as scipy's ``binomtest`` does for a symmetric null.
    """
    total = 2**trials
    observed = math.comb(trials, successes)
    tail = sum(math.comb(trials, k) for k in range(trials + 1) if math.comb(trials, k) <= observed)
    return min(1.0, tail / total)


def check_chance(successes: int, trials: int, alpha: float) -> list[str]:
    p = binomial_two_sided_p(successes, trials)
    if p < alpha:
        return [f"target links guessed {successes}/{trials}, p={p:.3g} < {alpha}"]
    return []


# -- recovery_scan ------------------------------------------------------------------


def check_recovered(recovered: list[bytes], kept: list[bytes]) -> list[str]:
    if sorted(recovered) != sorted(kept):
        return [f"recovered {len(recovered)} records that differ from the {len(kept)} kept"]
    return []


def check_record_on_chain(row: bytes, ledger) -> list[str]:
    """All four txids confirmed; the redeem spends the joint refund or the fallback."""
    ids = [row[i : i + 32] for i in range(0, RECORD_SIZE, 32)]
    failures = [
        f"txid {tid.hex()[:12]} is not confirmed"
        for tid in ids
        if ledger.confirmation_height(tid) is None
    ]
    if failures:
        return failures
    _main, tc1_id, tc2_id, redeem_id = ids
    tc1 = ledger.get_transaction(tc1_id)
    redeem = ledger.get_transaction(redeem_id)
    spends_joint = any(
        txin.prev_txid == tc1_id
        and hasattr(tc1.outputs[txin.prev_index].script, "script_hash")
        for txin in redeem.inputs
    )
    spends_fallback = any(
        txin.prev_txid == tc2_id and txin.prev_index == 0 for txin in redeem.inputs
    )
    if not (spends_joint or spends_fallback):
        return ["redeem spends neither the joint refund nor the fallback"]
    return []
