"""Simulated chain: confirmation policy, search, spent tracking, dumps."""

import pytest

from refundsim.curve import SECP256K1
from refundsim.keys import ExtendedPublicKey, keygen, mask_child, unmask_child_private
from refundsim.ledger import SimLedger, UnknownOutput
from refundsim.transactions import (
    DataCarrier,
    FundingOutpoint,
    PayToPubkeyHash,
    RejectReason,
    TxOutput,
    build_funded_tx,
    build_main_tc,
    build_redeem,
    build_refund_tc1,
    build_refund_tc2,
    build_seed_tx,
    key_hash,
    two_of_two,
    txid,
)

C_PRIV, C_PUB = keygen(b"ledger-customer")
M_PRIV, M_PUB = keygen(b"ledger-merchant")
M2_PRIV, M2_PUB = keygen(b"ledger-merchant-2")
R_PRIV, R_PUB = keygen(b"ledger-refundee")
PAY_PRIV, PAY_PUB = keygen(b"ledger-payment-address")
XPUB = ExtendedPublicKey(C_PUB, b"\x33" * 32)


def seeded_ledger():
    ledger = SimLedger()
    seed = build_seed_tx([(C_PUB, 50_000), (M_PUB, 100_000), (M2_PUB, 100_000)])
    assert ledger.broadcast(seed)
    ledger.advance_height(1)
    return ledger, txid(seed)


def test_broadcast_confirms_after_advance():
    ledger, sid = seeded_ledger()
    tx = build_main_tc(
        [FundingOutpoint(sid, 0, 50_000)], PAY_PUB, 50_000, [XPUB], [(C_PRIV, C_PUB)], []
    )
    assert ledger.broadcast(tx)
    assert ledger.unspent_output(txid(tx), 0) is None  # mempool only
    ledger.advance_height(1)
    assert ledger.unspent_output(txid(tx), 0) is not None


def test_mempool_first_seen_wins():
    ledger, sid = seeded_ledger()
    first = build_main_tc(
        [FundingOutpoint(sid, 0, 50_000)], PAY_PUB, 50_000, [XPUB], [(C_PRIV, C_PUB)], []
    )
    second = build_main_tc(
        [FundingOutpoint(sid, 0, 50_000)], R_PUB, 50_000, [XPUB], [(C_PRIV, C_PUB)], []
    )
    assert ledger.broadcast(first)
    result = ledger.broadcast(second)
    assert not result and result.reason is RejectReason.DOUBLE_SPEND
    ledger.advance_height(1)
    assert ledger.is_spent(sid, 0) == (True, txid(first))


def test_locked_tx_waits_then_confirms():
    ledger, sid = seeded_ledger()
    masked = mask_child(C_PUB, M_PRIV)
    tc2 = build_refund_tc2(
        masked, 60_000, [FundingOutpoint(sid, 1, 100_000)], M_PUB, M_PRIV,
        lock_height=4, current_height=1,
    )
    assert ledger.broadcast(tc2)
    ledger.advance_height(1)
    assert ledger.confirmation_height(txid(tc2)) is None
    ledger.advance_height(2)  # height 4
    assert ledger.confirmation_height(txid(tc2)) == 4


def test_locked_txs_confirm_in_lock_order():
    ledger, sid = seeded_ledger()
    masked = mask_child(C_PUB, M_PRIV)
    late = build_refund_tc2(
        masked, 60_000, [FundingOutpoint(sid, 1, 100_000)], M_PUB, M_PRIV,
        lock_height=6, current_height=1,
    )
    masked2 = mask_child(R_PUB, M2_PRIV)
    soon = build_refund_tc2(
        masked2, 60_000, [FundingOutpoint(sid, 2, 100_000)], M2_PUB, M2_PRIV,
        lock_height=3, current_height=1,
    )
    assert ledger.broadcast(late)
    assert ledger.broadcast(soon)
    ledger.advance_height(10)
    assert ledger.confirmation_height(txid(soon)) == 3
    assert ledger.confirmation_height(txid(late)) == 6


def test_advance_requires_positive():
    ledger, _ = seeded_ledger()
    with pytest.raises(ValueError):
        ledger.advance_height(0)


def test_is_spent_unknown_output():
    ledger, sid = seeded_ledger()
    with pytest.raises(UnknownOutput):
        ledger.is_spent(b"\x00" * 32, 0)
    assert ledger.is_spent(sid, 0) == (False, None)


def txids(found):
    return [tid for tid, _tx in found]


def test_find_by_pubkey_roles_full_flow():
    """Each key finds the transactions it takes part in: the payment key its
    payment, funding keys their refunds, the masked key its redeem."""
    ledger, sid = seeded_ledger()
    fresh_priv, fresh_pub = keygen(b"unused-key")
    assert ledger.find_by_pubkey(fresh_pub) == []

    main = build_main_tc(
        [FundingOutpoint(sid, 0, 50_000)], PAY_PUB, 50_000, [XPUB], [(C_PRIV, C_PUB)], []
    )
    assert ledger.broadcast(main)
    ledger.advance_height(1)
    assert ledger.find_by_pubkey(PAY_PUB) == [(txid(main), main)]

    masked_key = mask_child(C_PUB, M_PRIV)
    tc1 = build_refund_tc1(
        [((masked_key,), R_PUB, 30_000)],
        [FundingOutpoint(sid, 1, 100_000)], M_PUB, M_PRIV,
    )
    tc2 = build_refund_tc2(
        masked_key, 30_000, [FundingOutpoint(sid, 2, 100_000)],
        M2_PUB, M2_PRIV, lock_height=4, current_height=ledger.height,
    )
    assert ledger.broadcast(tc1) and ledger.broadcast(tc2)
    ledger.advance_height(2)

    assert txid(tc1) in txids(ledger.find_by_pubkey(M_PUB))
    assert txid(tc2) in txids(ledger.find_by_pubkey(M2_PUB))

    script = two_of_two(masked_key, R_PUB)
    masked_priv = unmask_child_private(C_PRIV, M_PUB)
    redeem = build_redeem(
        tc1, 0, [(masked_priv, masked_key), (R_PRIV, R_PUB)],
        R_PUB, script,
    )
    assert ledger.broadcast(redeem)
    ledger.advance_height(1)
    # the fallback pays the masked key's hash; the redeem reveals the key
    assert txids(ledger.find_by_pubkey(masked_key)) == [txid(tc2), txid(redeem)]
    # the embedded extended key is searchable through the data carrier
    assert txid(main) in txids(ledger.find_by_pubkey(C_PUB))
    # spender id recorded
    assert ledger.is_spent(txid(tc1), 0) == (True, txid(redeem))


def scan_by_pubkey(ledger, pub):
    """find_by_pubkey by definition: every confirmed transaction in which the
    key signs an input, is in a revealed script, is paid by hash, or is
    embedded in a data-carrier payload."""
    needle_hash, needle_enc = key_hash(pub), SECP256K1.encode_point(pub)

    def involves(tx):
        return any(
            any(wpub == pub for _sig, wpub in txin.witness)
            or (txin.reveal_script is not None and pub in txin.reveal_script.keys)
            for txin in tx.inputs
        ) or any(
            (isinstance(o.script, PayToPubkeyHash) and o.script.pubkey_hash == needle_hash)
            or (isinstance(o.script, DataCarrier) and needle_enc in o.script.payload)
            for o in tx.outputs
        )

    return [(tid, tx) for _height, tid, tx in ledger.all_confirmed() if involves(tx)]


def test_find_by_pubkey_matches_full_scan():
    """The key index finds what scanning every confirmed transaction finds."""
    ledger = SimLedger()
    seed = build_seed_tx([
        (C_PUB, 50_000), (M_PUB, 100_000), (M2_PUB, 100_000),
        (R_PUB, 20_000), (PAY_PUB, 20_000),
    ])
    assert ledger.broadcast(seed)
    ledger.advance_height(1)
    sid = txid(seed)
    main = build_main_tc(
        [FundingOutpoint(sid, 0, 50_000)], PAY_PUB, 50_000, [XPUB], [(C_PRIV, C_PUB)], []
    )
    masked_key = mask_child(C_PUB, M_PRIV)
    tc1 = build_refund_tc1(
        [((masked_key,), R_PUB, 30_000)], [FundingOutpoint(sid, 1, 100_000)], M_PUB, M_PRIV,
    )
    tc2 = build_refund_tc2(
        masked_key, 30_000, [FundingOutpoint(sid, 2, 100_000)],
        M2_PUB, M2_PRIV, lock_height=3, current_height=ledger.height,
    )
    # a key embedded at a non-zero payload offset
    _, offset_pub = keygen(b"ledger-offset-key")
    carrier = DataCarrier(b"\x07" * 5 + SECP256K1.encode_point(offset_pub) + b"\x07")
    offset_tx = build_funded_tx(
        [TxOutput(0, carrier)], [FundingOutpoint(sid, 3, 20_000)], (R_PRIV, R_PUB)
    )
    for tx in (main, tc1, tc2, offset_tx):
        assert ledger.broadcast(tx)
    ledger.advance_height(2)
    script = two_of_two(masked_key, R_PUB)
    masked_priv = unmask_child_private(C_PRIV, M_PUB)
    redeem = build_redeem(
        tc1, 0, [(masked_priv, masked_key), (R_PRIV, R_PUB)], R_PUB, script
    )
    assert ledger.broadcast(redeem)
    # a key paid only by a transaction waiting in the mempool
    _, late_pub = keygen(b"ledger-late-key")
    late = build_funded_tx(
        [TxOutput(20_000, PayToPubkeyHash(key_hash(late_pub)))],
        [FundingOutpoint(sid, 4, 20_000)], (PAY_PRIV, PAY_PUB), lock_height=10,
    )
    assert ledger.broadcast(late)
    ledger.advance_height(1)
    assert txid(late) in ledger.mempool

    _, fresh_pub = keygen(b"unused-key")
    keys = [C_PUB, M_PUB, M2_PUB, R_PUB, PAY_PUB, masked_key, offset_pub, late_pub, fresh_pub]
    for pub in keys:
        assert ledger.find_by_pubkey(pub) == scan_by_pubkey(ledger, pub), pub
    assert ledger.find_by_pubkey(offset_pub) == [(txid(offset_tx), offset_tx)]
    assert ledger.find_by_pubkey(late_pub) == []

    ledger.advance_height(10 - ledger.height)
    for pub in keys:
        assert ledger.find_by_pubkey(pub) == scan_by_pubkey(ledger, pub), pub
    assert ledger.find_by_pubkey(late_pub) == [(txid(late), late)]
    assert len(ledger.find_by_pubkey(R_PUB)) > 2


def test_utxo_replay_matches():
    ledger, sid = seeded_ledger()
    main = build_main_tc(
        [FundingOutpoint(sid, 0, 50_000)], PAY_PUB, 50_000, [XPUB], [(C_PRIV, C_PUB)], []
    )
    ledger.broadcast(main)
    ledger.advance_height(1)
    replayed = {}
    spent = set()
    for _h, tid, tx in ledger.all_confirmed():
        for txin in tx.inputs:
            spent.add((txin.prev_txid, txin.prev_index))
        for i, out in enumerate(tx.outputs):
            if not isinstance(out.script, DataCarrier):
                replayed[(tid, i)] = out
    replayed = {k: v for k, v in replayed.items() if k not in spent}
    assert replayed == ledger.utxo_snapshot()


def test_no_confirmed_double_spends_scan():
    ledger, sid = seeded_ledger()
    first = build_main_tc(
        [FundingOutpoint(sid, 0, 50_000)], PAY_PUB, 50_000, [XPUB], [(C_PRIV, C_PUB)], []
    )
    second = build_main_tc(
        [FundingOutpoint(sid, 0, 50_000)], R_PUB, 50_000, [XPUB], [(C_PRIV, C_PUB)], []
    )
    ledger.broadcast(first)
    ledger.broadcast(second)
    ledger.advance_height(3)
    seen = set()
    for _h, _tid, tx in ledger.all_confirmed():
        for txin in tx.inputs:
            key = (txin.prev_txid, txin.prev_index)
            assert key not in seen
            seen.add(key)


def test_dump_lines_shape():
    ledger, sid = seeded_ledger()
    lines = ledger.dump_lines()
    assert len(lines) == 1
    assert lines[0].startswith("height=1 ")
    assert sid.hex() in lines[0]
    assert "raw=" in lines[0]
    raw_hex = lines[0].split("raw=")[1]
    from refundsim.transactions import deserialize_tx

    assert txid(deserialize_tx(bytes.fromhex(raw_hex))) == sid


def test_duplicate_txid_rejected_when_confirmed():
    ledger = SimLedger()
    seed = build_seed_tx([(C_PUB, 100_000), (M_PUB, 100_000)])
    assert ledger.broadcast(seed)
    ledger.advance_height(1)
    again = ledger.broadcast(seed)
    assert not again and again.reason is RejectReason.DOUBLE_SPEND
    ledger.advance_height(1)
    assert [tid for _h, tid, _tx in ledger.all_confirmed()] == [txid(seed)]
    assert sum(out.value for out in ledger.utxo_snapshot().values()) == 200_000


def test_duplicate_txid_rejected_in_same_mempool():
    ledger = SimLedger()
    seed = build_seed_tx([(C_PUB, 100_000), (M_PUB, 100_000)])
    assert ledger.broadcast(seed)
    again = ledger.broadcast(seed)
    assert not again and again.reason is RejectReason.DOUBLE_SPEND
    ledger.advance_height(1)
    assert [len(block) for _h, block in ledger.blocks] == [1]
    assert [tid for _h, tid, _tx in ledger.all_confirmed()] == [txid(seed)]
    assert ledger.confirmation_height(txid(seed)) == 1


def test_each_signature_verified_once(monkeypatch):
    """Admission checks every witness; confirmation re-checks nothing."""
    from refundsim import transactions

    ledger, sid = seeded_ledger()
    masked_key = mask_child(C_PUB, M_PRIV)
    tc1 = build_refund_tc1(
        [((masked_key,), R_PUB, 30_000)],
        [FundingOutpoint(sid, 1, 100_000)], M_PUB, M_PRIV,
    )
    calls = 0
    real_verify = transactions.schnorr_verify

    def counting_verify(*args):
        nonlocal calls
        calls += 1
        return real_verify(*args)

    monkeypatch.setattr(transactions, "schnorr_verify", counting_verify)
    admitted = []  # (tx, height when broadcast)

    def admit(tx):
        assert ledger.broadcast(tx)
        admitted.append((tx, ledger.height))

    admit(tc1)
    ledger.advance_height(1)
    admit(build_main_tc(  # P2PKH spend
        [FundingOutpoint(sid, 0, 50_000)], PAY_PUB, 50_000, [XPUB], [(C_PRIV, C_PUB)], []
    ))
    admit(build_redeem(  # 2-of-2 redeem
        tc1, 0,
        [(unmask_child_private(C_PRIV, M_PUB), masked_key), (R_PRIV, R_PUB)],
        R_PUB, two_of_two(masked_key, R_PUB),
    ))
    admit(build_refund_tc2(  # time-locked fallback
        masked_key, 30_000, [FundingOutpoint(sid, 2, 100_000)],
        M2_PUB, M2_PRIV, lock_height=6, current_height=ledger.height,
    ))
    ledger.advance_height(6)

    signatures = sum(len(txin.witness) for tx, _h in admitted for txin in tx.inputs)
    assert signatures == 5
    assert calls == signatures
    for tx, height in admitted:
        assert ledger.confirmation_height(txid(tx)) == max(height + 1, tx.lock_height)
