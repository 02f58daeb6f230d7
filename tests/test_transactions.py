"""Transaction model: serialization, signing, builders, validation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from refundsim.curve import SECP256K1
from refundsim.keys import ExtendedPublicKey, keygen, mask_child, unmask_child_private
from refundsim.ledger import SimLedger
from refundsim.transactions import (
    BadLockHeight,
    DataCarrier,
    FundingOutpoint,
    InsufficientFunds,
    MissingSigner,
    NOfNScript,
    PayToPubkeyHash,
    PayloadTooLarge,
    RejectReason,
    ScriptHash,
    ScriptMismatch,
    Transaction,
    TxInput,
    TxOutput,
    build_funded_tx,
    build_main_tc,
    build_redeem,
    build_refund_tc1,
    build_refund_tc2,
    build_seed_tx,
    deserialize_tx,
    key_hash,
    schnorr_sign,
    schnorr_verify,
    serialize_tx,
    signing_digest,
    two_of_two,
    txid,
    validate,
)

C_PRIV, C_PUB = keygen(b"tx-customer")
M_PRIV, M_PUB = keygen(b"tx-merchant")
R_PRIV, R_PUB = keygen(b"tx-refundee")
XPUB = ExtendedPublicKey(C_PUB, b"\x22" * 32)


def fresh_chain(payouts):
    ledger = SimLedger()
    seed = build_seed_tx(payouts)
    assert ledger.broadcast(seed)
    ledger.advance_height(1)
    return ledger, seed, txid(seed)


# -- serialization and txid -----------------------------------------------------


def test_seed_txid_matches_documented_layout():
    """Rebuild the byte layout by hand and hash it with the oracle."""
    tx = build_seed_tx([(C_PUB, 1234)])
    manual = b"".join(
        [
            (1).to_bytes(4, "little"),  # version
            (0).to_bytes(4, "little"),  # input count
            (1).to_bytes(4, "little"),  # output count
            (1234).to_bytes(8, "little"),  # value
            bytes([1]),  # p2pkh tag
            ref.ref_sha256d(ref.ref_encode(C_PUB))[:20],
            (0).to_bytes(4, "little"),  # lock height
        ]
    )
    assert serialize_tx(tx) == manual
    assert txid(tx) == ref.ref_sha256d(manual)


def test_roundtrip_preserves_txid():
    tx = build_seed_tx([(C_PUB, 50_000), (M_PUB, 70_000)])
    again = deserialize_tx(serialize_tx(tx))
    assert again == tx
    assert txid(again) == txid(tx)


def test_roundtrip_with_witness_and_script():
    ledger, seed, sid = fresh_chain([(C_PUB, 10_000)])
    script = two_of_two(C_PUB, R_PUB)
    spend = Transaction(
        (TxInput(sid, 0, ((b"\x01" * 64, C_PUB),), script),),
        (TxOutput(10_000, PayToPubkeyHash(key_hash(R_PUB))),),
        lock_height=7,
    )
    assert deserialize_tx(serialize_tx(spend)) == spend


def test_bit_flip_changes_txid():
    tx = build_seed_tx([(C_PUB, 50_000)])
    flipped = Transaction(
        tx.inputs,
        (TxOutput(50_001, tx.outputs[0].script),),
        tx.lock_height,
    )
    assert txid(flipped) != txid(tx)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.integers(min_value=1, max_value=2**48), min_size=1, max_size=4),
    lock=st.integers(min_value=0, max_value=2**31),
    payload=st.binary(min_size=0, max_size=80),
)
def test_property_serialization_roundtrip(values, lock, payload):
    outputs = [TxOutput(v, PayToPubkeyHash(key_hash(C_PUB))) for v in values]
    outputs.append(TxOutput(0, DataCarrier(payload)))
    tx = Transaction((), tuple(outputs), lock)
    assert deserialize_tx(serialize_tx(tx)) == tx


def test_value_zero_iff_data_carrier():
    with pytest.raises(ValueError):
        TxOutput(0, PayToPubkeyHash(key_hash(C_PUB)))
    with pytest.raises(ValueError):
        TxOutput(5, DataCarrier(b"x"))


def test_data_carrier_cap():
    with pytest.raises(PayloadTooLarge):
        DataCarrier(b"y" * 81)


# -- signatures --------------------------------------------------------------------


def test_schnorr_sign_verify():
    digest = ref.ref_sha256d(b"message")
    sig = schnorr_sign(C_PRIV, C_PUB, digest)
    assert len(sig) == 64
    assert schnorr_verify(C_PUB, sig, digest)
    assert not schnorr_verify(M_PUB, sig, digest)
    assert not schnorr_verify(C_PUB, sig, ref.ref_sha256d(b"other"))


def test_schnorr_sign_with_mismatched_pubkey_fails():
    """The signer commits to the public key it is handed, not one it derives."""
    digest = ref.ref_sha256d(b"message")
    sig = schnorr_sign(C_PRIV, M_PUB, digest)
    assert not schnorr_verify(C_PUB, sig, digest)
    assert not schnorr_verify(M_PUB, sig, digest)


def test_schnorr_deterministic():
    digest = ref.ref_sha256d(b"message")
    assert schnorr_sign(C_PRIV, C_PUB, digest) == schnorr_sign(C_PRIV, C_PUB, digest)


@settings(max_examples=30, deadline=None)
@given(tweak=st.integers(min_value=0, max_value=63), bit=st.integers(0, 7))
def test_property_sig_malleation_fails(tweak, bit):
    digest = ref.ref_sha256d(b"message")
    sig = bytearray(schnorr_sign(C_PRIV, C_PUB, digest))
    sig[tweak] ^= 1 << bit
    assert not schnorr_verify(C_PUB, bytes(sig), digest)


# -- builders ---------------------------------------------------------------------


def test_main_tc_structure():
    ledger, seed, sid = fresh_chain([(C_PUB, 50_000)])
    tx = build_main_tc(
        [FundingOutpoint(sid, 0, 50_000)], M_PUB, 50_000, [XPUB], [(C_PRIV, C_PUB)], []
    )
    assert tx.outputs[1].value == 0
    assert isinstance(tx.outputs[1].script, DataCarrier)
    assert ExtendedPublicKey.decode(tx.outputs[1].script.payload) == XPUB
    assert ledger.broadcast(tx)
    ledger.advance_height(1)
    assert ledger.unspent_output(txid(tx), 0).value == 50_000


def test_main_tc_insufficient_funds():
    _, _, sid = fresh_chain([(C_PUB, 10_000)])
    with pytest.raises(InsufficientFunds):
        build_main_tc(
            [FundingOutpoint(sid, 0, 10_000)], M_PUB, 50_000, [XPUB], [(C_PRIV, C_PUB)], []
        )


def test_main_tc_change():
    ledger, _, sid = fresh_chain([(C_PUB, 80_000)])
    tx = build_main_tc(
        [FundingOutpoint(sid, 0, 80_000)],
        M_PUB,
        50_000,
        [XPUB],
        [(C_PRIV, C_PUB)],
        [(C_PUB, 30_000)],
    )
    assert tx.outputs[-1].value == 30_000
    assert ledger.broadcast(tx)


def test_funded_tx_change_and_signatures():
    ledger, _, sid = fresh_chain([(M_PUB, 30_000), (M_PUB, 20_000)])
    funding = [FundingOutpoint(sid, 0, 30_000), FundingOutpoint(sid, 1, 20_000)]
    outs = [TxOutput(40_000, PayToPubkeyHash(key_hash(R_PUB)))]
    tx = build_funded_tx(outs, funding, (M_PRIV, M_PUB), lock_height=1)
    assert tx.outputs == (outs[0], TxOutput(10_000, PayToPubkeyHash(key_hash(M_PUB))))
    assert tx.lock_height == 1
    assert all(txin.witness[0][1] == M_PUB for txin in tx.inputs)
    assert ledger.broadcast(tx)
    exact = build_funded_tx(
        [TxOutput(30_000, PayToPubkeyHash(key_hash(R_PUB)))], funding[:1], (M_PRIV, M_PUB)
    )
    assert len(exact.outputs) == 1  # no zero-value change
    with pytest.raises(InsufficientFunds):
        build_funded_tx(outs, funding[1:], (M_PRIV, M_PUB))


def test_refund_tc1_output_counts():
    masked = mask_child(C_PUB, M_PRIV)
    for n in (1, 3):
        _, _, sid = fresh_chain([(M_PUB, 200_000)])
        refunds = [((masked,), R_PUB, 10_000 + i) for i in range(n)]
        tx = build_refund_tc1(
            refunds, [FundingOutpoint(sid, 0, 200_000)], M_PUB, M_PRIV
        )
        script_outs = [o for o in tx.outputs if isinstance(o.script, ScriptHash)]
        assert len(script_outs) == n
        assert tx.outputs[-1].script == PayToPubkeyHash(key_hash(M_PUB))  # change


def test_refund_tc1_insufficient():
    masked = mask_child(C_PUB, M_PRIV)
    _, _, sid = fresh_chain([(M_PUB, 5_000)])
    with pytest.raises(InsufficientFunds):
        build_refund_tc1(
            [((masked,), R_PUB, 10_000)], [FundingOutpoint(sid, 0, 5_000)], M_PUB, M_PRIV
        )


def test_refund_tc2_lock_checks():
    masked = mask_child(C_PUB, M_PRIV)
    _, _, sid = fresh_chain([(M_PUB, 50_000)])
    with pytest.raises(BadLockHeight):
        build_refund_tc2(
            masked, 30_000, [FundingOutpoint(sid, 0, 50_000)], M_PUB, M_PRIV,
            lock_height=1, current_height=1,
        )
    tx = build_refund_tc2(
        masked, 30_000, [FundingOutpoint(sid, 0, 50_000)], M_PUB, M_PRIV,
        lock_height=10, current_height=1,
    )
    assert tx.lock_height == 10
    assert tx.outputs[0].value == 30_000


def test_redeem_two_of_two_both_signers():
    ledger, _, sid = fresh_chain([(M_PUB, 50_000)])
    masked_key = mask_child(C_PUB, M_PRIV)
    tc1 = build_refund_tc1(
        [((masked_key,), R_PUB, 30_000)],
        [FundingOutpoint(sid, 0, 50_000)],
        M_PUB,
        M_PRIV,
    )
    assert ledger.broadcast(tc1)
    ledger.advance_height(1)
    script = two_of_two(masked_key, R_PUB)
    masked_priv = unmask_child_private(C_PRIV, M_PUB)
    redeem = build_redeem(
        tc1, 0, [(masked_priv, masked_key), (R_PRIV, R_PUB)],
        R_PUB, script,
    )
    assert ledger.broadcast(redeem)
    ledger.advance_height(1)
    assert ledger.is_spent(txid(tc1), 0) == (True, txid(redeem))


def test_redeem_missing_signer():
    _, _, sid = fresh_chain([(M_PUB, 50_000)])
    masked = mask_child(C_PUB, M_PRIV)
    tc1 = build_refund_tc1(
        [((masked,), R_PUB, 30_000)], [FundingOutpoint(sid, 0, 50_000)], M_PUB, M_PRIV
    )
    with pytest.raises(MissingSigner):
        build_redeem(tc1, 0, [(R_PRIV, R_PUB)], R_PUB, two_of_two(masked, R_PUB))


def test_redeem_script_mismatch():
    _, _, sid = fresh_chain([(M_PUB, 50_000)])
    masked = mask_child(C_PUB, M_PRIV)
    tc1 = build_refund_tc1(
        [((masked,), R_PUB, 30_000)], [FundingOutpoint(sid, 0, 50_000)], M_PUB, M_PRIV
    )
    with pytest.raises(ScriptMismatch):
        build_redeem(
            tc1, 0, [(C_PRIV, C_PUB), (R_PRIV, R_PUB)], R_PUB,
            two_of_two(C_PUB, R_PUB),  # wrong script preimage
        )


def test_redeem_p2pkh_with_unmasked_child():
    """End-to-end: a masked fallback key redeems its own time-locked output."""
    ledger, _, sid = fresh_chain([(M_PUB, 50_000)])
    child_priv, child_pub = keygen(b"fallback-child")
    masked_key = mask_child(child_pub, M_PRIV)
    tc2 = build_refund_tc2(
        masked_key, 30_000, [FundingOutpoint(sid, 0, 50_000)],
        M_PUB, M_PRIV, lock_height=3, current_height=1,
    )
    assert ledger.broadcast(tc2)
    ledger.advance_height(1)
    assert ledger.unspent_output(txid(tc2), 0) is None  # still locked
    ledger.advance_height(1)  # height 3 = lock
    masked_priv = unmask_child_private(child_priv, M_PUB)
    redeem = build_redeem(
        tc2, 0, [(masked_priv, masked_key)], child_pub
    )
    assert ledger.broadcast(redeem)
    ledger.advance_height(1)
    assert ledger.is_spent(txid(tc2), 0)[0]


# -- validation -------------------------------------------------------------------


def test_validate_double_spend_reason():
    ledger, _, sid = fresh_chain([(C_PUB, 10_000)])
    spend = build_main_tc(
        [FundingOutpoint(sid, 0, 10_000)], M_PUB, 10_000, [XPUB], [(C_PRIV, C_PUB)], []
    )
    assert ledger.broadcast(spend)
    ledger.advance_height(1)
    again = build_main_tc(
        [FundingOutpoint(sid, 0, 10_000)], R_PUB, 10_000, [XPUB], [(C_PRIV, C_PUB)], []
    )
    result = validate(again, ledger)
    assert not result and result.reason is RejectReason.DOUBLE_SPEND


def test_validate_unknown_input():
    ledger, _, _ = fresh_chain([(C_PUB, 10_000)])
    ghost = Transaction(
        (TxInput(b"\x99" * 32, 0),),
        (TxOutput(1, PayToPubkeyHash(key_hash(C_PUB))),),
    )
    result = validate(ghost, ledger)
    assert result.reason is RejectReason.UNKNOWN_INPUT


def test_validate_lock_boundary_inclusive():
    """Locked strictly below the lock height, spendable exactly at it."""
    ledger, _, sid = fresh_chain([(M_PUB, 50_000)])
    masked_key = mask_child(C_PUB, M_PRIV)
    lock = 5
    tc2 = build_refund_tc2(
        masked_key, 30_000, [FundingOutpoint(sid, 0, 50_000)],
        M_PUB, M_PRIV, lock_height=lock, current_height=1,
    )
    assert ledger.broadcast(tc2)
    while ledger.height < lock - 1:
        ledger.advance_height(1)
    masked_priv = unmask_child_private(C_PRIV, M_PUB)
    redeem = build_redeem(
        tc2, 0, [(masked_priv, masked_key)], C_PUB
    )
    early = validate(redeem, ledger)
    assert not early and early.reason is RejectReason.LOCKED
    ledger.advance_height(1)  # now exactly at the lock: tc2 confirms here
    assert validate(redeem, ledger)


def test_validate_value_mismatch():
    ledger, _, sid = fresh_chain([(C_PUB, 10_000)])
    digestless = Transaction(
        (TxInput(sid, 0),),
        (TxOutput(9_999, PayToPubkeyHash(key_hash(M_PUB))),),
    )
    from refundsim.transactions import _sign_all

    bad = _sign_all(digestless, [([(C_PRIV, C_PUB)], None)])
    result = validate(bad, ledger)
    assert result.reason is RejectReason.VALUE_MISMATCH


def test_two_of_two_soundness_fuzz():
    """No single-key witness ever satisfies a 2-of-2 commitment."""
    ledger, _, sid = fresh_chain([(M_PUB, 50_000)])
    masked_key = mask_child(C_PUB, M_PRIV)
    tc1 = build_refund_tc1(
        [((masked_key,), R_PUB, 30_000)],
        [FundingOutpoint(sid, 0, 50_000)],
        M_PUB, M_PRIV,
    )
    assert ledger.broadcast(tc1)
    ledger.advance_height(1)
    script = two_of_two(masked_key, R_PUB)
    masked_priv = unmask_child_private(C_PRIV, M_PUB)
    rng = random.Random(17)
    keypairs = [
        (masked_priv, masked_key),
        (R_PRIV, R_PUB),
        keygen(b"unrelated"),
    ]
    for _ in range(60):
        priv, pub = keypairs[rng.randrange(len(keypairs))]
        shell = Transaction(
            (TxInput(txid(tc1), 0),),
            (TxOutput(30_000, PayToPubkeyHash(key_hash(R_PUB))),),
        )
        digest = signing_digest(shell)
        # single-key witnesses, both with and without the revealed script
        witness = ((schnorr_sign(priv, pub, digest), pub),)
        candidates = [
            Transaction(
                (TxInput(txid(tc1), 0, witness, script),), shell.outputs
            ),
            Transaction(
                (TxInput(txid(tc1), 0, witness, None),), shell.outputs
            ),
            Transaction(
                (TxInput(txid(tc1), 0, witness + witness, script),), shell.outputs
            ),
        ]
        for cand in candidates:
            assert not validate(cand, ledger)


def test_timelock_monotonicity():
    """Rejected as locked at height h, accepted at every height >= lock."""
    masked = mask_child(C_PUB, M_PRIV)
    lock = 6
    for final_height in range(2, 10):
        ledger, _, sid = fresh_chain([(M_PUB, 50_000)])
        tc2 = build_refund_tc2(
            masked, 30_000, [FundingOutpoint(sid, 0, 50_000)],
            M_PUB, M_PRIV, lock_height=lock, current_height=1,
        )
        result = validate(tc2, ledger)
        if final_height > 1:
            ledger.advance_height(final_height - 1)
        result = validate(tc2, ledger)
        if final_height >= lock:
            assert result.accepted
        else:
            assert result.reason is RejectReason.LOCKED


def test_nofn_script_bounds():
    with pytest.raises(ScriptMismatch):
        NOfNScript((C_PUB,))
    with pytest.raises(ScriptMismatch):
        NOfNScript((C_PUB, M_PUB, R_PUB, C_PUB, M_PUB))
    three = NOfNScript((C_PUB, M_PUB, R_PUB))
    assert len(three.script_hash()) == 20
    assert NOfNScript.decode(three.encode()) == three


def _with_reveal(script_bytes):
    """A one-input transaction whose input reveals the given script bytes."""
    script = two_of_two(C_PUB, M_PUB)
    tx = Transaction(
        (TxInput(bytes(32), 0, (), script),), (TxOutput(1_000, PayToPubkeyHash(bytes(20))),)
    )
    raw = serialize_tx(tx)
    assert raw.count(script.encode()) == 1
    return raw.replace(script.encode(), script_bytes)


@pytest.mark.parametrize("keys", [(C_PUB,), (C_PUB, M_PUB, R_PUB, C_PUB, M_PUB)])
def test_deserialize_multisig_key_count_raises_value_error(keys):
    raw = _with_reveal(bytes([len(keys)]) + b"".join(SECP256K1.encode_point(k) for k in keys))
    with pytest.raises(ValueError):
        deserialize_tx(raw)


def test_deserialize_oversized_data_carrier_raises_value_error():
    payload = b"\x5a" * 80
    tx = Transaction((), (TxOutput(0, DataCarrier(payload)),))
    raw = serialize_tx(tx)
    assert deserialize_tx(raw) == tx
    carrier = b"\x03" + bytes([80]) + payload
    assert raw.count(carrier) == 1
    raw = raw.replace(carrier, b"\x03" + bytes([81]) + payload + b"\x5a")
    with pytest.raises(ValueError):
        deserialize_tx(raw)
