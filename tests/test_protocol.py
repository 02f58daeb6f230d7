"""Actor protocol: messages, sealing, sessions, refund issuance, redemption."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from refundsim import aead, dispute, keys, protocol
from refundsim.curve import SECP256K1
from refundsim.keys import (
    DegenerateChild,
    KeyMismatch,
    derive_child_private,
    dh_shared,
    keygen,
    unmask_child_private,
)
from refundsim.protocol import (
    AlreadySpent,
    AmountMismatch,
    BadTransaction,
    CustomerWallet,
    Locked,
    PaymentAck,
    PaymentMsg,
    PaymentRequest,
    RefundAddressUpdate,
    RefundEntry,
    RefundNotFound,
    RequestBadSignature,
    RequestExpired,
    SealedRefundTo,
    SessionState,
    UndecryptableRefundTo,
    UnknownSession,
    WindowExpired,
    pay_joint,
    seal_refund_entries,
    unseal_refund_entries,
)
from refundsim.transactions import (
    FundingOutpoint,
    InsufficientFunds,
    MissingSigner,
    NOfNScript,
    PayToPubkeyHash,
    ScriptHash,
    TxOutput,
    build_main_tc,
    build_redeem,
    key_hash,
    signer_keys,
    txid,
)

R_PRIV, R_PUB = keygen(b"proto-refundee")


# -- wire round trips -------------------------------------------------------------


def test_refund_entry_roundtrip_point_and_xpub():
    plain = RefundEntry(R_PUB, 1000)
    assert RefundEntry.decode(plain.encode()) == plain
    wallet = CustomerWallet(b"entry-xpub")
    extended = RefundEntry(wallet.xpub, 2000, cosigner_pubkey=R_PUB)
    assert RefundEntry.decode(extended.encode()) == extended


def test_message_roundtrips(paid_session):
    harness, alice, _, request, msg = paid_session
    assert PaymentRequest.decode(request.encode()) == request
    assert PaymentMsg.decode(msg.encode()) == msg
    update = RefundAddressUpdate(request.merchant_data, (RefundEntry(R_PUB, 30_000),))
    assert RefundAddressUpdate.decode(update.encode()) == update


@settings(max_examples=30, deadline=None)
@given(
    value=st.integers(min_value=1, max_value=2**40),
    memo=st.text(max_size=40),
    data=st.binary(min_size=1, max_size=24),
)
def test_property_payment_msg_roundtrip(value, memo, data):
    entry = RefundEntry(R_PUB, value)
    msg = PaymentMsg(data, (), (entry,), None, memo)
    assert PaymentMsg.decode(msg.encode()) == msg


def test_sealing_roundtrip_and_tamper():
    c_priv, c_pub = keygen(b"seal-customer")
    m_priv, m_pub = keygen(b"seal-merchant")
    entries = (RefundEntry(R_PUB, 500), RefundEntry(R_PUB, 700))
    secret = dh_shared(c_priv, m_pub)
    blob = seal_refund_entries(entries, secret, b"order-1")
    assert unseal_refund_entries(blob, dh_shared(m_priv, c_pub), b"order-1") == entries
    with pytest.raises(UndecryptableRefundTo):
        unseal_refund_entries(blob, dh_shared(m_priv, R_PUB), b"order-1")
    with pytest.raises(UndecryptableRefundTo):
        tampered = blob[:-1] + bytes([blob[-1] ^ 1])
        unseal_refund_entries(tampered, dh_shared(m_priv, c_pub), b"order-1")


# -- payment requests ------------------------------------------------------------


def test_request_freshness(harness):
    first = harness.merchant.create_request(10_000)
    second = harness.merchant.create_request(10_000)
    assert first.merchant_pubkey != second.merchant_pubkey
    assert first.payment_address != second.payment_address
    assert first.merchant_data != second.merchant_data


def test_request_signature_verifies(harness):
    alice = harness.customer("alice")
    request = harness.merchant.create_request(10_000)
    alice.verify_request(request)  # no raise


def test_request_tamper_detected(harness):
    alice = harness.customer("alice")
    request = harness.merchant.create_request(10_000)
    forged = dataclasses.replace(request, amount=1)
    with pytest.raises(RequestBadSignature):
        alice.verify_request(forged)


def test_request_expiry(harness):
    alice = harness.customer("alice")
    harness.fund([(alice, 50_000)])
    request = harness.merchant.create_request(10_000)
    harness.ledger.advance_height(request.expires_at + 1)
    with pytest.raises(RequestExpired):
        alice.pay(request, [])


# -- paying ----------------------------------------------------------------------


def test_pay_rejects_excess_refund_plan(harness):
    alice = harness.customer("alice")
    harness.fund([(alice, 50_000)])
    request = harness.merchant.create_request(50_000)
    with pytest.raises(ValueError):
        alice.pay(request, [RefundEntry(R_PUB, 30_000), RefundEntry(R_PUB, 30_000)])


def test_pay_accepts_refund_plan_within_amount(harness):
    alice = harness.customer("alice")
    harness.fund([(alice, 50_000)])
    request = harness.merchant.create_request(50_000)
    msg = alice.pay(
        request, [RefundEntry(R_PUB, 30_000), RefundEntry(R_PUB, 20_000)]
    )
    assert sum(e.value for e in msg.refund_to) == 50_000


def test_pay_insufficient_funds(harness):
    alice = harness.customer("alice")
    harness.fund([(alice, 5_000)])
    request = harness.merchant.create_request(50_000)
    with pytest.raises(InsufficientFunds):
        alice.pay(request, [])


def test_co_payer_short_of_its_share_leaves_every_wallet_whole(harness):
    """When a later co-payer lacks its share, no wallet loses a coin (the
    earlier co-payers' selected coins used to vanish from their wallets),
    and the first can still pay alone."""
    dave = harness.customer("dave")
    eve = harness.customer("eve")
    harness.fund([(dave, 30_000), (eve, 10_000)])
    held = (list(dave.wallet.utxos), list(eve.wallet.utxos))
    request = harness.merchant.create_request(60_000)
    with pytest.raises(InsufficientFunds):
        pay_joint(request, [(dave, 30_000), (eve, 30_000)], [])
    assert (dave.wallet.utxos, eve.wallet.utxos) == held
    alone = harness.merchant.create_request(30_000)
    harness.merchant.process_payment(dave.pay(alone, []))
    assert dave.wallet.utxos == []


def test_encrypted_refund_to_roundtrip(harness):
    alice = harness.customer("alice")
    harness.fund([(alice, 50_000)])
    request = harness.merchant.create_request(50_000)
    msg = alice.pay(request, [RefundEntry(R_PUB, 30_000)], encrypt=True)
    assert msg.refund_to == ()
    assert isinstance(msg.sealed_refund_to, SealedRefundTo)
    harness.merchant.process_payment(msg)
    stored = harness.merchant.sessions[request.merchant_data].entries
    assert stored == (RefundEntry(R_PUB, 30_000),)


def test_sealed_refund_to_that_authenticates_but_does_not_parse(harness):
    """A sealed blob whose tag verifies under the merchant's key but whose
    plaintext is no entry list is UndecryptableRefundTo, a ProtocolError (it
    used to escape as a bare ValueError); the session stays Created and
    nothing is broadcast."""
    alice = harness.customer("alice")
    harness.fund([(alice, 50_000)])
    request = harness.merchant.create_request(50_000)
    msg = alice.pay(request, [RefundEntry(R_PUB, 30_000)], encrypt=True)
    md = request.merchant_data
    secret = dh_shared(alice.wallet.priv, request.merchant_pubkey)
    garbage = aead.encrypt(
        protocol._seal_key(secret), protocol._seal_nonce(md), b"\x00\x01\x05garbage", md
    )
    with pytest.raises(UndecryptableRefundTo, match="does not parse"):
        unseal_refund_entries(garbage, secret, md)
    forged = dataclasses.replace(
        msg, sealed_refund_to=SealedRefundTo(garbage, alice.wallet.pub)
    )
    with pytest.raises(UndecryptableRefundTo):
        harness.merchant.process_payment(forged)
    assert harness.merchant.sessions[md].state is SessionState.CREATED
    assert not harness.ledger.mempool


# -- merchant payment processing ----------------------------------------------------


def test_ack_copy_hash_matches(paid_session):
    harness, alice, _, request, msg = paid_session
    # second session to get a fresh ack
    harness.fund([(alice, 10_000)], merchant_keys=0)
    request2 = harness.merchant.create_request(10_000)
    msg2 = alice.pay(request2, [])
    ack = harness.merchant.process_payment(msg2)
    assert isinstance(ack, PaymentAck)
    assert ack.payment_copy.digest() == msg2.digest()


def test_process_payment_unknown_session(harness):
    with pytest.raises(UnknownSession):
        harness.merchant.process_payment(PaymentMsg(b"nope", ()))


def test_process_payment_wrong_address(harness):
    alice = harness.customer("alice")
    harness.fund([(alice, 50_000)])
    request = harness.merchant.create_request(50_000)
    other = harness.merchant.create_request(50_000)
    msg = alice.pay(request, [])
    forged = PaymentMsg(other.merchant_data, msg.transactions, (), None, "")
    with pytest.raises(AmountMismatch):
        harness.merchant.process_payment(forged)


def test_process_payment_replay_rejected(paid_session):
    harness, _alice, _, request, msg = paid_session
    with pytest.raises(BadTransaction):
        harness.merchant.process_payment(msg)


def test_session_expires_after_window(paid_session):
    harness, _alice, _, request, _msg = paid_session
    session = harness.merchant.refundable_session(request.merchant_data)
    harness.ledger.advance_height(harness.merchant.window_blocks + 1)
    with pytest.raises(WindowExpired):
        harness.merchant.refundable_session(request.merchant_data)
    assert session.state is SessionState.PAID  # expiry is judged, not stored
    with pytest.raises(WindowExpired):
        harness.merchant.issue_refund(request.merchant_data)


# -- refund address updates -----------------------------------------------------------


def test_email_update_replaces_entries(paid_session):
    harness, _alice, _, request, _msg = paid_session
    new_priv, new_pub = keygen(b"new-refundee")
    update = RefundAddressUpdate(request.merchant_data, (RefundEntry(new_pub, 30_000),))
    harness.merchant.update_refund_addresses(update)
    assert harness.merchant.sessions[request.merchant_data].entries == update.new_entries
    assert not harness.merchant.sessions[request.merchant_data].values_changed


def test_update_after_window_expired(paid_session):
    harness, _alice, _, request, _msg = paid_session
    harness.ledger.advance_height(harness.merchant.window_blocks + 1)
    update = RefundAddressUpdate(request.merchant_data, (RefundEntry(R_PUB, 30_000),))
    with pytest.raises(WindowExpired):
        harness.merchant.update_refund_addresses(update)


def test_update_unknown_session(harness):
    update = RefundAddressUpdate(b"ghost", (RefundEntry(R_PUB, 1),))
    with pytest.raises(UnknownSession):
        harness.merchant.update_refund_addresses(update)


# -- refund issuance ------------------------------------------------------------------


def test_issue_refund_single_entry(paid_session):
    harness, _alice, (_, r_pub), request, _msg = paid_session
    issue = harness.merchant.issue_refund(request.merchant_data)
    script_outs = [
        o for o in issue.tc1.outputs if isinstance(o.script, ScriptHash)
    ]
    assert len(script_outs) == 1
    assert issue.tc2.outputs[0].value == script_outs[0].value == 30_000
    assert issue.tc2.lock_height == (
        harness.ledger.height + harness.merchant.lock_blocks
    )
    assert dispute.record_size(issue.record) == 128


def test_issue_refund_three_entries(harness):
    alice = harness.customer("alice")
    harness.fund([(alice, 60_000)])
    request = harness.merchant.create_request(60_000)
    plan = [RefundEntry(keygen(b"r%d" % i)[1], 20_000) for i in range(3)]
    msg = alice.pay(request, plan)
    harness.merchant.process_payment(msg)
    harness.ledger.advance_height(1)
    issue = harness.merchant.issue_refund(request.merchant_data)
    script_outs = [o for o in issue.tc1.outputs if isinstance(o.script, ScriptHash)]
    assert len(script_outs) == 3
    assert len(issue.tc2s) == 1
    assert issue.tc2.outputs[0].value == 60_000  # one fallback carries the total
    assert len(issue.records) == 1 and dispute.record_size(issue.record) == 128


def test_child_key_addressing_recomputable_by_both_sides(paid_session):
    """Merchant-built script keys match the customer's own reconstruction."""
    harness, alice, (_, r_pub), request, _msg = paid_session
    issue = harness.merchant.issue_refund(request.merchant_data)
    harness.ledger.advance_height(1)
    m1_pub = issue.tc1.inputs[0].witness[0][1]
    for position, group in enumerate(issue.entry_keys):
        merchant_view = group[0]
        child_priv = alice.wallet.child_private(position)
        customer_view = SECP256K1.g_mul(unmask_child_private(child_priv, m1_pub))
        assert merchant_view == customer_view
        # and equals the committed script's first key
        script = NOfNScript((merchant_view, r_pub))
        assert (
            issue.tc1.outputs[position].script.script_hash == script.script_hash()
        )


def test_issue_refund_value_pairing_holds(harness):
    alice = harness.customer("alice")
    harness.fund([(alice, 90_000)])
    request = harness.merchant.create_request(90_000)
    plan = [
        RefundEntry(keygen(b"p%d" % i)[1], v)
        for i, v in enumerate((40_000, 30_000, 20_000))
    ]
    msg = alice.pay(request, plan)
    harness.merchant.process_payment(msg)
    harness.ledger.advance_height(1)
    issue = harness.merchant.issue_refund(request.merchant_data)
    tc1_total = sum(
        o.value for o in issue.tc1.outputs if isinstance(o.script, ScriptHash)
    )
    assert tc1_total == sum(t.outputs[0].value for t in issue.tc2s) == 90_000


# -- customer redemption ---------------------------------------------------------------


def test_joint_redeem_and_monitor(paid_session):
    harness, alice, (r_priv, _r_pub), request, _msg = paid_session
    issue = harness.merchant.issue_refund(request.merchant_data)
    harness.ledger.advance_height(1)
    redeem = alice.redeem_with_refundee(r_priv)
    harness.ledger.advance_height(1)
    harness.merchant.monitor()
    record = harness.merchant.sessions[request.merchant_data].refund.records[0]
    assert record.redeem_txid == txid(redeem)
    assert harness.merchant.records == [record]
    assert (
        harness.merchant.sessions[request.merchant_data].state
        is SessionState.REDEEMED
    )
    with pytest.raises(AlreadySpent):
        alice.redeem_with_refundee(r_priv)


@pytest.mark.parametrize("path", ["joint", "fallback"])
def test_second_claim_is_already_spent(paid_session, path):
    harness, alice, (r_priv, _), request, _msg = paid_session
    issue = harness.merchant.issue_refund(request.merchant_data)
    harness.ledger.advance_height(issue.tc2.lock_height - harness.ledger.height)
    claim = {
        "joint": lambda: alice.redeem_with_refundee(r_priv),
        "fallback": alice.redeem_fallback,
    }[path]
    claim()
    harness.ledger.advance_height(1)
    with pytest.raises(AlreadySpent):
        claim()


def test_joint_redeem_wrong_refundee(paid_session):
    harness, alice, _, request, _msg = paid_session
    harness.merchant.issue_refund(request.merchant_data)
    harness.ledger.advance_height(1)
    stranger_priv, _ = keygen(b"stranger")
    with pytest.raises(MissingSigner):
        alice.redeem_with_refundee(stranger_priv)


def test_fallback_still_claimable_after_joint_redeem(paid_session):
    """Both refund transactions carry the value; nothing reclaims the
    fallback after a joint redemption.  The double payout is a documented
    hazard of the scheme, not an implementation bug."""
    harness, alice, (r_priv, _), request, _msg = paid_session
    issue = harness.merchant.issue_refund(request.merchant_data)
    harness.ledger.advance_height(1)
    alice.redeem_with_refundee(r_priv)
    harness.ledger.advance_height(
        issue.tc2.lock_height - harness.ledger.height
    )
    fallback_tx = alice.redeem_fallback()  # succeeds: double payout
    harness.ledger.advance_height(1)
    assert harness.ledger.is_spent(txid(issue.tc2), 0) == (True, txid(fallback_tx))


def test_fallback_boundary(paid_session):
    harness, alice, _, request, _msg = paid_session
    issue = harness.merchant.issue_refund(request.merchant_data)
    harness.ledger.advance_height(1)
    lock = issue.tc2.lock_height
    harness.ledger.advance_height(lock - 1 - harness.ledger.height)
    assert harness.ledger.height == lock - 1
    with pytest.raises(Locked):
        alice.redeem_fallback()
    harness.ledger.advance_height(1)
    fallback_tx = alice.redeem_fallback()
    harness.ledger.advance_height(1)
    assert harness.ledger.is_spent(txid(issue.tc2), 0) == (True, txid(fallback_tx))
    harness.merchant.monitor()
    record = harness.merchant.sessions[request.merchant_data].refund.records[0]
    assert record.redeem_txid == txid(fallback_tx)


def test_fallback_lock_is_reported_only_to_its_customer(paid_session):
    """A pending fallback is `Locked` for its own customer; a customer with no
    refund gets `RefundNotFound`, whoever else is waiting."""
    harness, alice, _, request, _msg = paid_session
    harness.merchant.issue_refund(request.merchant_data)
    harness.ledger.advance_height(1)
    with pytest.raises(Locked):
        alice.redeem_fallback()
    with pytest.raises(RefundNotFound):
        harness.customer("stranger").redeem_fallback()


def test_customer_rebuilt_from_seed_redeems(paid_session):
    """A customer needs no state beyond its wallet seed: instances rebuilt
    from the seed on the same ledger find and claim both refund paths."""
    harness, alice, (r_priv, _r_pub), request, _msg = paid_session
    issue = harness.merchant.issue_refund(request.merchant_data)
    harness.ledger.advance_height(1)
    joint = harness.customer("alice").redeem_with_refundee(r_priv)
    harness.ledger.advance_height(issue.tc2.lock_height - harness.ledger.height)
    fallback = harness.customer("alice").redeem_fallback()
    harness.ledger.advance_height(1)
    spent_joint = joint.inputs[0]
    assert spent_joint.prev_txid == txid(issue.tc1)
    assert harness.ledger.is_spent(txid(issue.tc1), spent_joint.prev_index) == (
        True, txid(joint)
    )
    assert harness.ledger.is_spent(txid(issue.tc2), 0) == (True, txid(fallback))
    assert fallback.outputs[0].script == PayToPubkeyHash(key_hash(alice.fallback_pub))


# -- multi-signer payments ---------------------------------------------------------------


def multi_signer_session(harness, tamper_values=False):
    dave = harness.customer("dave")
    eve = harness.customer("eve")
    harness.fund([(dave, 30_000), (eve, 30_000)], merchant_keys=8)
    request = harness.merchant.create_request(60_000)
    plan = [
        RefundEntry(R_PUB, 25_000, cosigner_pubkey=dave.wallet.pub),
        RefundEntry(keygen(b"eve-friend")[1], 25_000, cosigner_pubkey=eve.wallet.pub),
    ]
    msg = pay_joint(request, [(dave, 30_000), (eve, 30_000)], plan)
    harness.merchant.process_payment(msg)
    harness.ledger.advance_height(1)
    return dave, eve, request, plan


def test_multi_signer_paying_with_several_coins(harness):
    """dave pays his share as two coins: his entry still locks to his own
    child 0, eve redeems hers jointly and dave claims his fallback."""
    dave = harness.customer("dave")
    eve = harness.customer("eve")
    harness.fund([(dave, 15_000), (dave, 15_000), (eve, 30_000)], merchant_keys=8)
    request = harness.merchant.create_request(60_000)
    eve_friend_priv, eve_friend_pub = keygen(b"eve-friend")
    plan = [
        RefundEntry(R_PUB, 25_000, cosigner_pubkey=dave.wallet.pub),
        RefundEntry(eve_friend_pub, 25_000, cosigner_pubkey=eve.wallet.pub),
    ]
    msg = pay_joint(request, [(dave, 30_000), (eve, 30_000)], plan)
    assert len(msg.transactions[0].inputs) == 3
    harness.merchant.process_payment(msg)
    harness.ledger.advance_height(1)
    issue = harness.merchant.issue_refund(request.merchant_data)
    harness.ledger.advance_height(1)
    assert issue.entry_children[0] == (dave.wallet.xpub, 0)
    assert issue.entry_children[1] == (eve.wallet.xpub, 0)
    joint = eve.redeem_with_refundee(eve_friend_priv)
    harness.ledger.advance_height(
        max(t.lock_height for t in issue.tc2s) - harness.ledger.height
    )
    fallback = dave.redeem_fallback()
    harness.ledger.advance_height(1)
    assert harness.ledger.is_spent(txid(issue.tc1), 1) == (True, txid(joint))
    dave_tc2 = next(t for t in issue.tc2s if txid(t) == fallback.inputs[0].prev_txid)
    assert harness.ledger.is_spent(txid(dave_tc2), 0) == (True, txid(fallback))


def test_pay_joint_embeds_all_xpubs(harness):
    dave, eve, request, _plan = multi_signer_session(harness)
    session = harness.merchant.sessions[request.merchant_data]
    assert session.multi_signer
    assert set(session.customer_xpubs) == {dave.wallet.xpub, eve.wallet.xpub}
    assert set(session.cosigner_keys) == {dave.wallet.pub, eve.wallet.pub}


def test_co_payer_surplus_returns_as_spendable_change(harness):
    """A co-payer whose coins exceed its share gets the surplus back as a
    change output, credited to its wallet and spendable (joint payments used
    to refuse anything but exact funding per share)."""
    dave = harness.customer("dave")
    eve = harness.customer("eve")
    harness.fund([(dave, 40_000), (eve, 30_000)], merchant_keys=8)
    request = harness.merchant.create_request(60_000)
    plan = [
        RefundEntry(R_PUB, 25_000, cosigner_pubkey=dave.wallet.pub),
        RefundEntry(keygen(b"eve-friend")[1], 25_000, cosigner_pubkey=eve.wallet.pub),
    ]
    msg = pay_joint(request, [(dave, 30_000), (eve, 30_000)], plan)
    main = msg.transactions[0]
    change_index = len(main.outputs) - 1
    assert main.outputs[change_index] == TxOutput(
        10_000, PayToPubkeyHash(key_hash(dave.wallet.pub))
    )
    assert dave.wallet.utxos == [FundingOutpoint(txid(main), change_index, 10_000)]
    assert eve.wallet.utxos == []
    harness.merchant.process_payment(msg)
    harness.ledger.advance_height(1)
    later = harness.merchant.create_request(10_000)
    harness.merchant.process_payment(dave.pay(later, []))
    harness.ledger.advance_height(1)
    assert harness.ledger.is_spent(txid(main), change_index)[0]
    assert dave.wallet.utxos == []


def test_multi_signer_requires_bindings(harness):
    dave = harness.customer("dave")
    eve = harness.customer("eve")
    harness.fund([(dave, 30_000), (eve, 30_000)])
    request = harness.merchant.create_request(60_000)
    plan = [RefundEntry(R_PUB, 25_000)]  # no co-signer binding
    msg = pay_joint(request, [(dave, 30_000), (eve, 30_000)], plan)
    with pytest.raises(BadTransaction):
        harness.merchant.process_payment(msg)


def test_single_signer_binding_to_a_stranger_rejected(harness):
    """A co-signer binding must name a payment signer even with one signer,
    so no refund is issued for it (issuing one used to fail at the binding
    after reserving a funded key)."""
    alice = harness.customer("alice")
    harness.fund([(alice, 50_000)])
    request = harness.merchant.create_request(50_000)
    plan = [RefundEntry(R_PUB, 25_000, cosigner_pubkey=keygen(b"stranger")[1])]
    msg = alice.pay(request, plan)
    with pytest.raises(BadTransaction, match="co-signer binding"):
        harness.merchant.process_payment(msg)
    assert not harness.ledger.mempool
    with pytest.raises(WindowExpired):
        harness.merchant.issue_refund(request.merchant_data)


def test_address_update_binding_to_a_stranger_rejected(paid_session):
    """An address update may not bind a co-signer who did not sign the
    payment either; the entries on file stay, and their refund issues."""
    harness, _alice, _refundee, request, _msg = paid_session
    stranger_pub = keygen(b"stranger")[1]
    update = RefundAddressUpdate(
        request.merchant_data,
        (RefundEntry(R_PUB, 30_000, cosigner_pubkey=stranger_pub),),
    )
    with pytest.raises(BadTransaction, match="co-signer binding"):
        harness.merchant.update_refund_addresses(update)
    issue = harness.merchant.issue_refund(request.merchant_data)
    assert issue.tc2.outputs[0].value == 30_000


WIDE = dispute.MAX_CHILD_INDEX + 1  # one entry more than a refund may hold


def test_payment_with_too_many_entries_rejected(harness):
    """A payment whose entries would push its fallback past the highest child
    index a refund may use is refused before a funded key is taken (it used
    to be accepted, and its fallback was then found by no one)."""
    alice = harness.customer("alice")
    harness.fund([(alice, 50_000)])
    request = harness.merchant.create_request(50_000)
    msg = alice.pay(request, [RefundEntry(R_PUB, 1_000)] * WIDE)
    funded = funded_merchant_keys(harness.merchant)
    with pytest.raises(BadTransaction, match="refund entries"):
        harness.merchant.process_payment(msg)
    assert not harness.ledger.mempool
    assert funded_merchant_keys(harness.merchant) == funded
    with pytest.raises(WindowExpired):
        harness.merchant.issue_refund(request.merchant_data)


def test_address_update_with_too_many_entries_rejected(paid_session):
    """The entry limit holds for an address update too; the entries on file
    stay, no funded key is taken, and their refund issues."""
    harness, _alice, _refundee, request, _msg = paid_session
    update = RefundAddressUpdate(request.merchant_data, (RefundEntry(R_PUB, 1_000),) * WIDE)
    funded = funded_merchant_keys(harness.merchant)
    with pytest.raises(BadTransaction, match="refund entries"):
        harness.merchant.update_refund_addresses(update)
    assert funded_merchant_keys(harness.merchant) == funded
    issue = harness.merchant.issue_refund(request.merchant_data)
    assert issue.tc2.outputs[0].value == 30_000


def test_address_update_above_the_amount_paid_rejected(paid_session):
    """An address update may not refund more than was paid;
    the entries on file stay, and their refund issues at their value."""
    harness, _alice, _refundee, request, _msg = paid_session
    update = RefundAddressUpdate(request.merchant_data, (RefundEntry(R_PUB, 150_000),))
    with pytest.raises(BadTransaction, match="exceeds the amount paid"):
        harness.merchant.update_refund_addresses(update)
    issue = harness.merchant.issue_refund(request.merchant_data)
    assert issue.tc2.outputs[0].value == 30_000


def funded_merchant_keys(merchant):
    return sum(1 for i in range(merchant.wallet.size) if merchant.wallet.utxos(i))


def test_co_signer_without_an_extended_key_rejected(harness):
    """Two wallets co-fund a payment that embeds only the first one's
    extended key, with an entry bound to the second signer.  The payment is
    refused, so no refund is issued for an entry nobody could derive a child
    for (issuing one used to fail after taking a funded key)."""
    dave = harness.customer("dave")
    eve = harness.customer("eve")
    harness.fund([(dave, 30_000), (eve, 30_000)])
    request = harness.merchant.create_request(60_000)
    main = build_main_tc(
        dave.wallet.select(30_000) + eve.wallet.select(30_000),
        request.payment_address,
        60_000,
        [dave.wallet.xpub],
        [(dave.wallet.priv, dave.wallet.pub), (eve.wallet.priv, eve.wallet.pub)],
        [],
    )
    plan = (RefundEntry(R_PUB, 25_000, cosigner_pubkey=eve.wallet.pub),)
    funded = funded_merchant_keys(harness.merchant)
    with pytest.raises(BadTransaction, match="not one per signer"):
        harness.merchant.process_payment(PaymentMsg(request.merchant_data, (main,), plan))
    assert not harness.ledger.mempool
    with pytest.raises(WindowExpired):
        harness.merchant.issue_refund(request.merchant_data)
    assert funded_merchant_keys(harness.merchant) == funded


def test_multi_signer_per_cosigner_fallbacks(harness):
    _dave, _eve, request, _plan = multi_signer_session(harness)
    issue = harness.merchant.issue_refund(request.merchant_data)
    assert len(issue.tc2s) == 2
    assert sorted(t.outputs[0].value for t in issue.tc2s) == [25_000, 25_000]
    assert len(issue.records) == 2
    # each entry's script is a plain 2-of-2 (one co-signer plus refundee)
    for group in issue.entry_keys:
        assert len(group) == 1


def test_multi_signer_email_value_change_locks_everyone(harness):
    dave, eve, request, plan = multi_signer_session(harness)
    tampered = (
        RefundEntry(R_PUB, 40_000, cosigner_pubkey=dave.wallet.pub),
        RefundEntry(plan[1].refundee, 10_000, cosigner_pubkey=eve.wallet.pub),
    )
    update = RefundAddressUpdate(request.merchant_data, tampered)
    harness.merchant.update_refund_addresses(update)
    session = harness.merchant.sessions[request.merchant_data]
    assert session.values_changed
    issue = harness.merchant.issue_refund(request.merchant_data)
    # every committed script now requires both co-signers plus the refundee
    assert len(issue.entry_keys) == len(session.entries)
    for position, (group, entry) in enumerate(zip(issue.entry_keys, session.entries)):
        assert len(group) == 2
        script = NOfNScript(
            group + (entry.refundee_point,)
        )
        assert len(script.keys) == 3  # 3-of-3
        assert (
            issue.tc1.outputs[position].script.script_hash == script.script_hash()
        )


@pytest.mark.parametrize("move", ["values", "bindings"])
def test_value_shifting_update_leaves_the_shifter_a_missing_signer(harness, move):
    """An update that moves value from dave's entry to eve's, whoever sends
    it, locks both entries to both signers: eve and her friend cannot
    spend eve's enlarged entry, and dave's one fallback covers both.  Moving
    it by rebinding dave's entry to eve, which keeps the values, counts too
    (it used to leave each entry locked to its bound signer alone)."""
    dave, eve, request, plan = multi_signer_session(harness)
    friend_priv, friend_pub = keygen(b"eve-friend")
    if move == "values":
        shifted = (
            RefundEntry(plan[0].refundee, 5_000, cosigner_pubkey=dave.wallet.pub),
            RefundEntry(friend_pub, 45_000, cosigner_pubkey=eve.wallet.pub),
        )
    else:
        shifted = (RefundEntry(friend_pub, 25_000, cosigner_pubkey=eve.wallet.pub),) * 2
    harness.merchant.update_refund_addresses(RefundAddressUpdate(request.merchant_data, shifted))
    issue = harness.merchant.issue_refund(request.merchant_data)
    harness.ledger.advance_height(1)
    with pytest.raises(MissingSigner):
        eve.redeem_with_refundee(friend_priv, friend_pub)
    position, group = 1, issue.entry_keys[1]
    assert harness.merchant.sessions[request.merchant_data].entries[1] == shifted[1]
    assert len(group) == 2
    # each signer counts its own children: entry 1 takes child 1 of both
    eve_masked = eve.wallet.masked_private(signer_keys(issue.tc1)[0], 1)
    assert SECP256K1.g_mul(eve_masked) in group
    with pytest.raises(MissingSigner):
        build_redeem(
            issue.tc1, position,
            [(eve_masked, SECP256K1.g_mul(eve_masked)), (friend_priv, friend_pub)],
            friend_pub, NOfNScript(group + (friend_pub,)),
        )
    (tc2,) = issue.tc2s
    assert tc2.outputs[0].value == 50_000
    harness.ledger.advance_height(tc2.lock_height - harness.ledger.height)
    fallback = dave.redeem_fallback()
    assert fallback.inputs[0].prev_txid == txid(tc2)


def test_key_log_stays_conflict_free(paid_session):
    harness, alice, (r_priv, _), request, _msg = paid_session
    harness.merchant.issue_refund(request.merchant_data)
    harness.ledger.advance_height(1)
    alice.redeem_with_refundee(r_priv)
    harness.ledger.advance_height(1)
    harness.merchant.monitor()
    assert harness.key_log.conflicts == []


@pytest.mark.parametrize("redeemer", [0, 1], ids=["first-cosigner", "second-cosigner"])
def test_linkage_proof_names_the_redeeming_cosigner(harness, redeemer):
    """The proof derives the signer and child index behind the spent output,
    whichever co-signer redeemed."""
    dave, eve, request, _plan = multi_signer_session(harness)
    signers = (dave, eve)
    refundee_privs = (R_PRIV, keygen(b"eve-friend")[0])
    issue = harness.merchant.issue_refund(request.merchant_data)
    harness.ledger.advance_height(1)
    signers[redeemer].redeem_with_refundee(refundee_privs[redeemer])
    harness.ledger.advance_height(1)
    harness.merchant.monitor()
    harness.ledger.advance_height(
        max(t.lock_height for t in issue.tc2s) - harness.ledger.height + 1
    )
    proof = harness.merchant.linkage_proof(request.merchant_data)
    assert (proof.customer_xpub, proof.child_index) == (signers[redeemer].wallet.xpub, 0)
    check = dispute.verify_linkage_proof(proof, harness.ledger)
    assert check.ok, check.reason


# -- refund discovery -------------------------------------------------------------------


def reference_discovery(customer, refundee_pub=None):
    """Full-chain discovery: every confirmed transaction, funder and child
    index, each child key derived afresh.  Looks for the joint refund to
    `refundee_pub`, or for the fallback when it is None.  Returns
    (txid, output index, masked private key, masked point) or None."""
    wallet = customer.wallet
    for _height, tid, tx in customer.ledger.all_confirmed():
        if refundee_pub is None and tx.lock_height == 0:
            continue
        funders = {pub for txin in tx.inputs for _sig, pub in txin.witness}
        if refundee_pub is None:
            targets = {
                out.script.pubkey_hash: i
                for i, out in enumerate(tx.outputs)
                if isinstance(out.script, PayToPubkeyHash)
            }
        else:
            targets = {
                out.script.script_hash: i
                for i, out in enumerate(tx.outputs)
                if isinstance(out.script, ScriptHash)
            }
        for funder in funders:
            for index in range(dispute.MAX_CHILD_INDEX + 1):
                child_priv = derive_child_private(wallet.priv, wallet.xpub, index)
                masked_priv = unmask_child_private(child_priv, funder)
                point = SECP256K1.g_mul(masked_priv)
                if refundee_pub is None:
                    key = key_hash(point)
                else:
                    key = NOfNScript((point, refundee_pub)).script_hash()
                if key in targets:
                    return tid, targets[key], masked_priv, point
    return None


def assert_discovery_matches_reference(customer, refundee_pub):
    for found, want in (
        (
            customer.find_joint_refund(refundee_pub),
            reference_discovery(customer, refundee_pub),
        ),
        (customer.find_fallback(), reference_discovery(customer)),
    ):
        got = None if found is None else (
            found.txid, found.output_index, found.masked_priv, found.masked_point
        )
        assert got == want


def pay_and_issue(harness, customer, refundee_pub):
    request = harness.merchant.create_request(50_000)
    msg = customer.pay(request, [RefundEntry(refundee_pub, 30_000)])
    harness.merchant.process_payment(msg)
    harness.ledger.advance_height(1)
    issue = harness.merchant.issue_refund(request.merchant_data)
    harness.ledger.advance_height(1)
    return issue


def settle_fallbacks(harness):
    """Advance until every issued fallback has confirmed."""
    locks = [
        tc2.lock_height
        for session in harness.merchant.sessions.values()
        if session.refund is not None
        for tc2 in session.refund.tc2s
    ]
    if max(locks) >= harness.ledger.height:
        harness.ledger.advance_height(max(locks) - harness.ledger.height + 1)


def test_discovery_matches_full_scan_over_a_day(harness):
    """Six sequential sessions; every third claims its fallback, whose wait
    lets earlier sessions' fallbacks confirm after later payments."""
    customers = [harness.customer(f"day{i}") for i in range(6)]
    refundees = [keygen(b"day-refundee-%d" % i) for i in range(6)]
    harness.fund([(c, 50_000) for c in customers], merchant_keys=12)
    for position, (customer, (r_priv, r_pub)) in enumerate(zip(customers, refundees)):
        issue = pay_and_issue(harness, customer, r_pub)
        if position % 3 != 2:
            customer.redeem_with_refundee(r_priv, r_pub)
        else:
            harness.ledger.advance_height(issue.tc2.lock_height - harness.ledger.height)
            customer.redeem_fallback()
        harness.ledger.advance_height(1)
    settle_fallbacks(harness)
    for customer, (_r_priv, r_pub) in zip(customers, refundees):
        assert_discovery_matches_reference(customer, r_pub)


def test_discovery_matches_full_scan_for_repeat_customer(harness):
    alice = harness.customer("alice")
    harness.fund([(alice, 100_000)])
    first, second = keygen(b"repeat-r1")[1], keygen(b"repeat-r2")[1]
    pay_and_issue(harness, alice, first)
    pay_and_issue(harness, alice, second)
    settle_fallbacks(harness)
    assert_discovery_matches_reference(alice, first)
    assert_discovery_matches_reference(alice, second)


def test_discovery_matches_full_scan_for_non_lead_signer(harness):
    dave, eve, request, plan = multi_signer_session(harness)
    harness.merchant.issue_refund(request.merchant_data)
    harness.ledger.advance_height(1)
    settle_fallbacks(harness)
    assert_discovery_matches_reference(eve, plan[1].refundee)
    assert_discovery_matches_reference(dave, plan[0].refundee)
    assert eve.find_joint_refund(plan[1].refundee) is not None


def test_discovery_finds_nothing_for_customer_who_never_paid(paid_session):
    harness, _alice, (_r_priv, r_pub), request, _msg = paid_session
    harness.merchant.issue_refund(request.merchant_data)
    harness.ledger.advance_height(1)
    settle_fallbacks(harness)
    stranger = harness.customer("stranger")
    assert stranger.find_joint_refund(r_pub) is None
    assert stranger.find_fallback() is None
    assert_discovery_matches_reference(stranger, r_pub)


def test_merchant_wallet_public_keys_match_keygen():
    """The batch derives each key's point as keygen does, index by index."""
    wallet = protocol.MerchantWallet(b"batch-wallet", 20)
    single = protocol.MerchantWallet(b"batch-wallet", 20)
    assert list(wallet.public_keys()) == [single.key(i)[1] for i in range(20)]
    assert wallet.public_keys()[5] == keygen(b"batch-wallet/" + (5).to_bytes(4, "big"))[1]
    assert [wallet.key(i) for i in range(20)] == [single.key(i) for i in range(20)]


def test_masked_privates_match_masked_private(monkeypatch):
    """The batch answers each index with the key `masked_private` returns,
    or with the error its child derivation raises, in its place."""
    wallet = CustomerWallet(b"batch-unmask")
    m_pub = keygen(b"batch-unmask-masker")[1]
    want = [wallet.masked_private(m_pub, i) for i in range(6)]
    real_child_private = wallet.child_private

    def child_private(index):
        if index == 3:
            raise DegenerateChild("degenerate child at index 3")
        return real_child_private(index)

    monkeypatch.setattr(wallet, "child_private", child_private)
    got = wallet.masked_privates(m_pub, range(6))
    assert isinstance(got[3], DegenerateChild)
    assert got[:3] + got[4:] == want[:3] + want[4:]


def test_wallet_checks_its_key_pair_once(monkeypatch):
    """Seventeen children cost one g_mul of the wallet key, at the first
    derivation; a wallet whose key no longer matches still fails there."""
    wallet = CustomerWallet(b"pair-check")
    want = [derive_child_private(wallet.priv, wallet.xpub, i) for i in range(17)]
    calls = []
    real_g_mul = SECP256K1.g_mul
    monkeypatch.setattr(SECP256K1, "g_mul", lambda k: calls.append(k) or real_g_mul(k))
    assert [wallet.child_private(i) for i in range(17)] == want
    assert calls == [wallet.priv]
    tampered = CustomerWallet(b"pair-check")
    tampered.priv += 1
    with pytest.raises(KeyMismatch):
        tampered.child_private(0)


@pytest.mark.parametrize("path", ["joint", "fallback"])
def test_repeat_customer_claims_every_refund(harness, path):
    """A customer who paid twice claims both refunds in turn: the walk skips
    the first, already spent, and only a third claim is AlreadySpent."""
    alice = harness.customer("alice")
    r_priv, r_pub = keygen(b"repeat-refundee")
    harness.fund([(alice, 100_000)])
    issues = [pay_and_issue(harness, alice, r_pub) for _ in range(2)]
    settle_fallbacks(harness)
    claim = {
        "joint": lambda: alice.redeem_with_refundee(r_priv, r_pub),
        "fallback": alice.redeem_fallback,
    }[path]
    claimed = []
    for _ in issues:
        claimed.append(claim().inputs[0].prev_txid)
        harness.ledger.advance_height(1)
    assert claimed == [txid(i.tc1 if path == "joint" else i.tc2) for i in issues]
    with pytest.raises(AlreadySpent):
        claim()


def fallback_past_two_fallbacks(harness):
    """A third customer's confirmed fallback, after two earlier customers'
    confirmed fallbacks (their joint refunds claimed): ``(customer, issue)``."""
    customers = [harness.customer(f"walk{i}") for i in range(3)]
    refundees = [keygen(b"walk-refundee-%d" % i) for i in range(3)]
    harness.fund([(c, 50_000) for c in customers], merchant_keys=12)
    for customer, (r_priv, r_pub) in zip(customers[:2], refundees):
        pay_and_issue(harness, customer, r_pub)
        customer.redeem_with_refundee(r_priv, r_pub)
        harness.ledger.advance_height(1)
    last = customers[2]
    issue = pay_and_issue(harness, last, refundees[2][1])
    harness.ledger.advance_height(issue.tc2.lock_height - harness.ledger.height)
    settle_fallbacks(harness)
    return last, issue


def test_fallback_discovery_costs_two_muls_and_one_table_per_funder(harness, record_calls):
    """Counted: a fallback session whose walk passes two earlier customers'
    fallbacks makes two `mul` under each funder it tries, for children 0 and
    1, and builds one comb for each funder whose fallback is not its own, to
    unmask children 2..16 in one batch; the definitions of child derivation
    and unmasking are still on its path."""
    last, issue = fallback_past_two_fallbacks(harness)

    muls = record_calls(SECP256K1, "mul")
    batches = record_calls(SECP256K1, "mul_many")
    unmasks = record_calls(keys, "unmask_child_private")
    derives = record_calls(keys, "derive_child_private")
    found = last.find_fallback()
    assert found is not None and found.txid == txid(issue.tc2)
    funders = [pt for _k, pt in muls]
    assert len(set(funders)) == 3  # two earlier fallbacks, then its own
    assert all(funders.count(funder) == 2 for funder in funders)
    combs = [base for _ks, base in batches]
    assert len(combs) == 2 and set(combs) < set(funders)
    assert signer_keys(found.tx)[0] not in combs
    assert len(unmasks) == len(muls) and derives


def test_fallback_discovery_takes_each_batch_of_points_from_one_walk(harness, record_calls):
    """Counted: a fallback walk that passes two earlier customers' fallbacks
    makes one `g_mul` per single child (0 and 1) under each funder it tries,
    and takes the points of each funder's batch of children 2..16 from one
    `g_mul_many` walk, where one `g_mul` per child would make 36."""
    last, issue = fallback_past_two_fallbacks(harness)
    last.wallet.child_private(0)  # the wallet's one key-pair check, done first

    g_muls = record_calls(SECP256K1, "g_mul")
    walks = record_calls(SECP256K1, "g_mul_many")
    found = last.find_fallback()
    assert found is not None and found.txid == txid(issue.tc2)
    assert len(g_muls) == 3 * 2
    assert [len(scalars) for scalars, _starts in walks] == [dispute.MAX_CHILD_INDEX - 1] * 2


def test_joint_discovery_cost_does_not_grow_with_position(harness, record_calls):
    """Counted, not timed: every session's joint discovery, the sixth's as
    the first's, unmasks child 0 alone, at one `mul` and no comb."""
    logs = [
        record_calls(SECP256K1, "mul"),
        record_calls(SECP256K1, "mul_many"),
        record_calls(keys, "unmask_child_private"),
    ]
    customers = [harness.customer(f"joint{i}") for i in range(6)]
    harness.fund([(c, 50_000) for c in customers], merchant_keys=12)
    per_session = []
    for i, customer in enumerate(customers):
        r_priv, r_pub = keygen(b"joint-refundee-%d" % i)
        pay_and_issue(harness, customer, r_pub)
        before = [len(log) for log in logs]
        assert customer.find_joint_refund(r_pub) is not None
        per_session.append([len(log) - n for log, n in zip(logs, before)])
        customer.redeem_with_refundee(r_priv, r_pub)
        harness.ledger.advance_height(1)
    assert per_session == [[1, 0, 1]] * 6, per_session
