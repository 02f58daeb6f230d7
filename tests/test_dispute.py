"""Records, storage model, linkage proofs, database recovery."""

import dataclasses
import os
import stat

import pytest
from hypothesis import given, settings, strategies as st

from refundsim.curve import SECP256K1
from refundsim.dispute import (
    MAX_CHILD_INDEX,
    MaskCheckFailed,
    NotRedeemed,
    RecordStore,
    RefundRecord,
    StorageModel,
    child_sweep,
    generate_linkage_proof,
    mccorry_storage,
    record_size,
    recover_database,
    verify_linkage_proof,
)
from refundsim import dispute, protocol
from refundsim.keys import ChildMasker, DegenerateChild, IdentityPoint, KeyMismatch, keygen
from refundsim.protocol import MerchantWallet, RefundEntry
from refundsim.scenarios import Scenario, ScenarioName, run_scenario
from refundsim.transactions import txid


def make_record(fill=0x11):
    return RefundRecord(bytes([fill]) * 32, bytes([fill + 1]) * 32, bytes([fill + 2]) * 32)


# -- storage constants -----------------------------------------------------------


@pytest.mark.parametrize("n_refundees", [1, 3, 10])
def test_record_size_constant(n_refundees):
    """128 bytes regardless of how many refundees the run had."""
    record = make_record()
    assert record_size(record) == 128
    assert len(record.serialize()) == 128


def test_record_serialization_roundtrip():
    record = make_record().with_redeem(b"\x44" * 32)
    assert RefundRecord.deserialize(record.serialize()) == record


def test_mccorry_single_refundee():
    model = StorageModel(1, endorsement_sig_size=0, payment_msg_size=0)
    assert mccorry_storage(model) == 252


def test_mccorry_formula_consistency():
    # the n-refundee formula at n = 1 reproduces the single-refundee figure
    assert mccorry_storage(StorageModel(1, 10, 20)) == 252 + 10 + 20 == 210 + 42 + 10 + 20


def test_mccorry_worked_example():
    # 210 + 42*5 + 72 + 1000, cross-checked by hand
    assert mccorry_storage(StorageModel(5, 72, 1000)) == 1492


def test_mccorry_payment_size_cap():
    with pytest.raises(ValueError):
        StorageModel(1, 72, 50_001)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=100),
    sig=st.integers(min_value=64, max_value=512),
    pay=st.integers(min_value=0, max_value=50_000),
)
def test_property_txid_records_always_smaller(n, sig, pay):
    assert mccorry_storage(StorageModel(n, sig, pay)) > record_size(make_record())


# -- record store ----------------------------------------------------------------


def test_store_roundtrip(tmp_path):
    store = RecordStore(str(tmp_path / "records.db"))
    records = [make_record(i) for i in (1, 5, 9)]
    for record in records:
        store.append(record)
    assert store.load() == records
    store.rewrite(records[:2])
    assert store.load() == records[:2]
    store.wipe()
    assert store.load() == []


def test_store_rewrite_failure_keeps_old_file(tmp_path):
    """A rewrite that fails part-way leaves the old file intact and no temp file."""

    class Unserializable:
        def serialize(self):
            raise RuntimeError("serialization failed")

    path = tmp_path / "records.db"
    store = RecordStore(str(path))
    store.rewrite([make_record(1), make_record(2)])
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        store.rewrite([make_record(3), Unserializable()])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.db"]


def test_store_rewrite_syncs_file_then_directory(tmp_path, monkeypatch):
    """The renamed file's directory entry is synced too, after the file."""
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        info = os.fstat(fd)
        synced.append((stat.S_ISDIR(info.st_mode), info.st_ino))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    path = tmp_path / "records.db"
    RecordStore(str(path)).rewrite([make_record(1)])
    assert synced == [(False, path.stat().st_ino), (True, tmp_path.stat().st_ino)]


def test_store_drops_torn_tail(tmp_path):
    path = tmp_path / "torn.db"
    store = RecordStore(str(path))
    store.append(make_record(3))
    with open(path, "ab") as fh:
        fh.write(b"\xff" * 57)  # partial row
    assert store.load() == [make_record(3)]


def test_append_after_a_torn_tail_keeps_both_records(tmp_path):
    """A record appended after a torn tail starts on a row boundary: the torn
    bytes are dropped (they used to shift the new record, so load returned a
    row of stray bytes and lost the record)."""
    path = tmp_path / "torn.db"
    store = RecordStore(str(path))
    store.append(make_record(3))
    with open(path, "ab") as fh:
        fh.write(b"\xff" * 57)  # partial row
    store.append(make_record(4))
    assert store.load() == [make_record(3), make_record(4)]


# -- linkage proofs ---------------------------------------------------------------


def redeemed_session(paid_session):
    harness, alice, (r_priv, r_pub), request, _msg = paid_session
    issue = harness.merchant.issue_refund(request.merchant_data)
    harness.ledger.advance_height(1)
    redeem = alice.redeem_with_refundee(r_priv)
    harness.ledger.advance_height(1)
    harness.merchant.monitor()
    # the fallback confirms at its lock; proofs replay only from full chains
    harness.ledger.advance_height(issue.tc2.lock_height - harness.ledger.height + 1)
    return harness, alice, request, issue, redeem


def test_proof_verifies_on_honest_flow(paid_session):
    harness, _alice, request, _issue, _redeem = redeemed_session(paid_session)
    proof = harness.merchant.linkage_proof(request.merchant_data)
    check = verify_linkage_proof(proof, harness.ledger)
    assert check.ok, check.reason


def test_proof_requires_joint_redeem(paid_session):
    harness, alice, _, request, _msg = paid_session
    issue = harness.merchant.issue_refund(request.merchant_data)
    harness.ledger.advance_height(issue.tc2.lock_height - harness.ledger.height)
    alice.redeem_fallback()  # customer-only path: no linkage exists
    harness.ledger.advance_height(1)
    harness.merchant.monitor()
    with pytest.raises(NotRedeemed):
        harness.merchant.linkage_proof(request.merchant_data)


def test_proof_tampered_child_index_fails(paid_session):
    harness, _alice, request, _issue, _redeem = redeemed_session(paid_session)
    proof = harness.merchant.linkage_proof(request.merchant_data)
    forged = dataclasses.replace(proof, child_index=proof.child_index + 1)
    assert not verify_linkage_proof(forged, harness.ledger)


def test_proof_tampered_masking_key_fails(paid_session):
    harness, _alice, request, _issue, _redeem = redeemed_session(paid_session)
    proof = harness.merchant.linkage_proof(request.merchant_data)
    forged = dataclasses.replace(proof, masking_priv=proof.masking_priv ^ 1)
    check = verify_linkage_proof(forged, harness.ledger)
    assert not check and check.reason in ("mask-mismatch", "masking-key-not-tc1-funder")


def test_proof_off_chain_redeem_fails(paid_session):
    harness, _alice, request, _issue, _redeem = redeemed_session(paid_session)
    proof = harness.merchant.linkage_proof(request.merchant_data)
    forged_record = dataclasses.replace(proof.record, redeem_txid=b"\x77" * 32)
    forged = dataclasses.replace(proof, record=forged_record)
    check = verify_linkage_proof(forged, harness.ledger)
    assert not check and check.reason == "chain-data-missing"


def test_generate_requires_redeem_slot():
    with pytest.raises(NotRedeemed):
        generate_linkage_proof(make_record(), 1, None, {})


# -- recovery ----------------------------------------------------------------------


def run_sessions(harness, count, redeem_plan, settle=True):
    """Run `count` sessions; redeem_plan[i] in {'joint', 'fallback', None}.

    With `settle`, the chain then advances until every fallback confirms.
    """
    harness.fund([], merchant_keys=4 * count)
    issues = []
    for i in range(count):
        customer = harness.customer(f"cust{i}")
        r_priv, r_pub = keygen(b"rec-refundee-%d" % i)
        harness.fund([(customer, 50_000)], merchant_keys=0)
        request = harness.merchant.create_request(50_000)
        msg = customer.pay(request, [RefundEntry(r_pub, 30_000)])
        harness.merchant.process_payment(msg)
        harness.ledger.advance_height(1)
        issue = harness.merchant.issue_refund(request.merchant_data)
        harness.ledger.advance_height(1)
        issues.append((request, issue, customer, r_priv))
    for (request, issue, customer, r_priv), kind in zip(issues, redeem_plan):
        if kind == "joint":
            customer.redeem_with_refundee(r_priv)
            harness.ledger.advance_height(1)
        elif kind == "fallback":
            if harness.ledger.height < issue.tc2.lock_height:
                harness.ledger.advance_height(issue.tc2.lock_height - harness.ledger.height)
            customer.redeem_fallback()
            harness.ledger.advance_height(1)
    max_lock = max(issue.tc2.lock_height for _r, issue, _c, _p in issues)
    if settle and harness.ledger.height < max_lock:
        harness.ledger.advance_height(max_lock - harness.ledger.height)
    harness.merchant.monitor()
    return issues


def test_recovery_reproduces_wiped_database(harness):
    run_sessions(harness, 3, ["joint", "joint", "fallback"])
    before = sorted(r.serialize() for r in harness.merchant.records)
    assert len(before) == 3
    result = recover_database(harness.merchant.wallet, harness.ledger)
    after = sorted(r.serialize() for r in result.records)
    assert after == before
    assert len(result.records) == len(harness.merchant.sessions)


def test_recovery_pending_session_partial_record(harness):
    issues = run_sessions(harness, 2, ["joint", None])
    result = recover_database(harness.merchant.wallet, harness.ledger)
    assert len(result.records) == 2
    zero = bytes(32)
    pending = [r.main_txid for r in result.records if r.redeem_txid == zero]
    assert pending == [issues[1][1].record.main_txid]


def test_recovery_keeps_refunds_whose_fallback_is_in_flight(harness):
    """Fallbacks still time-locked in the mempool are refunds in flight:
    the jointly redeemed one keeps its redeem, the other is pending."""
    issues = run_sessions(harness, 2, ["joint", None], settle=False)
    assert all(txid(issue.tc2) in harness.ledger.mempool for _r, issue, _c, _p in issues)
    result = recover_database(harness.merchant.wallet, harness.ledger)
    assert sorted(r.serialize() for r in result.records) == sorted(
        r.serialize() for r in harness.merchant.records
    )
    pending = [r.main_txid for r in result.records if r.redeem_txid == bytes(32)]
    assert pending == [issues[1][1].record.main_txid]
    assert len(result.records) == len(issues)


def test_recovery_keeps_a_refund_pair_still_in_the_mempool(harness):
    """A database lost right after issuing keeps the session: its joint refund
    and fallback both still wait in the mempool."""
    alice = harness.customer("alice")
    harness.fund([(alice, 50_000)])
    request = harness.merchant.create_request(50_000)
    harness.merchant.process_payment(alice.pay(request, [RefundEntry(keygen(b"r")[1], 30_000)]))
    harness.ledger.advance_height(1)
    issue = harness.merchant.issue_refund(request.merchant_data)
    assert txid(issue.tc1) in harness.ledger.mempool
    result = recover_database(harness.merchant.wallet, harness.ledger)
    assert [r.serialize() for r in result.records] == [
        r.serialize() for r in harness.merchant.records
    ]
    assert [r.main_txid for r in result.records if r.redeem_txid == bytes(32)] == [
        issue.record.main_txid
    ]
    assert len(result.records) == 1


def test_recovery_idempotent(harness):
    run_sessions(harness, 2, ["joint", "fallback"])
    first = recover_database(harness.merchant.wallet, harness.ledger)
    second = recover_database(harness.merchant.wallet, harness.ledger)
    assert [r.serialize() for r in first.records] == [
        r.serialize() for r in second.records
    ]


def test_recovery_telemetry_within_bounds(harness):
    run_sessions(harness, 3, ["joint", "fallback", "joint"])
    result = recover_database(harness.merchant.wallet, harness.ledger)
    two_k = harness.merchant.wallet.size
    t = 3
    ell = 9  # joint + fallback + redeem per session
    assert result.telemetry.key_ops <= 2 * t * two_k
    assert result.telemetry.search_ops <= ell * two_k


def test_recovery_masks_with_one_mul_per_key_pair(harness, monkeypatch):
    """Each (masking key, extended key) pair tried costs one mul, and each hit
    one more for its definitional check; every rebuild starts cold."""
    run_sessions(harness, 3, ["joint", "fallback", "joint"])
    muls = []
    real_mul = SECP256K1.mul
    monkeypatch.setattr(SECP256K1, "mul", lambda k, pt: muls.append(pt) or real_mul(k, pt))
    result = recover_database(harness.merchant.wallet, harness.ledger)
    assert len(result.records) == 3
    # the matching order is unchanged, so are the counters
    assert (result.telemetry.key_ops, result.telemetry.search_ops) == (10, 68)
    # three fallbacks and the two jointly redeemed refunds are hits
    hits = len(result.records) + 2
    first = len(muls)
    assert 0 < first <= result.telemetry.key_ops + hits
    again = recover_database(harness.merchant.wallet, harness.ledger)
    assert len(muls) == 2 * first
    assert again.records == result.records


@pytest.mark.parametrize("every_third, count, sweeps, key_ops", [
    ("joint", 3, 6, 12), ("joint", 8, 16, 72), ("joint", 16, 32, 272),
    ("fallback", 3, 5, 9), ("fallback", 8, 20, 63), ("fallback", 16, 52, 227),
])
def test_recovery_never_sweeps_a_held_payment(
    harness, record_calls, every_third, count, sweeps, key_ops
):
    """Refunds issued in payment order: a payment that already holds a refund
    of the shape tried is decided without masking, so a history redeemed
    jointly throughout sweeps once per refund.  A joint refund nobody redeemed
    leaves its payment's joint slot free, and later joint refunds sweep it.
    ``key_ops`` counts every pair considered: the sweeps a walk that masked
    every pair would run."""
    plan = [every_third if i % 3 == 2 else "joint" for i in range(count)]
    run_sessions(harness, count, plan)
    calls = record_calls(dispute, "_match_masked_key")
    result = recover_database(harness.merchant.wallet, harness.ledger)
    assert len(result.records) == count
    assert (len(calls), result.telemetry.key_ops) == (sweeps, key_ops)


def test_child_sweep_order_and_laziness():
    """Indexes 0 and 1 one at a time, with an error `one` raises yielded in
    its place, then 2..MAX_CHILD_INDEX from one `many` batch, computed only
    once read, errors included, in index order."""
    batches = []

    def one(index):
        if index == 1:
            raise DegenerateChild("child 1")
        return index

    def many(indexes):
        batches.append(list(indexes))
        return [IdentityPoint("masked") if i == 5 else i for i in indexes]

    sweep = child_sweep(one, many)
    assert next(sweep) == (0, 0)
    index, error = next(sweep)
    assert index == 1 and isinstance(error, DegenerateChild)
    assert batches == []
    rest = list(sweep)
    assert batches == [list(range(2, MAX_CHILD_INDEX + 1))]
    assert [i for i, _result in rest] == batches[0]
    assert [i for i, result in rest if isinstance(result, IdentityPoint)] == [5]
    assert all(result == i for i, result in rest if i != 5)


def test_recovery_raises_when_the_batch_mask_is_wrong(harness, monkeypatch):
    """A batch path that answers index i with the masked key of index i + 1
    makes the search accept the wrong index; the definitional check raises
    instead of returning a record."""
    run_sessions(harness, 3, ["joint", "fallback", "joint"])
    real_mask = ChildMasker.mask
    monkeypatch.setattr(
        ChildMasker, "mask", lambda self, parent, index: real_mask(self, parent, index + 1)
    )
    with pytest.raises(MaskCheckFailed):
        recover_database(harness.merchant.wallet, harness.ledger)


def _funding_keys(ledger, records):
    """The wallet keys that sign the records' joint refunds and fallbacks."""
    return {
        pub
        for record in records
        for tid in (record.refund_tc1_txid, record.refund_tc2_txid)
        for txin in ledger.get_transaction(tid).inputs
        for _sig, pub in txin.witness
    }


def test_cold_recovery_runs_keygen_once_per_refund_key(tmp_path, monkeypatch):
    """A cold wallet derives its public keys in one batch and runs keygen,
    the definition, once for each key that funds a refund; a warm wallet
    rebuilds the same records."""
    env = run_scenario(Scenario(ScenarioName.RECOVERY, seed=1), str(tmp_path)).env
    warm = env.merchant.wallet
    cold = MerchantWallet(warm.master_seed, warm.size)
    seeds = []
    real_keygen = protocol.keygen
    monkeypatch.setattr(protocol, "keygen", lambda seed: seeds.append(seed) or real_keygen(seed))
    result = recover_database(cold, env.ledger)
    assert len(result.records) == 3
    pubs = cold.public_keys()
    funding = _funding_keys(env.ledger, result.records)
    assert len(funding) == 6
    assert sorted(seeds) == sorted(
        warm.master_seed + b"/" + pubs.index(pub).to_bytes(4, "big") for pub in funding
    )
    assert recover_database(warm, env.ledger).records == result.records


def test_recovery_checks_refund_keys_against_the_batch(harness):
    """A batch point that differs from keygen's for a key that signs a refund
    raises KeyMismatch instead of recovering through the wrong key."""
    run_sessions(harness, 3, ["joint", "fallback", "joint"])
    wallet = MerchantWallet(harness.merchant.wallet.master_seed, harness.merchant.wallet.size)
    pubs = list(wallet.public_keys())
    signer = pubs.index(min(_funding_keys(harness.ledger, harness.merchant.records)))
    unused = len(pubs) - 1
    assert not harness.ledger.find_by_pubkey(pubs[unused])
    pubs[signer], pubs[unused] = pubs[unused], pubs[signer]
    wallet._public = tuple(pubs)
    with pytest.raises(KeyMismatch):
        recover_database(wallet, harness.ledger)


def test_recovery_matches_monitor_choice_on_multi_redeem(harness):
    """With several joint redeems, recovery picks the same earliest spend."""
    customer = harness.customer("multi")
    refundees = [keygen(b"multi-ref-%d" % i) for i in range(2)]
    harness.fund([(customer, 60_000)])
    request = harness.merchant.create_request(60_000)
    msg = customer.pay(
        request, [RefundEntry(pub, 20_000) for _priv, pub in refundees]
    )
    harness.merchant.process_payment(msg)
    harness.ledger.advance_height(1)
    issue = harness.merchant.issue_refund(request.merchant_data)
    harness.ledger.advance_height(1)
    for r_priv, _pub in refundees:
        customer.redeem_with_refundee(r_priv)
        harness.ledger.advance_height(1)
    harness.ledger.advance_height(
        max(0, issue.tc2.lock_height - harness.ledger.height)
    )
    harness.merchant.monitor()
    result = recover_database(harness.merchant.wallet, harness.ledger)
    assert [r.serialize() for r in result.records] == sorted(
        r.serialize() for r in harness.merchant.records
    )


def test_monitor_rewrites_record_file_once(harness, tmp_path, monkeypatch):
    """A monitor pass that fills slots writes the record file once; one that
    fills none leaves it alone."""
    path = tmp_path / "records.db"
    harness.merchant.store = RecordStore(str(path))
    rewrites = []
    original = RecordStore.rewrite

    def counting_rewrite(self, records):
        rewrites.append(len(records))
        original(self, records)

    monkeypatch.setattr(RecordStore, "rewrite", counting_rewrite)
    real_monitor = harness.merchant.monitor
    monitor_rewrites = []

    def counted_monitor():
        before = len(rewrites)
        real_monitor()
        monitor_rewrites.append(len(rewrites) - before)

    monkeypatch.setattr(harness.merchant, "monitor", counted_monitor)
    run_sessions(harness, 3, ["joint", "joint", "fallback"])
    assert monitor_rewrites == [1]
    data = path.read_bytes()
    assert data == b"".join(r.serialize() for r in harness.merchant.records)
    assert all(r.redeem_txid != bytes(32) for r in harness.merchant.records)
    harness.merchant.monitor()
    assert monitor_rewrites == [1, 0]
    assert path.read_bytes() == data


def test_monitor_without_updates_keeps_existing_record_file(harness, tmp_path):
    """A merchant opened on an existing record file does not truncate it."""
    path = tmp_path / "records.db"
    path.write_bytes(b"\x01" * 128)
    harness.merchant.store = RecordStore(str(path))
    harness.merchant.monitor()
    assert path.read_bytes() == b"\x01" * 128


# -- monitor and recovery read a refund pair alike ------------------------------------


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize(
    "name", ["HonestRefund", "Silkroad", "Marketplace", "MultiSigner", "Recovery"]
)
def test_recovery_equals_the_monitored_records(name, seed, tmp_path):
    """Every record monitor kept, co-signers' included, is rebuilt byte for byte."""
    env = run_scenario(Scenario(ScenarioName.parse(name), seed=seed), str(tmp_path)).env
    result = recover_database(env.merchant.wallet, env.ledger)
    kept = sorted(env.merchant.records, key=lambda r: r.main_txid)
    assert [r.serialize() for r in result.records] == [r.serialize() for r in kept]
    payments = {session.main_txid for session in env.merchant.sessions.values()}
    assert {r.main_txid for r in result.records} == payments


def test_recovery_queries_each_output_once(tmp_path, monkeypatch):
    """Two fallbacks share one joint refund; its outputs are still read once,
    and search_ops counts every find_by_pubkey and is_spent made."""
    env = run_scenario(Scenario(ScenarioName.MULTI_SIGNER, seed=1), str(tmp_path)).env
    calls = []
    for method in ("find_by_pubkey", "is_spent"):
        real = getattr(env.ledger, method)
        monkeypatch.setattr(
            env.ledger, method, lambda *a, real=real: calls.append(a) or real(*a)
        )
    result = recover_database(env.merchant.wallet, env.ledger)
    assert len(result.records) == 2
    assert len(calls) == len(set(calls)) == result.telemetry.search_ops


def test_recovery_keeps_a_fallback_claimed_before_the_joint_redeem(harness):
    """The earlier fallback claim fills the slot in monitor and in recovery alike."""
    _request, issue, customer, r_priv = run_sessions(harness, 1, [None])[0]
    assert harness.ledger.height >= issue.tc2.lock_height
    fallback = customer.redeem_fallback()
    harness.ledger.advance_height(1)
    customer.redeem_with_refundee(r_priv)
    harness.ledger.advance_height(1)
    harness.merchant.monitor()
    assert harness.merchant.records[0].redeem_txid == txid(fallback)
    result = recover_database(harness.merchant.wallet, harness.ledger)
    assert result.records == harness.merchant.records


def test_widest_refund_is_claimed_and_recovered(harness):
    """A payment with the most entries a refund may hold: its fallback takes
    the highest child index, which discovery finds and the customer claims,
    and a cold rebuild returns the monitored record byte for byte."""
    alice = harness.customer("alice")
    harness.fund([(alice, 50_000)])
    request = harness.merchant.create_request(50_000)
    plan = [RefundEntry(keygen(b"wide-%d" % i)[1], 1_000) for i in range(MAX_CHILD_INDEX)]
    harness.merchant.process_payment(alice.pay(request, plan))
    harness.ledger.advance_height(1)
    issue = harness.merchant.issue_refund(request.merchant_data)
    assert issue.entry_children[MAX_CHILD_INDEX - 1] == (alice.wallet.xpub, MAX_CHILD_INDEX - 1)
    harness.ledger.advance_height(issue.tc2.lock_height - harness.ledger.height)
    fallback = alice.redeem_fallback()
    harness.ledger.advance_height(1)
    assert fallback.outputs[0].value == MAX_CHILD_INDEX * 1_000
    harness.merchant.monitor()
    assert harness.merchant.records[0].redeem_txid == txid(fallback)
    wallet = harness.merchant.wallet
    result = recover_database(MerchantWallet(wallet.master_seed, wallet.size), harness.ledger)
    assert [r.serialize() for r in result.records] == [
        r.serialize() for r in harness.merchant.records
    ]
    assert len(result.records) == 1


def test_monitor_before_the_refund_pair_confirms(paid_session):
    """monitor right after issuing neither raises nor fills the slot."""
    harness, _alice, _r, request, _msg = paid_session
    issue = harness.merchant.issue_refund(request.merchant_data)
    assert txid(issue.tc1) in harness.ledger.mempool
    harness.merchant.monitor()
    assert harness.merchant.records == [issue.record]
    assert issue.record.redeem_txid == bytes(32)


# -- a repeat customer's refunds ---------------------------------------------------


def recover_repeat_customer(harness, claim=None, reverse=False):
    """One customer pays twice with the same wallet and claims each refund as
    `claim` says; returns a cold-wallet rebuild after `monitor`.  With
    `reverse`, the two requests are paid in the reverse of their creation
    order, each refund issued right after its payment."""
    from test_protocol import pay_and_issue, settle_fallbacks

    alice = harness.customer("alice")
    r_priv, r_pub = keygen(b"repeat-refundee")
    harness.fund([(alice, 100_000)], merchant_keys=8)
    if reverse:
        requests = [harness.merchant.create_request(50_000) for _ in range(2)]
        for request in reversed(requests):
            harness.merchant.process_payment(alice.pay(request, [RefundEntry(r_pub, 30_000)]))
            harness.ledger.advance_height(1)
            harness.merchant.issue_refund(request.merchant_data)
            harness.ledger.advance_height(1)
    else:
        for _ in range(2):
            pay_and_issue(harness, alice, r_pub)
    settle_fallbacks(harness)
    for _ in range(2 if claim else 0):
        if claim == "joint":
            alice.redeem_with_refundee(r_priv, r_pub)
        else:
            alice.redeem_fallback()
        harness.ledger.advance_height(1)
    harness.merchant.monitor()
    wallet = harness.merchant.wallet
    return recover_database(MerchantWallet(wallet.master_seed, wallet.size), harness.ledger)


@pytest.mark.parametrize("claim, reverse", [
    ("joint", False), ("fallback", False), (None, False), (None, True),
], ids=["joint", "fallback", "unclaimed", "paid-in-reverse"])
def test_recovery_gives_each_payment_of_a_repeat_customer_its_own_refund(
    harness, claim, reverse
):
    """Both payments embed the same extended key, so both match each refund's
    masked child; each refund goes to the payment it was issued for."""
    result = recover_repeat_customer(harness, claim, reverse)
    kept = sorted(harness.merchant.records, key=lambda r: r.main_txid)
    assert len({r.main_txid for r in kept}) == 2
    assert [r.serialize() for r in result.records] == [r.serialize() for r in kept]
    assert len(result.records) == 2


def test_recovery_pairs_a_repeat_customers_unredeemed_refund_with_its_own(harness):
    """A repeat customer leaves its first joint refund unredeemed and redeems
    the second.  The second joint refund takes the first payment's free joint
    slot, but the first fallback, matched before it, keeps its companion: each
    record names its own refund pair and redeem, as monitor kept them."""
    from test_protocol import pay_and_issue, settle_fallbacks

    alice = harness.customer("alice")
    (_p1, r1_pub), (r2_priv, r2_pub) = keygen(b"first-refundee"), keygen(b"second-refundee")
    harness.fund([(alice, 100_000)], merchant_keys=8)
    first, second = pay_and_issue(harness, alice, r1_pub), pay_and_issue(harness, alice, r2_pub)
    settle_fallbacks(harness)
    alice.redeem_with_refundee(r2_priv, r2_pub)
    harness.ledger.advance_height(1)
    harness.merchant.monitor()
    assert first.record.redeem_txid == bytes(32) != second.record.redeem_txid
    wallet = harness.merchant.wallet
    result = recover_database(MerchantWallet(wallet.master_seed, wallet.size), harness.ledger)
    kept = sorted(harness.merchant.records, key=lambda r: r.main_txid)
    assert [r.serialize() for r in result.records] == [r.serialize() for r in kept]
