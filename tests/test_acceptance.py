"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import random
import time

from scipy.stats import binomtest

import reference as ref
from conftest import Harness
from refundsim import dispute, mixer
from refundsim.curve import SECP256K1
from refundsim.keys import (
    ExtendedPublicKey,
    derive_child_private,
    derive_child_public,
    dh_shared,
    keygen,
    mask_child,
    unmask_child_private,
)
from refundsim.protocol import CustomerWallet, RefundEntry
from refundsim.scenarios import Scenario, ScenarioName, run_scenario
from refundsim.transactions import ScriptHash, txid


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert passed, f"{criterion}{suffix}"


def scenario_verdict(name, seed=1, config=None, disable_defense=False, tmp=None):
    return run_scenario(
        Scenario(name, seed=seed, config=config or {}, disable_defense=disable_defense),
        out_dir=str(tmp) if tmp else None,
    )


def labels(verdict):
    return {a.label: a.passed for a in verdict.assertions}


# -- criterion 1 -------------------------------------------------------------------


def test_criterion_01_storage_constants():
    """record_size == 128 exactly; endorsement-scheme formula exact, n in 1..10."""
    start = time.time()
    ok = True
    record = dispute.RefundRecord(bytes(32), bytes(32), bytes(32))
    for n in (1, 3, 10):
        ok = ok and dispute.record_size(record) == 128
        ok = ok and len(record.serialize()) == 128
    for ls, lpay in ((0, 0), (72, 1000), (64, 50_000)):
        ok = ok and dispute.mccorry_storage(
            dispute.StorageModel(1, ls, lpay)
        ) == 252 + ls + lpay
        for n in range(1, 11):
            ok = ok and dispute.mccorry_storage(
                dispute.StorageModel(n, ls, lpay)
            ) == 210 + 42 * n + ls + lpay
    elapsed = time.time() - start
    report(
        "criterion 1: storage constants byte-exact",
        ok and elapsed < 1.0,
        f"{elapsed:.2f}s",
    )


# -- criterion 2 -------------------------------------------------------------------


def test_criterion_02_key_derivation_oracle_equivalence():
    """1000 randomized cases match the independent oracle exactly."""
    start = time.time()
    rng = random.Random(0xC2)
    failures = 0
    for _ in range(1000):
        seed = rng.randbytes(16)
        chain = rng.randbytes(32)
        priv, pub = keygen(seed)
        parent = ExtendedPublicKey(pub, chain)
        index = rng.randrange(0, 2**31)
        got_pub = derive_child_public(parent, index)
        want_pub = ref.ref_child_public(pub, chain, index)
        got_priv = derive_child_private(priv, parent, index)
        if got_pub != want_pub or SECP256K1.g_mul(got_priv) != got_pub:
            failures += 1
    elapsed = time.time() - start
    report(
        "criterion 2: 1000-case derivation oracle equivalence",
        failures == 0 and elapsed < 30,
        f"failures={failures}, {elapsed:.1f}s",
    )


# -- criterion 3 -------------------------------------------------------------------


def test_criterion_03_mask_unmask_and_dh_property_suites():
    """1000 randomized mask/unmask cases and 1000 DH-symmetry cases, zero failures."""
    start = time.time()
    rng = random.Random(0xC3)
    failures = 0
    for _ in range(1000):
        c_priv, c_pub = keygen(rng.randbytes(16))
        m_priv, m_pub = keygen(rng.randbytes(16))
        masked = mask_child(c_pub, m_priv)
        if SECP256K1.g_mul(unmask_child_private(c_priv, m_pub)) != masked:
            failures += 1
    for _ in range(1000):
        a, a_pub = keygen(rng.randbytes(16))
        b, b_pub = keygen(rng.randbytes(16))
        if dh_shared(a, b_pub) != dh_shared(b, a_pub):
            failures += 1
    elapsed = time.time() - start
    report(
        "criterion 3: mask/unmask + DH symmetry, 1000 cases each",
        failures == 0 and elapsed < 30,
        f"failures={failures}, {elapsed:.1f}s",
    )


# -- criterion 4 -------------------------------------------------------------------


def test_criterion_04_honest_refund_end_to_end(tmp_path):
    start = time.time()
    verdict = scenario_verdict(ScenarioName.HONEST_REFUND, tmp=tmp_path)
    got = labels(verdict)
    ok = (
        got["joint-redeem-confirms"]
        and got["refund-pair-values"]
        and got["record-gains-redeem-txid"]
        and verdict.all_passed
    )
    elapsed = time.time() - start
    report("criterion 4: honest refund end-to-end", ok and elapsed < 5, f"{elapsed:.1f}s")


# -- criterion 5 -------------------------------------------------------------------


def test_criterion_05_silkroad_proof_vs_baseline(tmp_path):
    start = time.time()
    defended = scenario_verdict(ScenarioName.SILKROAD, tmp=tmp_path)
    baseline = scenario_verdict(
        ScenarioName.SILKROAD, disable_defense=True, tmp=tmp_path
    )
    got, base = labels(defended), labels(baseline)
    ok = (
        got["linkage-proof-verifies"]
        and defended.all_passed
        and base["no-linkage-evidence"]
        and baseline.all_passed
    )
    elapsed = time.time() - start
    report(
        "criterion 5: silkroad linkage evidence (defended) / none (vanilla)",
        ok and elapsed < 5,
        f"{elapsed:.1f}s",
    )


# -- criterion 6 -------------------------------------------------------------------


def test_criterion_06_marketplace_boundary_and_baseline(tmp_path):
    start = time.time()
    defended = scenario_verdict(ScenarioName.MARKETPLACE, tmp=tmp_path)
    baseline = scenario_verdict(
        ScenarioName.MARKETPLACE, disable_defense=True, tmp=tmp_path
    )
    got, base = labels(defended), labels(baseline)
    ok = (
        got["rogue-balance-delta-zero"]
        and got["fallback-locked-before-lock-height"]
        and got["fallback-claimed-at-lock-height"]
        and got["customer-recovers-full-refund"]
        and defended.all_passed
        and base["rogue-steals-refund"]
    )
    elapsed = time.time() - start
    report(
        "criterion 6: marketplace rogue blocked, fallback exactly at lock 1008",
        ok and elapsed < 5,
        f"{elapsed:.1f}s",
    )


# -- criterion 7 -------------------------------------------------------------------


def test_criterion_07_multi_signer(tmp_path):
    start = time.time()
    verdict = scenario_verdict(ScenarioName.MULTI_SIGNER, tmp=tmp_path)
    got = labels(verdict)
    ok = (
        got["attacker-gain-zero"]
        and got["victim-recovers-via-fallback"]
        and verdict.all_passed
    )
    elapsed = time.time() - start
    report(
        "criterion 7: multi-signer injection yields zero attacker gain",
        ok and elapsed < 5,
        f"{elapsed:.1f}s",
    )


# -- criterion 8 -------------------------------------------------------------------


def test_criterion_08_recovery_with_256_key_wallet(tmp_path):
    start = time.time()
    verdict = scenario_verdict(ScenarioName.RECOVERY, tmp=tmp_path)
    got = labels(verdict)
    ok = (
        got["records-recovered-exactly"]
        and got["keygen-counter-bound"]
        and got["search-counter-bound"]
        and verdict.all_passed
    )
    elapsed = time.time() - start
    report(
        "criterion 8: database recovery, 2^8 keys, counters within bounds",
        ok and elapsed < 60,
        f"{elapsed:.1f}s",
    )


# -- criterion 9 -------------------------------------------------------------------


def _mix_trial(trial: int, totals, k=4, redeem=False):
    """One seeded mixing run; returns (report, service, harness)."""
    tag = b"acc-mix-%d" % trial
    harness = Harness(tag=tag, lock_blocks=30, window_blocks=400)
    customers, refundees = [], []
    for i, total in enumerate(totals):
        customers.append(harness.customer(f"payer{i}", tag))
        refundees.append(CustomerWallet(b"acc-ref-%d-" % i + tag))
    harness.fund(list(zip(customers, totals)), merchant_keys=4 * len(totals) + 4)
    service = mixer.MixerService(
        harness.merchant, k=k, min_customers=min(2, len(totals)),
        jitter_window=3, rng_seed=trial,
    )
    for customer, wallet, total in zip(customers, refundees, totals):
        request = harness.merchant.create_request(total)
        msg = customer.pay(request, [RefundEntry(wallet.xpub, total)], encrypt=True)
        harness.merchant.process_payment(msg)
        harness.ledger.advance_height(1)
        service.enqueue_refund(request.merchant_data, customer.name)
    # every payer is queued, so the batch already holds its quorum
    assert service.try_emit()
    harness.ledger.advance_height(4)
    analysis = mixer.analyze_linkage(harness.ledger, service.truth, rng_seed=trial)
    return analysis, service, harness


def test_criterion_09_mixing_unlinkability_statistics():
    """200 seeded trials: target-link success consistent with the coin-flip
    baseline (two-sided binomial, alpha = 0.01) and mean accuracy within
    ten points of 0.5; the single-customer control is fully linkable and the
    unequal-chunk ablation beats the baseline."""
    start = time.time()
    trials = 200
    successes = 0
    accuracies = []
    for trial in range(trials):
        analysis, _service, _harness = _mix_trial(trial, totals=[100_000, 100_000])
        successes += int(analysis.target_correct)
        accuracies.append(analysis.accuracy)
    test_result = binomtest(successes, trials, p=0.5)
    mean_accuracy = sum(accuracies) / len(accuracies)
    control, _s, _h = _mix_trial(9001, totals=[100_000])
    ablation, _s, _h = _mix_trial(9002, totals=[90_000, 80_000])
    ok = (
        test_result.pvalue >= 0.01
        and abs(mean_accuracy - 0.5) <= 0.10
        and control.accuracy == 1.0
        and ablation.accuracy > 0.5 + 0.10
    )
    elapsed = time.time() - start
    report(
        "criterion 9: mixing unlinkability at chance level over 200 trials",
        ok and elapsed < 120,
        f"successes={successes}/200 p={test_result.pvalue:.3f} "
        f"mean_acc={mean_accuracy:.3f} control={control.accuracy:.2f} "
        f"ablation={ablation.accuracy:.2f}, {elapsed:.0f}s",
    )


# -- criterion 10 ------------------------------------------------------------------


def _aggregate_trial(trial: int, verify_proofs: bool):
    tag = b"acc-agg-%d" % trial
    harness = Harness(tag=tag, lock_blocks=25, window_blocks=400)
    customers, refundees, mds = [], [], []
    for i in range(2):
        customers.append(harness.customer(f"payer{i}", tag))
        refundees.append(CustomerWallet(b"acc-aggref-%d-" % i + tag))
    harness.fund([(c, 100_000) for c in customers], merchant_keys=12)
    service = mixer.AggregateService(harness.merchant, k=4, rng_seed=trial)
    for customer, wallet in zip(customers, refundees):
        request = harness.merchant.create_request(100_000)
        msg = customer.pay(request, [RefundEntry(wallet.xpub, 100_000)], encrypt=True)
        harness.merchant.process_payment(msg)
        harness.ledger.advance_height(1)
        service.aggregate_refund(request.merchant_data, customer.name)
        mds.append(request.merchant_data)
    _joint, fallback_txs = service.emit()
    harness.ledger.advance_height(4)
    for md, customer, wallet in zip(mds, customers, refundees):
        _p, dest = keygen(b"acc-agg-dest" + md)
        service.joint_redeem_all(md, customer.wallet, wallet, dest)
    harness.ledger.advance_height(1)
    proofs_ok = True
    n_proofs = 0
    if verify_proofs:
        max_lock = max(tx.lock_height for tx in fallback_txs)
        harness.ledger.advance_height(max(0, max_lock - harness.ledger.height) + 1)
        for md in mds:
            for proof in service.chunk_proofs(md):
                proofs_ok = proofs_ok and bool(
                    dispute.verify_linkage_proof(proof, harness.ledger)
                )
                n_proofs += 1
    analysis = mixer.analyze_linkage(harness.ledger, service.truth, rng_seed=trial)
    return analysis, proofs_ok, n_proofs


def test_criterion_10_aggregate_proofs_plus_unlinkability():
    """Every chunk proof verifies, and the criterion-9 statistics hold on
    aggregate-mode ledgers (joint redemptions included)."""
    start = time.time()
    trials = 200
    successes = 0
    accuracies = []
    proofs_ok = True
    total_proofs = 0
    for trial in range(trials):
        verify = trial < 5  # replay-verify every chunk proof on a sample of runs
        analysis, trial_proofs_ok, n_proofs = _aggregate_trial(trial, verify)
        if verify:
            proofs_ok = proofs_ok and trial_proofs_ok and n_proofs == 8
            total_proofs += n_proofs
        successes += int(analysis.target_correct)
        accuracies.append(analysis.accuracy)
    test_result = binomtest(successes, trials, p=0.5)
    mean_accuracy = sum(accuracies) / len(accuracies)
    ok = (
        proofs_ok
        and total_proofs == 40
        and test_result.pvalue >= 0.01
        and abs(mean_accuracy - 0.5) <= 0.10
    )
    elapsed = time.time() - start
    report(
        "criterion 10: aggregate chunk proofs verify and unlinkability holds",
        ok and elapsed < 120,
        f"proofs={total_proofs} successes={successes}/200 "
        f"p={test_result.pvalue:.3f} mean_acc={mean_accuracy:.3f}, {elapsed:.0f}s",
    )


# -- criterion 11 ------------------------------------------------------------------


def test_criterion_11_conservation_and_soundness_everywhere(tmp_path):
    """Zero-sum deltas, no double spends, and lock enforcement in every scenario."""
    start = time.time()
    ok = True
    details = []
    for name in ScenarioName:
        verdict = scenario_verdict(name, seed=7, tmp=tmp_path)
        got = labels(verdict)
        sound = (
            got["accounting-closure"]
            and got["ledger-no-double-spends"]
            and got["ledger-locks-enforced"]
            and got["ledger-utxo-replay-matches"]
        )
        ok = ok and sound
        if not sound:
            details.append(name.value)
    elapsed = time.time() - start
    report(
        "criterion 11: conservation and ledger soundness across all scenarios",
        ok,
        f"failing={details or 'none'}, {elapsed:.1f}s",
    )
