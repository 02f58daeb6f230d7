"""Splitting, batching, mixed emission, sweeping, and the adversary."""

import copy
import itertools
import math
import random
import signal

import pytest
from hypothesis import given, settings, strategies as st

from refundsim import dispute, keys
from refundsim.curve import SECP256K1, CurveGroup
from refundsim.keys import derive_child_public, keygen, mask_child, unmask_child_private
from refundsim.ledger import SimLedger
from refundsim.mixer import (
    AggregateService,
    ChunkFact,
    ChunkTooSmall,
    MIX_TIMEOUT_BLOCKS,
    MixChunk,
    MixGroundTruth,
    MixerError,
    MixerService,
    _feasible_assignments,
    _interleave_by_origin,
    _partition,
    analyze_linkage,
    check_mixable,
    check_spans_txs,
    derive_chunk_keys,
    split_value,
    sweep_chunks,
)
from refundsim.protocol import CustomerWallet, RefundEntry, SessionState, pay_joint
from refundsim.scenarios import Scenario, ScenarioName, run_scenario
from refundsim.transactions import (
    PayToPubkeyHash,
    ScriptHash,
    build_redeem,
    key_hash,
    serialize_tx,
    txid,
)


# -- split plans -----------------------------------------------------------------


def brute_force_valid_splits(total, k):
    """Oracle: enumerate all near-equal k-part compositions of total."""
    base = total // k
    candidates = set()
    for extras in itertools.combinations(range(k), total % k):
        plan = tuple(base + (1 if i in extras else 0) for i in range(k))
        candidates.add(plan)
    return candidates


def test_split_even():
    assert split_value(100, 4) == (25, 25, 25, 25)


def test_split_remainder_matches_bruteforce():
    got = split_value(10, 3)
    assert got == (4, 3, 3)
    assert got in brute_force_valid_splits(10, 3)


def test_split_too_small():
    with pytest.raises(ChunkTooSmall):
        split_value(5, 10)


@settings(max_examples=100, deadline=None)
@given(
    total=st.integers(min_value=1, max_value=10**9),
    k=st.integers(min_value=1, max_value=32),
)
def test_property_split_conserves_and_balances(total, k):
    if total < k:
        with pytest.raises(ChunkTooSmall):
            split_value(total, k)
        return
    chunks = split_value(total, k)
    assert sum(chunks) == total
    assert max(chunks) - min(chunks) <= 1
    assert len(chunks) == k


# -- chunk keys -------------------------------------------------------------------


def test_chunk_keys_single_is_composition():
    wallet = CustomerWallet(b"chunk-refundee")
    m_priv, _ = keygen(b"chunk-merchant")
    got = derive_chunk_keys(wallet.xpub, 1, m_priv)
    expected = mask_child(derive_child_public(wallet.xpub, 0), m_priv)
    assert got[0] == expected


def test_chunk_keys_distinct():
    wallet = CustomerWallet(b"chunk-refundee")
    m_priv, _ = keygen(b"chunk-merchant")
    keys = derive_chunk_keys(wallet.xpub, 5, m_priv)
    assert len({SECP256K1.encode_point(k) for k in keys}) == 5


# -- batching -----------------------------------------------------------------------


def test_batch_not_ready_until_quorum_or_timeout():
    from conftest import Harness

    service = MixerService(Harness(tag=b"ready").merchant, min_customers=2)
    service.pending_since = 5

    def ready_at(height):
        service.ledger.height = height
        return service.ready()

    assert not ready_at(6)
    service.pending.append(MixChunk(SECP256K1.g, 10, b"a"))
    assert not ready_at(6)
    assert not ready_at(5 + MIX_TIMEOUT_BLOCKS - 1)
    assert ready_at(5 + MIX_TIMEOUT_BLOCKS)  # timeout
    service.pending.append(MixChunk(SECP256K1.g, 10, b"b"))
    assert ready_at(6)  # quorum


def test_mixing_rules_hold_exactly():
    """`check_mixable` raises exactly when the module's own interleave and
    partition leave some transaction the chunks of a single origin, and
    `check_spans_txs` exactly when several origins' chunks fit in one
    transaction; one origin breaks neither rule."""
    rng = random.Random(0)
    for origins, per_origin, per_tx in itertools.product(
        range(1, 7), range(1, 7), range(1, 11)
    ):
        entries = [
            MixChunk(SECP256K1.g, 1, bytes([o])) for o in range(origins) for _ in range(per_origin)
        ]
        groups = _partition(_interleave_by_origin(entries, rng), per_tx)
        assert sorted(e.origin for g in groups for e in g) == sorted(e.origin for e in entries)
        for rule, broken in (
            (check_mixable, any(len({e.origin for e in g}) < 2 for g in groups)),
            (check_spans_txs, len(groups) < 2),
        ):
            try:
                rule(origins, per_origin, per_tx)
            except ValueError:
                raised = True
            else:
                raised = False
            assert raised == (origins > 1 and broken), (rule.__name__, origins, per_origin, per_tx)


def mixer_env(harness_cls, n_customers=2, totals=None, k=4, seed=7, tag=b"",
              min_customers=2):
    from conftest import Harness

    totals = totals or [100_000] * n_customers
    harness = Harness(tag=tag, lock_blocks=30, window_blocks=400)
    customers, refundees = [], []
    for i in range(n_customers):
        customers.append(harness.customer(f"payer{i}", tag))
        refundees.append(CustomerWallet(b"mix-refundee-%d" % i + tag))
    harness.fund(list(zip(customers, totals)), merchant_keys=4 * n_customers + 4)
    service = MixerService(
        harness.merchant, k=k, min_customers=min_customers, jitter_window=3, rng_seed=seed,
    )
    for customer, wallet, total in zip(customers, refundees, totals):
        request = harness.merchant.create_request(total)
        msg = customer.pay(request, [RefundEntry(wallet.xpub, total)], encrypt=True)
        harness.merchant.process_payment(msg)
        harness.ledger.advance_height(1)
        service.enqueue_refund(request.merchant_data, customer.name)
    return harness, service, customers, refundees


def test_two_customers_every_tx_mixed():
    harness, service, _customers, _refundees = mixer_env(None)
    emitted = service.try_emit()
    assert len(emitted) >= 2
    for tx in emitted:
        origins = {f.origin for f in service.truth.chunk_facts if f.txid == txid(tx)}
        assert len(origins) == 2


def test_three_customers_interleaved():
    harness, service, _c, _r = mixer_env(None, n_customers=3, tag=b"3c")
    emitted = service.try_emit()
    assert len(emitted) >= 2
    assert len(service.truth.chunk_facts) == 12
    for tx in emitted:
        origins = {f.origin for f in service.truth.chunk_facts if f.txid == txid(tx)}
        assert len(origins) >= 2


def test_uneven_chunk_counts_never_hide_an_unmixed_emission():
    """A customer with two refund entries brings twice the chunks of one
    with a single entry.  Interleaving gives a, b | a, b | a, a, and no group
    holds two foreign chunks to swap into the last, so exactly that one
    transaction is single-origin, and the ground truth names it (the fix-up
    swap used to take the only foreign chunk of a mixed group, which then
    went out single-origin and unnamed)."""
    from conftest import Harness

    harness = Harness(tag=b"swap")
    a, b = harness.customer("a", b"swap"), harness.customer("b", b"swap")
    harness.fund([(a, 100_000), (b, 100_000)], merchant_keys=8)
    service = MixerService(harness.merchant, k=2, outputs_per_tx=2, rng_seed=3)
    refundees = {a: [b"swap-a1", b"swap-a2"], b: [b"swap-b"]}
    for customer, seeds in refundees.items():
        request = harness.merchant.create_request(100_000)
        plan = [RefundEntry(CustomerWallet(s).xpub, 100_000 // len(seeds)) for s in seeds]
        harness.merchant.process_payment(customer.pay(request, plan, encrypt=True))
        harness.ledger.advance_height(1)
        service.enqueue_refund(request.merchant_data, customer.name)
    emitted = service.try_emit()
    assert len(emitted) == 3
    unmixed = service.truth.unmixed_txids()
    assert len(unmixed) == 1 and unmixed < {txid(tx) for tx in emitted}


def test_single_customer_timeout_emits_unmixed():
    harness, service, _c, _r = mixer_env(None, n_customers=1, tag=b"1c")
    assert service.try_emit() == []  # below quorum, before timeout
    harness.ledger.advance_height(MIX_TIMEOUT_BLOCKS)
    emitted = service.try_emit()
    assert emitted
    assert service.truth.unmixed_txids() == {txid(tx) for tx in emitted}


def test_batch_timeout_starts_with_its_first_chunk():
    """After a quorum emission, a lone customer's refund waits out the whole
    timeout from its own queueing, not from the service's creation."""
    harness, service, _c, _r = mixer_env(None, tag=b"late")
    assert service.try_emit()  # quorum of two
    late = harness.customer("late", b"late")
    harness.fund([(late, 100_000)], merchant_keys=0)
    harness.ledger.advance_height(2 * MIX_TIMEOUT_BLOCKS)
    refundee = CustomerWallet(b"late-refundee")
    request = harness.merchant.create_request(100_000)
    msg = late.pay(request, [RefundEntry(refundee.xpub, 100_000)], encrypt=True)
    harness.merchant.process_payment(msg)
    harness.ledger.advance_height(1)
    service.enqueue_refund(request.merchant_data, late.name)
    harness.ledger.advance_height(MIX_TIMEOUT_BLOCKS - 1)
    assert service.try_emit() == []
    assert service.truth.unmixed_txids() == set()
    harness.ledger.advance_height(1)
    late_txs = service.try_emit()
    assert late_txs
    assert service.truth.unmixed_txids() == {txid(tx) for tx in late_txs}


def test_emitted_chunk_values_equal():
    _harness, service, _c, _r = mixer_env(None, tag=b"eq")
    service.try_emit()
    values = {f.value for f in service.truth.chunk_facts}
    assert values == {25_000}


def test_emission_deterministic_under_seed():
    _h1, s1, _c1, _r1 = mixer_env(None, seed=5, tag=b"det")
    _h2, s2, _c2, _r2 = mixer_env(None, seed=5, tag=b"det")
    assert [txid(t) for t in s1.try_emit()] == [txid(t) for t in s2.try_emit()]


def test_mix_value_conservation_and_sweep():
    harness, service, customers, refundees = mixer_env(None, tag=b"sweep")
    service.try_emit()
    harness.ledger.advance_height(4)
    per_customer = {}
    for fact in service.truth.chunk_facts:
        name = service.truth.origin_names[fact.origin]
        per_customer[name] = per_customer.get(name, 0) + fact.value
    assert all(v == 100_000 for v in per_customer.values())
    maskers = list(service.masker_pubs.values())
    for wallet, masker in zip(refundees, maskers):
        _priv, dest = keygen(b"sweep-dest" + wallet.xpub.chain_code)
        claimed, total = sweep_chunks(wallet, masker, harness.ledger, dest, 4)
        assert total == 100_000
        assert len(claimed) == 4


def full_scan_sweep(wallet, masker_pub, ledger, dest, chunk_count):
    """The sweep as a walk of every confirmed transaction per child index."""
    claimed, total = [], 0
    for index in range(chunk_count):
        masked_priv = unmask_child_private(wallet.child_private(index), masker_pub)
        masked_point = SECP256K1.g_mul(masked_priv)
        wanted = key_hash(masked_point)
        for _height, tid, tx in ledger.all_confirmed():
            for vout, out in enumerate(tx.outputs):
                if (
                    isinstance(out.script, PayToPubkeyHash)
                    and out.script.pubkey_hash == wanted
                    and ledger.unspent_output(tid, vout) is not None
                ):
                    redeem = build_redeem(tx, vout, [(masked_priv, masked_point)], dest)
                    if ledger.broadcast(redeem):
                        claimed.append(redeem)
                        total += out.value
    return claimed, total


def twice_paid_refundee():
    """Two customers mixed; the first names one refundee wallet in two
    entries, so each of its masked children is paid twice."""
    from conftest import Harness

    harness = Harness(tag=b"twice", lock_blocks=30, window_blocks=400)
    customers = [harness.customer(f"payer{i}", b"twice") for i in range(2)]
    refundees = [CustomerWallet(b"twice-refundee-%d" % i) for i in range(2)]
    harness.fund([(c, 100_000) for c in customers], merchant_keys=12)
    service = MixerService(harness.merchant, k=4, rng_seed=11)
    plans = [
        [RefundEntry(refundees[0].xpub, 60_000), RefundEntry(refundees[0].xpub, 40_000)],
        [RefundEntry(refundees[1].xpub, 100_000)],
    ]
    for customer, plan in zip(customers, plans):
        request = harness.merchant.create_request(100_000)
        msg = customer.pay(request, plan, encrypt=True)
        harness.merchant.process_payment(msg)
        harness.ledger.advance_height(1)
        service.enqueue_refund(request.merchant_data, customer.name)
    assert service.try_emit()
    harness.ledger.advance_height(4)
    return harness, service, refundees


def test_sweep_never_walks_the_chain(monkeypatch):
    harness, service, refundees = twice_paid_refundee()

    def walk(_ledger):
        raise AssertionError("sweep walked the chain")

    monkeypatch.setattr(SimLedger, "all_confirmed", walk)
    _priv, dest = keygen(b"twice-dest")
    masker = list(service.masker_pubs.values())[0]
    claimed, total = sweep_chunks(refundees[0], masker, harness.ledger, dest, 4)
    assert (len(claimed), total) == (8, 100_000)


def test_sweep_matches_full_scan():
    """Same claims, in the same order, as walking the chain per index; a
    second sweep after the first confirms skips what is already spent."""
    harness, service, refundees = twice_paid_refundee()
    ledger, ref_ledger = harness.ledger, copy.deepcopy(harness.ledger)
    masker = list(service.masker_pubs.values())[0]
    _priv, dest = keygen(b"twice-dest")
    for chunk_count in (2, 4):
        got, total = sweep_chunks(refundees[0], masker, ledger, dest, chunk_count)
        want, ref_total = full_scan_sweep(refundees[0], masker, ref_ledger, dest, chunk_count)
        assert got
        assert [txid(t) for t in got] == [txid(t) for t in want]
        assert total == ref_total
        ledger.advance_height(1)
        ref_ledger.advance_height(1)
    assert sweep_chunks(refundees[0], masker, ledger, dest, 4) == ([], 0)


def test_sweep_unmasks_its_children_in_one_batch(record_calls):
    """The k children of a sweep cost one comb of the masker key and no `mul`."""
    harness, service, refundees = twice_paid_refundee()
    masker = list(service.masker_pubs.values())[0]
    _priv, dest = keygen(b"twice-dest")
    muls = record_calls(SECP256K1, "mul")
    batches = record_calls(SECP256K1, "mul_many")
    builds = record_calls(CurveGroup, "_build_comb")
    sweep_chunks(refundees[0], masker, harness.ledger, dest, 4)
    assert muls == []
    assert [(len(ks), base) for ks, base in batches] == [(4, masker)]
    assert [(base, bits) for _curve, base, bits in builds] == [(masker, 4)]


def test_no_metadata_leakage_in_emissions():
    harness, service, _customers, refundees = mixer_env(None, tag=b"leak")
    service.try_emit()
    harness.ledger.advance_height(4)
    haystack = b"".join(
        serialize_tx(tx) for _h, _tid, tx in harness.ledger.all_confirmed()
    )
    for origin in service.truth.origin_names:
        assert origin not in haystack
    for wallet in refundees:
        assert SECP256K1.encode_point(wallet.pub) not in haystack


# -- the adversary ----------------------------------------------------------------


def finished_mix(n_customers=2, totals=None, seed=7, tag=b"an"):
    harness, service, customers, refundees = mixer_env(
        None, n_customers=n_customers, totals=totals, seed=seed, tag=tag
    )
    emitted = service.try_emit()
    if not emitted:
        harness.ledger.advance_height(MIX_TIMEOUT_BLOCKS)
        service.try_emit()
    harness.ledger.advance_height(4)
    return harness, service


def test_analyzer_equal_chunks_ambiguous():
    harness, service = finished_mix()
    report = analyze_linkage(harness.ledger, service.truth, rng_seed=1)
    assert len(service.truth.chunk_facts) == 8
    assert report.feasible_assignments == 70  # C(8,4) value-consistent splits


def test_analyzer_single_customer_certain():
    harness, service = finished_mix(n_customers=1, tag=b"an1")
    report = analyze_linkage(harness.ledger, service.truth, rng_seed=1)
    assert report.accuracy == 1.0
    assert report.target_correct


def test_analyzer_unequal_totals_pinpointed():
    """Distinct chunk values give the game away: a deliberate ablation."""
    harness, service = finished_mix(totals=[90_000, 80_000], tag=b"anu")
    report = analyze_linkage(harness.ledger, service.truth, rng_seed=1)
    assert report.feasible_assignments == 1
    assert report.accuracy == 1.0


def test_analyzer_of_no_refunds_links_nothing():
    """With no refund and no chunk the one consistent assignment is empty,
    and it links no target (it used to raise IndexError)."""
    report = analyze_linkage(None, MixGroundTruth())
    assert (report.accuracy, report.feasible_assignments, report.target_correct) == (
        0.0, 1, False,
    )


def test_repeat_customer_refunds_are_scored_per_refund():
    """A customer refunded twice in one batch has two refunds, each with its
    own total and payment height.  Keyed by customer name, the second
    overwrote the first, no assignment was consistent and the adversary
    scored 0."""
    from conftest import Harness

    harness = Harness(tag=b"repeat")
    a, b = harness.customer("a", b"repeat"), harness.customer("b", b"repeat")
    harness.fund([(a, 100_000), (b, 100_000)], merchant_keys=8)
    service = MixerService(harness.merchant, k=2, outputs_per_tx=2, rng_seed=1)
    for customer, total in ((a, 60_000), (a, 40_000), (b, 100_000)):
        request = harness.merchant.create_request(total)
        refundee = CustomerWallet(b"repeat-refundee-%d" % total)
        msg = customer.pay(request, [RefundEntry(refundee.xpub, total)], encrypt=True)
        harness.merchant.process_payment(msg)
        harness.ledger.advance_height(1)
        service.enqueue_refund(request.merchant_data, customer.name)
    assert len(service.try_emit()) == 3
    assert sorted(service.truth.refund_totals.values()) == [40_000, 60_000, 100_000]
    report = analyze_linkage(harness.ledger, service.truth, rng_seed=1)
    assert report.feasible_assignments == 1
    assert report.accuracy == 1.0 and report.target_correct


def test_analyzer_accuracy_spread_over_seeds():
    """Across many analyzer seeds the mean accuracy sits near chance."""
    harness, service = finished_mix(tag=b"ans")
    accuracies = [
        analyze_linkage(harness.ledger, service.truth, rng_seed=s).accuracy
        for s in range(60)
    ]
    mean = sum(accuracies) / len(accuracies)
    assert 0.35 <= mean <= 0.65


def enumerate_assignments(outputs, customers, totals, payment_heights):
    """Oracle: every consistent assignment by backtracking, in search order
    (outputs by descending value, customers in turn), with no cap."""
    order = sorted(range(len(outputs)), key=lambda i: -outputs[i].value)
    found = []
    assignment = [None] * len(outputs)

    def backtrack(pos, remaining):
        if pos == len(order):
            if all(v == 0 for v in remaining.values()):
                found.append(tuple(assignment))
            return
        out = outputs[order[pos]]
        for customer in customers:
            if remaining[customer] < out.value:
                continue
            if payment_heights[customer] > out.emission_height:
                continue
            remaining[customer] -= out.value
            assignment[order[pos]] = customer
            backtrack(pos + 1, remaining)
            assignment[order[pos]] = None
            remaining[customer] += out.value

    backtrack(0, dict(totals))
    return found


def linkage_case(values, heights, owners, paid, extra=None):
    """Chunk facts with the given values, emission heights and true owners;
    totals follow from the owners unless `extra` shifts them."""
    outputs = [
        ChunkFact(bytes([i]) * 32, 0, v, owner.encode(), h)
        for i, (v, h, owner) in enumerate(zip(values, heights, owners))
    ]
    customers = sorted(paid)
    totals = {c: sum(v for v, o in zip(values, owners) if o == c) for c in customers}
    for c, delta in (extra or {}).items():
        totals[c] += delta
    return outputs, customers, totals, paid


def random_linkage_cases(count, seed=5):
    rng = random.Random(seed)
    for _ in range(count):
        n_out = rng.randint(1, 7)
        names = ["a", "b", "c"][: rng.randint(2, 3)]
        owners = [rng.choice(names) for _ in range(n_out)]
        paid = {c: rng.randint(0, 2) for c in names}
        heights = [paid[o] + rng.randint(0, 2) for o in owners]
        values = [rng.randint(1, 3) for _ in range(n_out)]
        yield linkage_case(values, heights, owners, paid)


LINKAGE_CASES = [
    # equal chunks, three customers: 6!/(2!)^3 = 90 assignments
    linkage_case([5] * 6, [3] * 6, list("aabbcc"), {"a": 0, "b": 0, "c": 0}),
    # unequal values
    linkage_case([3, 2, 2, 1, 1, 1], [4] * 6, list("aabbab"), {"a": 0, "b": 0}),
    # c paid at height 3, after the first chunks were emitted
    linkage_case([2, 2, 2, 2, 1, 1], [1, 2, 3, 4, 3, 4], list("abcabc"),
                 {"a": 0, "b": 1, "c": 3}),
    # totals no assignment can meet
    linkage_case([2, 2, 2], [1, 1, 1], list("aab"), {"a": 0, "b": 0}, extra={"a": 1}),
] + list(random_linkage_cases(40))


@pytest.mark.parametrize("case", range(len(LINKAGE_CASES)))
def test_feasible_assignment_ranks_match_full_enumeration(case):
    outputs, customers, totals, paid = LINKAGE_CASES[case]
    expected = enumerate_assignments(outputs, customers, totals, paid)
    count, nth = _feasible_assignments(outputs, customers, totals, paid)
    assert count == len(expected)
    assert [nth(rank) for rank in range(count)] == expected


def test_linkage_cases_cover_unequal_values_and_late_payers():
    pruned = unequal = infeasible = False
    for outputs, customers, totals, paid in LINKAGE_CASES:
        unequal |= len({o.value for o in outputs}) > 1
        pruned |= any(paid[c] > o.emission_height for o in outputs for c in customers)
        infeasible |= not enumerate_assignments(outputs, customers, totals, paid)
    assert unequal and pruned and infeasible


def _out_of_time(_signum, _frame):
    raise TimeoutError("the count took more than 10 s")


def test_two_runs_of_chunks_counted_customer_by_customer():
    """Twelve customers whose equal refunds of 100000 split into 18 chunks:
    ten of 5556 and eight of 5555 each.  Every customer takes exactly ten
    of the larger, so the count is a product of two multinomials; it closes
    over the two runs at once rather than searching the C(22, 10) ways the
    larger chunks could stand part way."""
    customers = [f"c{i:02}" for i in range(12)]
    values = [5556] * 120 + [5555] * 96
    outputs = [ChunkFact(i.to_bytes(32, "big"), 0, v, b"", 20) for i, v in enumerate(values)]
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(10)
    try:
        count, nth = _feasible_assignments(
            outputs, customers, dict.fromkeys(customers, 100_000), dict.fromkeys(customers, 1)
        )
        last = nth(count - 1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert count == (
        math.factorial(120) // math.factorial(10) ** 12
        * (math.factorial(96) // math.factorial(8) ** 12)
    )
    assert all(last.count(c) == 18 for c in customers)


def test_assignments_counted_beyond_enumeration_reach(tmp_path):
    """Three customers with four equal chunks each: 12!/(4!)^3 assignments,
    counted exactly rather than cut off."""
    verdict = run_scenario(
        Scenario(ScenarioName.MIXER, seed=1, config={"n_customers": 3, "k": 4}),
        out_dir=str(tmp_path),
    )
    ambiguity = next(a for a in verdict.assertions if a.label == "equal-chunk-ambiguity")
    assert ambiguity.detail == "34650 feasible assignments"
    assert verdict.all_passed


# -- aggregate mode ---------------------------------------------------------------


def aggregate_env(n_customers=2, k=4, tag=b"agg", seed=9):
    from conftest import Harness

    harness = Harness(tag=tag, lock_blocks=25, window_blocks=400)
    customers, refundees, mds = [], [], []
    for i in range(n_customers):
        customers.append(harness.customer(f"payer{i}", tag))
        refundees.append(CustomerWallet(b"agg-refundee-%d" % i + tag))
    harness.fund(
        [(c, 100_000) for c in customers], merchant_keys=4 * n_customers + 4
    )
    service = AggregateService(harness.merchant, k=k, rng_seed=seed)
    for customer, wallet in zip(customers, refundees):
        request = harness.merchant.create_request(100_000)
        msg = customer.pay(request, [RefundEntry(wallet.xpub, 100_000)], encrypt=True)
        harness.merchant.process_payment(msg)
        harness.ledger.advance_height(1)
        service.aggregate_refund(request.merchant_data, customer.name)
        mds.append(request.merchant_data)
    return harness, service, customers, refundees, mds


def test_aggregate_structure_single_session_k3():
    harness, service, _c, _r, mds = aggregate_env(n_customers=1, k=3, tag=b"agg1")
    joint_txs, fallback_txs = service.emit()
    joint_outputs = [
        o
        for tx in joint_txs
        for o in tx.outputs
        if isinstance(o.script, ScriptHash)
    ]
    assert len(joint_outputs) == 3
    locked_chunks = sum(
        1
        for tx in fallback_txs
        for o in tx.outputs
        if not isinstance(o.script, ScriptHash) and o.value in (33_334, 33_333)
    )
    assert locked_chunks == 3
    assert all(tx.lock_height > harness.ledger.height for tx in fallback_txs)


def test_aggregate_joint_redeem_and_proofs():
    harness, service, customers, refundees, mds = aggregate_env()
    joint_txs, fallback_txs = service.emit()
    harness.ledger.advance_height(4)
    for md, customer, wallet in zip(mds, customers, refundees):
        _p, dest = keygen(b"agg-dest" + md)
        redeems = service.joint_redeem_all(md, customer.wallet, wallet, dest)
        assert len(redeems) == 4
    harness.ledger.advance_height(1)
    max_lock = max(tx.lock_height for tx in fallback_txs)
    harness.ledger.advance_height(max(0, max_lock - harness.ledger.height) + 1)
    for md in mds:
        for proof in service.chunk_proofs(md):
            check = dispute.verify_linkage_proof(proof, harness.ledger)
            assert check.ok, check.reason


def test_chunk_proofs_read_redeems_from_the_chain():
    """A chunk redeemed without `joint_redeem_all` still gets a proof that
    verifies: its redeem is read off the ledger, and only once it confirms."""
    harness, service, customers, refundees, mds = aggregate_env(n_customers=1, tag=b"agg-own")
    _joint_txs, fallback_txs = service.emit()
    harness.ledger.advance_height(4)
    _p, dest = keygen(b"agg-own-dest")
    for detail in service.details[mds[0]]:
        masked_c, masked_r = detail.script.keys
        redeem = build_redeem(
            harness.ledger.get_transaction(detail.joint_txid),
            detail.joint_vout,
            [
                (customers[0].wallet.masked_private(detail.masking_pub, detail.chunk.flat_index),
                 masked_c),
                (refundees[0].masked_private(detail.masking_pub, detail.chunk.chunk_index),
                 masked_r),
            ],
            dest=dest,
            reveal_script=detail.script,
        )
        assert harness.ledger.broadcast(redeem)
    with pytest.raises(dispute.NotRedeemed):
        service.chunk_proofs(mds[0])
    # a proof replays only from a full chain, fallback emissions included
    max_lock = max(tx.lock_height for tx in fallback_txs)
    harness.ledger.advance_height(max_lock - harness.ledger.height + 1)
    proofs = service.chunk_proofs(mds[0])
    assert len(proofs) == 4
    for proof in proofs:
        check = dispute.verify_linkage_proof(proof, harness.ledger)
        assert check.ok, check.reason


def test_fallback_scan_skips_time_locked_joint_emissions(record_calls):
    """Aggregate joint emissions are time-locked but pay script hashes, so
    they are joint refunds: the fallback scan unmasks nothing under their
    funders, although they confirm between the payment and the fallback."""
    harness, service, customers, _r, _mds = aggregate_env(n_customers=1, tag=b"agg-fb")
    joint_txs, fallback_txs = service.emit()
    assert max(tx.lock_height for tx in joint_txs) < min(tx.lock_height for tx in fallback_txs)
    harness.ledger.advance_height(
        max(tx.lock_height for tx in fallback_txs) - harness.ledger.height + 1
    )
    unmasks = record_calls(keys, "unmask_child_private")
    batches = record_calls(keys, "unmask_children")
    found = customers[0].find_fallback()
    assert found is not None and found.tx in fallback_txs
    joint_funders = {pub for tx in joint_txs for txin in tx.inputs for _sig, pub in txin.witness}
    maskers = {masker_pub for _child, masker_pub in unmasks + batches}
    assert unmasks and joint_funders.isdisjoint(maskers)


def test_aggregate_analyzer_still_ambiguous():
    harness, service, customers, refundees, mds = aggregate_env(tag=b"agg-an")
    service.emit()
    harness.ledger.advance_height(4)
    report = analyze_linkage(harness.ledger, service.truth, rng_seed=2)
    assert report.feasible_assignments > 1


def _plain_key_session(harness, request):
    """One payer whose second entry names a plain key."""
    customer = harness.customer("payer", b"reject")
    harness.fund([(customer, 100_000)], merchant_keys=8)
    wallet = CustomerWallet(b"reject-refundee")
    plan = [RefundEntry(wallet.xpub, 50_000), RefundEntry(keygen(b"plain")[1], 30_000)]
    return customer.pay(request, plan)


def _two_signer_session(harness, request):
    """Two co-payers, each entry naming an extended key and bound to its payer:
    every chunk would lock to the first payer's children."""
    dave, eve = harness.customer("dave", b"reject"), harness.customer("eve", b"reject")
    harness.fund([(dave, 50_000), (eve, 50_000)], merchant_keys=8)
    plan = [
        RefundEntry(CustomerWallet(b"reject-" + c.name.encode()).xpub, 50_000,
                    cosigner_pubkey=c.wallet.pub)
        for c in (dave, eve)
    ]
    return pay_joint(request, [(dave, 50_000), (eve, 50_000)], plan)


@pytest.mark.parametrize("pay", [_plain_key_session, _two_signer_session],
                         ids=["plain-key", "two-signers"])
@pytest.mark.parametrize("service_cls, enqueue, queued", [
    (MixerService, "enqueue_refund", lambda s: s.pending),
    (AggregateService, "aggregate_refund", lambda s: s.pending_joint + s.pending_fallback),
])
def test_rejected_enqueue_leaves_no_partial_state(service_cls, enqueue, queued, pay):
    """A session with a plain-key entry, or with two payment signers, is
    refused before any chunk is queued or wallet key taken; the session
    stays paid."""
    from conftest import Harness

    harness = Harness(tag=b"reject", lock_blocks=30, window_blocks=400)
    service = service_cls(harness.merchant, k=4, rng_seed=3)
    request = harness.merchant.create_request(100_000)
    harness.merchant.process_payment(pay(harness, request))
    harness.ledger.advance_height(1)
    untouched = copy.deepcopy(harness.merchant.wallet)
    with pytest.raises(MixerError):
        getattr(service, enqueue)(request.merchant_data, "payer")
    assert queued(service) == []
    assert service.truth.origin_names == {}
    assert harness.merchant.sessions[request.merchant_data].state is SessionState.PAID
    assert harness.merchant.wallet.allocate() == untouched.allocate()


def test_merchant_session_state_has_one_writer():
    """Each service marks the sessions it takes REFUND_ISSUED; the ground
    truth only records, and leaves a session it is shown as it was."""
    harness, service, _c, _r = mixer_env(None, n_customers=1, tag=b"owner")
    agg_harness, agg, _ac, _ar, _mds = aggregate_env(n_customers=1, tag=b"owner")
    for h, s in ((harness, service), (agg_harness, agg)):
        assert s.truth.origin_names
        for md in s.truth.origin_names:
            assert h.merchant.sessions[md].state is SessionState.REFUND_ISSUED
    customer = harness.customer("bystander", b"owner")
    harness.fund([(customer, 50_000)], merchant_keys=0)
    request = harness.merchant.create_request(50_000)
    refundee = CustomerWallet(b"owner-refundee")
    harness.merchant.process_payment(
        customer.pay(request, [RefundEntry(refundee.xpub, 50_000)])
    )
    harness.ledger.advance_height(1)
    session = harness.merchant.sessions[request.merchant_data]
    MixGroundTruth().record(session, customer.name, 50_000)
    assert session.state is SessionState.PAID
