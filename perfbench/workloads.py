"""The benchmark's workloads: what one op is, its inputs, and its checks.

A workload drives refundsim only through its public functions, reached as
attributes of the modules in ``P`` so that the traced run sees every call.
``round(r)`` yields ``(op, observe)`` pairs.  ``op()`` is timed and returns
the op's outputs.  ``observe(out)`` is not timed: it reads what the checks
need from those outputs and the program's state.  ``verify(obs)`` compares an
observation with values computed apart from the program and returns failure
strings.  A workload with a ``finish`` method also checks a run's
observations together.
Round ``r`` is a pure function of the workload seed and ``r``, so runs with
the same seed do the same work.
"""

from __future__ import annotations

import hashlib
import random
from types import SimpleNamespace

import checks

MERCHANT_KEY_FUNDS = 200_000

# The chance test runs once per mix_trials run, and a benchmark evaluation
# makes dozens of runs.  At 0.01 per run it flags about one run in 100-150
# with no fault (a run of 92 trials guessed 33 right, p = 0.0088), so the
# level is 0.01 for a family of 1000 runs.  With 80 trials it still flags
# an adversary right at least 75% or at most 25% of the time.
CHANCE_ALPHA = 0.01 / 1000


def seed_bytes(*parts) -> bytes:
    return hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()


def seed_rng(*parts) -> random.Random:
    return random.Random(int.from_bytes(seed_bytes(*parts), "big"))


def fund(P, ledger, customer_payouts, merchant, merchant_keys: int) -> int:
    """Seed the chain: customers get their payouts, the merchant funded keys.

    Returns the seeded total, which fee-free conservation keeps constant.
    """
    payouts = [(c.wallet.pub, value) for c, value in customer_payouts]
    payouts += [
        (merchant.wallet.key(i)[1], MERCHANT_KEY_FUNDS) for i in range(merchant_keys)
    ]
    seed_tx = P.transactions.build_seed_tx(payouts)
    if not ledger.broadcast(seed_tx):
        raise RuntimeError("seed transaction rejected")
    ledger.advance_height(1)
    sid = P.transactions.txid(seed_tx)
    for i, (customer, value) in enumerate(customer_payouts):
        customer.wallet.credit(P.transactions.FundingOutpoint(sid, i, value))
    for i in range(merchant_keys):
        merchant.wallet.credit(
            i,
            P.transactions.FundingOutpoint(
                sid, len(customer_payouts) + i, MERCHANT_KEY_FUNDS
            ),
        )
    return sum(value for _pub, value in payouts)


def utxo_total(ledger) -> int:
    return sum(out.value for out in ledger.utxo_snapshot().values())


def _refund_session(P, merchant, customer, refundee, amount, value, encrypt, joint):
    """Request, pay, process, issue the refund pair, then claim it.

    Two claims exist: customer and refundee redeem the joint refund
    together, or the customer alone claims the fallback once its lock
    passes.  Returns the merchant session id and the claiming transaction.
    """
    ledger = merchant.ledger
    request = merchant.create_request(amount)
    msg = customer.pay(request, [P.protocol.RefundEntry(refundee[1], value)], encrypt=encrypt)
    merchant.process_payment(msg)
    ledger.advance_height(1)
    issue = merchant.issue_refund(request.merchant_data)
    ledger.advance_height(1)
    if joint:
        redeem = customer.redeem_with_refundee(refundee[0], refundee[1])
    else:
        ledger.advance_height(issue.tc2.lock_height - ledger.height)
        redeem = customer.redeem_fallback()
    ledger.advance_height(1)
    return request.merchant_data, msg.transactions[0], redeem


def _is_joint(position: int) -> bool:
    """Two sessions in three redeem jointly; every third claims the fallback."""
    return position % 3 != 2


# -- refund_stream ---------------------------------------------------------------


class RefundStream:
    """Hardened refund sessions, one merchant day after another.

    One op is one session: request, payment (every other one seals its
    refund instructions), refund pair, claim, then ``monitor`` rewriting the
    record file.  A day is a fresh ledger, so the customer's discovery scan
    grows with the day's position and never beyond it.
    """

    name = "refund_stream"
    lock_blocks = 12
    required = (
        "curve.g_mul", "curve.mul", "keys.mask_child", "keys.unmask_child_private",
        "keys.derive_child_private", "transactions.schnorr_sign",
        "transactions.schnorr_verify", "ledger.broadcast", "ledger.advance_height",
        "protocol.issue_refund", "protocol.monitor", "protocol.find_joint_refund",
        "protocol.find_fallback", "dispute.rewrite",
    )

    def __init__(self, P, seed: int, out_dir, sessions_per_day: int = 6):
        self.P = P
        self.seed = seed
        self.db_path = str(out_dir / f"{self.name}-{seed}.db")
        self.sessions_per_day = sessions_per_day

    def setup(self) -> None:
        """Nothing is built ahead: each day starts from an empty ledger."""

    def _day(self, r: int):
        P = self.P
        rng = seed_rng(self.name, self.seed, r)
        ledger = P.ledger.SimLedger()
        merchant = P.protocol.Merchant(
            "merchant", seed_bytes(self.name, self.seed, r, "merchant"), ledger,
            P.protocol.IdentityRegistry(), wallet_size=4 * self.sessions_per_day,
            lock_blocks=self.lock_blocks, db_path=self.db_path,
        )
        merchant.store.wipe()
        plan = []
        for i in range(self.sessions_per_day):
            customer = P.protocol.Customer(
                f"customer{i}", seed_bytes(self.name, self.seed, r, "customer", i),
                ledger, merchant.identity_pub,
            )
            refundee = P.keys.keygen(seed_bytes(self.name, self.seed, r, "refundee", i))
            amount = rng.randrange(40_000, 60_000)
            value = rng.randrange(10_000, amount + 1)
            plan.append((customer, refundee, amount, value))
        seeded = fund(
            P, ledger, [(c, amount) for c, _r, amount, _v in plan], merchant,
            merchant_keys=2 * self.sessions_per_day,
        )
        return SimpleNamespace(ledger=ledger, merchant=merchant, plan=plan, seeded=seeded)

    def round(self, r: int):
        day = self._day(r)
        for i in range(self.sessions_per_day):
            yield (lambda i=i: self._op(day, i)), (lambda out, i=i: self._observe(day, i, out))

    def _op(self, day, i: int):
        customer, refundee, amount, value = day.plan[i]
        joint = _is_joint(i)
        md, main, redeem = _refund_session(
            self.P, day.merchant, customer, refundee, amount, value,
            encrypt=i % 2 == 1, joint=joint,
        )
        day.merchant.monitor()
        return md, main, redeem

    def _observe(self, day, i: int, out) -> dict:
        md, main, redeem = out
        customer, refundee, _amount, value = day.plan[i]
        ledger = day.ledger
        session = day.merchant.sessions[md]
        utxos = ledger.utxo_snapshot()
        claimed = redeem.inputs[0]
        with open(self.db_path, "rb") as fh:
            rows = checks.parse_records(fh.read())
        xpub = customer.wallet.xpub
        serialize = self.P.transactions.serialize_tx
        return {
            "session": i,
            "joint": _is_joint(i),
            "value": value,
            "gains": {
                "refundee": checks.balance(utxos, checks.pubkey_hash(refundee[1])),
                "customer-fallback": checks.balance(
                    utxos, checks.pubkey_hash(customer.fallback_pub)
                ),
            },
            "utxo_total": sum(out.value for out in utxos.values()),
            "seeded": day.seeded,
            "blocks": list(ledger.blocks),
            "rows": rows,
            "main_id": checks.tx_id(serialize(main)),
            "redeem_id": checks.tx_id(serialize(redeem)),
            "claimed": (claimed.prev_txid, claimed.prev_index),
            "spender": ledger.is_spent(claimed.prev_txid, claimed.prev_index)[1],
            "oracle_inputs": (xpub.pubkey, xpub.chain_code, session.masking_privs[0][0], refundee[1]),
            "joint_script_hash": session.refund.tc1.outputs[0].script.script_hash,
        }

    def verify(self, obs) -> list[str]:
        value = obs["value"]
        expected = (
            {"refundee": value, "customer-fallback": 0}
            if obs["joint"]
            else {"refundee": 0, "customer-fallback": value}
        )
        failures = checks.check_gains(obs["gains"], expected)
        failures += checks.check_conservation(obs["utxo_total"], obs["seeded"])
        failures += checks.check_blocks(obs["blocks"])
        failures += checks.check_redeem_slot(
            obs["rows"], obs["main_id"], obs["claimed"], obs["spender"],
            obs["redeem_id"], claimed_slot=1 if obs["joint"] else 2,
        )
        if obs["session"] == 0:  # the sampled session: entry 0 takes child index 0
            xpub_point, chain_code, masking_priv, refundee_point = obs["oracle_inputs"]
            want = checks.oracle_joint_script_hash(
                xpub_point, chain_code, 0, masking_priv, refundee_point
            )
            failures += checks.check_script_hash(obs["joint_script_hash"], want)
        return failures


# -- mix_trials ---------------------------------------------------------------------


class MixTrials:
    """Independent aggregate-mode mixing trials, shaped like criterion 10.

    One op is one trial on a fresh ledger: two customers pay and cancel
    100 000 each, the service splits every refund into k = 4 chunks and
    emits mixed joint and fallback transactions, every chunk is redeemed
    jointly, and the linkage adversary runs.  The first trial of every
    round of four also replays every chunk's linkage proof.
    """

    name = "mix_trials"
    amount = 100_000
    k = 4
    customers = 2
    trials_per_round = 4
    required = (
        "curve.g_mul", "curve.mul", "keys.mask_child", "keys.unmask_child_private",
        "transactions.schnorr_sign", "transactions.schnorr_verify",
        "ledger.broadcast", "ledger.advance_height", "mixer.emit",
        "mixer.joint_redeem_all", "mixer.analyze_linkage",
        "dispute.verify_linkage_proof",
    )

    def __init__(self, P, seed: int, out_dir):
        self.P = P
        self.seed = seed

    def setup(self) -> None:
        """Nothing is built ahead: every trial starts from an empty ledger."""

    def round(self, r: int):
        for t in range(self.trials_per_round):
            trial = r * self.trials_per_round + t
            replay = t == 0
            yield (lambda trial=trial, replay=replay: self._op(trial, replay)), self._observe

    def _op(self, trial: int, replay: bool):
        P = self.P
        tag = seed_bytes(self.name, self.seed, trial)
        rng_seed = int.from_bytes(tag[:8], "big")
        ledger = P.ledger.SimLedger()
        merchant = P.protocol.Merchant(
            "merchant", tag + b"/merchant", ledger, P.protocol.IdentityRegistry(),
            wallet_size=64, lock_blocks=25, window_blocks=400,
        )
        customers = [
            P.protocol.Customer(f"payer{i}", tag + b"/payer%d" % i, ledger, merchant.identity_pub)
            for i in range(self.customers)
        ]
        refundees = [
            P.protocol.CustomerWallet(tag + b"/refundee%d" % i) for i in range(self.customers)
        ]
        seeded = fund(
            P, ledger, [(c, self.amount) for c in customers], merchant,
            merchant_keys=4 * self.customers + 4,
        )
        service = P.mixer.AggregateService(merchant, k=self.k, rng_seed=rng_seed)
        sessions = []
        for customer, refundee in zip(customers, refundees):
            request = merchant.create_request(self.amount)
            msg = customer.pay(
                request, [P.protocol.RefundEntry(refundee.xpub, self.amount)], encrypt=True
            )
            merchant.process_payment(msg)
            ledger.advance_height(1)
            service.aggregate_refund(request.merchant_data, customer.name)
            sessions.append(request.merchant_data)
        _joint, fallback_txs = service.emit()
        ledger.advance_height(4)
        redeems = []
        for md, customer, refundee in zip(sessions, customers, refundees):
            _priv, dest = P.keys.keygen(tag + b"/dest" + md)
            redeems += service.joint_redeem_all(md, customer.wallet, refundee, dest)
        ledger.advance_height(1)
        verdicts = None
        if replay:
            max_lock = max(tx.lock_height for tx in fallback_txs)
            ledger.advance_height(max(0, max_lock - ledger.height) + 1)
            verdicts = [
                bool(P.dispute.verify_linkage_proof(proof, ledger))
                for md in sessions
                for proof in service.chunk_proofs(md)
            ]
        report = P.mixer.analyze_linkage(ledger, service.truth, rng_seed=rng_seed)
        return {
            "ledger": ledger,
            "seeded": seeded,
            "details": [d for md in sessions for d in service.details[md]],
            "redeems": redeems,
            "verdicts": verdicts,
            "feasible": report.feasible_assignments,
            "target_correct": report.target_correct,
        }

    def _observe(self, out) -> dict:
        ledger = out["ledger"]
        return {
            "spenders": [ledger.is_spent(d.joint_txid, d.joint_vout)[1] for d in out["details"]],
            "redeem_ids": [
                checks.tx_id(self.P.transactions.serialize_tx(tx)) for tx in out["redeems"]
            ],
            "verdicts": out["verdicts"],
            "feasible": out["feasible"],
            "target_correct": out["target_correct"],
            "utxo_total": utxo_total(ledger),
            "seeded": out["seeded"],
        }

    def verify(self, obs) -> list[str]:
        n_chunks = self.k * self.customers
        failures = checks.check_chunks_redeemed(obs["spenders"], obs["redeem_ids"], n_chunks)
        if obs["verdicts"] is not None:
            failures += checks.check_proofs(obs["verdicts"], n_chunks)
        failures += checks.check_feasible(obs["feasible"], self.k, self.customers)
        failures += checks.check_conservation(obs["utxo_total"], obs["seeded"])
        return failures

    def finish(self, observations: list) -> list[str]:
        """Per run: target-link guesses consistent with a fair coin."""
        successes = sum(1 for obs in observations if obs["target_correct"])
        return checks.check_chance(successes, len(observations), CHANCE_ALPHA)


# -- recovery_scan -----------------------------------------------------------------


class RecoveryScan:
    """Database rebuild after a loss, over one settled history.

    Set-up runs ``sessions`` refund sessions on a 2^wallet_k-key wallet,
    lets every fallback pass its lock and confirm, and keeps the merchant's
    record file.  One op wipes the file, rebuilds the wallet from its seed
    (so its key cache starts cold) and runs ``recover_database``, then
    writes the recovered records back.
    """

    name = "recovery_scan"
    lock_blocks = 12
    required = (
        "curve.g_mul", "curve.mul", "keys.keygen", "keys.mask_child",
        "keys.derive_child_public", "ledger.find_by_pubkey",
        "dispute.recover_database", "dispute.rewrite",
    )

    def __init__(self, P, seed: int, out_dir, sessions: int = 3, wallet_k: int = 8):
        self.P = P
        self.seed = seed
        self.db_path = str(out_dir / f"{self.name}-{seed}.db")
        self.sessions = sessions
        self.wallet_k = wallet_k

    def setup(self) -> None:
        P = self.P
        rng = seed_rng(self.name, self.seed)
        ledger = P.ledger.SimLedger()
        self.merchant_seed = seed_bytes(self.name, self.seed, "merchant")
        merchant = P.protocol.Merchant(
            "merchant", self.merchant_seed, ledger, P.protocol.IdentityRegistry(),
            wallet_size=2**self.wallet_k, lock_blocks=self.lock_blocks, db_path=self.db_path,
        )
        merchant.store.wipe()
        plan = []
        for i in range(self.sessions):
            customer = P.protocol.Customer(
                f"customer{i}", seed_bytes(self.name, self.seed, "customer", i),
                ledger, merchant.identity_pub,
            )
            refundee = P.keys.keygen(seed_bytes(self.name, self.seed, "refundee", i))
            amount = rng.randrange(40_000, 60_000)
            plan.append((customer, refundee, amount, rng.randrange(10_000, amount + 1)))
        fund(P, ledger, [(c, a) for c, _r, a, _v in plan], merchant, 2 * self.sessions)
        for i, (customer, refundee, amount, value) in enumerate(plan):
            _refund_session(
                P, merchant, customer, refundee, amount, value,
                encrypt=i % 2 == 1, joint=_is_joint(i),
            )
        last_lock = max(s.refund.tc2.lock_height for s in merchant.sessions.values())
        ledger.advance_height(max(1, last_lock - ledger.height + 1))
        merchant.monitor()
        with open(self.db_path, "rb") as fh:
            self.kept = checks.parse_records(fh.read())
        if len(self.kept) != self.sessions:
            raise RuntimeError(f"history kept {len(self.kept)} records, not {self.sessions}")
        self.ledger = ledger
        self.store = merchant.store

    def round(self, r: int):
        yield self._op, self._observe

    def _op(self):
        P = self.P
        self.store.wipe()
        wallet = P.protocol.MerchantWallet(self.merchant_seed + b"/wallet", 2**self.wallet_k)
        result = P.dispute.recover_database(wallet, self.ledger)
        self.store.rewrite(result.records)

    def _observe(self, _out) -> dict:
        with open(self.db_path, "rb") as fh:
            return {"rows": checks.parse_records(fh.read())}

    def verify(self, obs) -> list[str]:
        failures = checks.check_recovered(obs["rows"], self.kept)
        for row in obs["rows"]:
            failures += checks.check_record_on_chain(row, self.ledger)
        return failures


WORKLOADS = {w.name: w for w in (RefundStream, MixTrials, RecoveryScan)}
