"""Replayable end-to-end scenarios with verdicts and transcripts.

Each scenario wires the modules into one named flow — the honest refund, the
two classic refund attacks and their multi-party variant, database-loss
recovery, and the mixing modes — on a fresh ledger, then checks a set of
named assertions.  Runs are deterministic: identical (name, seed, config)
produce byte-identical transcripts.

Runner contract: `run_scenario` builds one `Env` per run, which resolves the
config once and holds the ledger, the merchant and the transcript.  A runner
is `(env) -> list[Assertion]` and only tells its story; `run_scenario` then
appends the ledger soundness checks, writes the transcript and returns the
`Verdict`.  Every config value is an integer of at least 1 (the flags
`encrypt` and `unequal` may be 0); a config that leaves a story no room, such
as a lock height already passed when the story must wait for it, is a
`ConfigError`.  So is a config whose values break a rule the story would
meet later (a refund above the amount paid, shares that do not sum to it, a
refund smaller than its chunk count): each runner checks those rules, by the
functions that enforce them, before it logs anything.  `Env` checks the
merchant wallet's capacity before the runner starts: each scenario states
the keys its story takes (`KeyDemand`), and a wallet too small for them is a
`ConfigError`; the faucet funds each seeded merchant key for the largest
transaction it may fund.

`--disable-defense` replays the vanilla refund behavior (pay the latest
refund address directly) so the attack scenarios demonstrate the baseline
theft before the defended run neutralizes it.

Accounting: balances are measured from an address book mapping output
scripts to actor labels, with the baseline taken after seeding; an output
nobody labelled counts as "unattributed".  Zero fees make the deltas sum to
zero under any labelling, so `accounting-closure` holds whatever is labelled;
labels only name the deltas that assertions read.  `Env.issue_refund`
labels what a refund issue created: its joint-refund escrows and fallbacks.
"""

from __future__ import annotations

import enum
import hashlib
import os
from dataclasses import dataclass, field
from typing import Mapping, Optional

from . import dispute, mixer
from .curve import SECP256K1, Point
from .keys import keygen
from .ledger import SimLedger
from .protocol import (
    ONE_WEEK_BLOCKS,
    Customer,
    CustomerWallet,
    IdentityRegistry,
    KeyRoleLog,
    Locked,
    Merchant,
    MerchantSession,
    MissingSigner,
    RefundEntry,
    RefundIssue,
    RefundAddressUpdate,
    UpdateChannel,
    check_payment_plan,
    pay_joint,
)
from .transactions import (
    DataCarrier,
    FundingOutpoint,
    PayToPubkeyHash,
    ScriptHash,
    build_redeem,
    build_seed_tx,
    key_hash,
    serialize_tx,
    txid,
    two_of_two,
)


class ConfigError(Exception):
    pass


class ScenarioName(enum.Enum):
    HONEST_REFUND = "HonestRefund"
    SILKROAD = "Silkroad"
    MARKETPLACE = "Marketplace"
    MULTI_SIGNER = "MultiSigner"
    RECOVERY = "Recovery"
    MIXER = "Mixer"
    AGGREGATE = "Aggregate"

    @classmethod
    def parse(cls, text: str) -> "ScenarioName":
        for member in cls:
            if member.value.lower() == text.lower():
                return member
        raise ConfigError(f"unknown scenario {text!r}")


_DEFAULTS: dict[ScenarioName, dict[str, int]] = {
    ScenarioName.HONEST_REFUND: {
        "amount": 50_000, "refund_value": 30_000, "lock_blocks": 1008, "encrypt": 0,
    },
    ScenarioName.SILKROAD: {
        "amount": 50_000, "refund_value": 50_000, "lock_blocks": 1008, "encrypt": 0,
    },
    ScenarioName.MARKETPLACE: {
        "amount": 40_000, "refund_value": 40_000, "lock_blocks": 1008, "encrypt": 0,
    },
    ScenarioName.MULTI_SIGNER: {
        "amount": 60_000, "share": 30_000, "refund_value": 25_000, "lock_blocks": 1008,
    },
    ScenarioName.RECOVERY: {
        "amount": 50_000, "refund_value": 30_000, "sessions": 3,
        "wallet_k": 8, "lock_blocks": 60, "max_child_index": 8,
    },
    ScenarioName.MIXER: {
        "n_customers": 2, "k": 4, "amount": 100_000, "jitter_window": 3,
        "outputs_per_tx": 4, "unequal": 0,
    },
    ScenarioName.AGGREGATE: {
        "n_customers": 2, "k": 4, "amount": 100_000,
        "lock_blocks": 40, "jitter_window": 3, "outputs_per_tx": 4,
    },
}
_FLAGS = {"encrypt", "unequal"}  # the only keys that may be 0


@dataclass(frozen=True)
class KeyDemand:
    """The merchant wallet keys a story takes.

    `receiving` keys only receive: request keys, payment addresses and chunk
    masking keys.  Each of the `funded` keys funds one transaction that pays
    at most `largest`.  The faucet funds the wallet's first `seeded` keys.
    """

    receiving: int
    funded: int
    largest: int
    seeded: int


def _refund_demand(cfg: dict[str, int], direct: bool) -> KeyDemand:
    # request key and payment address; the joint refund and its fallback,
    # or one direct refund
    return KeyDemand(2, 1 if direct else 2, cfg["refund_value"], 8)


def _multi_signer_demand(cfg: dict[str, int], direct: bool) -> KeyDemand:
    # one joint refund holding both entries, then one fallback per co-signer
    return KeyDemand(2, 1 if direct else 3, 2 * cfg["refund_value"], 8)


def _recovery_demand(cfg: dict[str, int], _direct: bool) -> KeyDemand:
    sessions = cfg["sessions"]
    return KeyDemand(2 * sessions, 2 * sessions, cfg["refund_value"], 4 * sessions)


def _emissions(cfg: dict[str, int], largest_total: int) -> tuple[int, int]:
    """Transactions in one mixed emission of every customer's `k` chunks, and
    a bound on the value one of them pays: its outputs, each at most the
    largest chunk."""
    chunks = cfg["n_customers"] * cfg["k"]
    per_tx = cfg["outputs_per_tx"]
    return -(-chunks // per_tx), min(per_tx, chunks) * -(-largest_total // cfg["k"])


def _mixer_demand(cfg: dict[str, int], _direct: bool) -> KeyDemand:
    n = cfg["n_customers"]
    txs, largest = _emissions(
        cfg, cfg["amount"] + (10_000 * (n - 1) if cfg["unequal"] else 0)
    )
    # a request key, a payment address and a chunk masking key per customer
    return KeyDemand(3 * n, txs, largest, 4 * n + 4)


def _aggregate_demand(cfg: dict[str, int], _direct: bool) -> KeyDemand:
    n = cfg["n_customers"]
    txs, largest = _emissions(cfg, cfg["amount"])
    # the joint chunks and the fallback chunks are emitted apart
    return KeyDemand(2 * n, 2 * txs, largest, 4 * n + 4)


_KEY_DEMAND = {
    ScenarioName.HONEST_REFUND: _refund_demand,
    ScenarioName.SILKROAD: _refund_demand,
    ScenarioName.MARKETPLACE: _refund_demand,
    ScenarioName.MULTI_SIGNER: _multi_signer_demand,
    ScenarioName.RECOVERY: _recovery_demand,
    ScenarioName.MIXER: _mixer_demand,
    ScenarioName.AGGREGATE: _aggregate_demand,
}


@dataclass(frozen=True)
class Scenario:
    name: ScenarioName
    seed: int = 1
    config: Mapping[str, int] = field(default_factory=dict)
    disable_defense: bool = False

    def resolved_config(self) -> dict[str, int]:
        merged = dict(_DEFAULTS[self.name])
        for key, value in self.config.items():
            if key not in merged:
                raise ConfigError(f"unknown config key {key!r} for {self.name.value}")
            merged[key] = int(value)
            minimum = 0 if key in _FLAGS else 1
            if merged[key] < minimum:
                raise ConfigError(f"config {key}={value} is below its minimum {minimum}")
        return merged

    def seed_bytes(self, tag: str) -> bytes:
        return hashlib.sha256(
            f"{self.name.value}:{self.seed}:{tag}".encode()
        ).digest()


@dataclass(frozen=True)
class Assertion:
    label: str
    passed: bool
    detail: str = ""


@dataclass
class Verdict:
    scenario: str
    seed: int
    assertions: list[Assertion]
    transcript_path: Optional[str] = None
    env: Optional["Env"] = field(default=None, repr=False, compare=False)

    @property
    def all_passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def lines(self) -> list[str]:
        out = [f"scenario {self.scenario} seed={self.seed}"]
        for a in self.assertions:
            mark = "PASS" if a.passed else "FAIL"
            detail = f"  ({a.detail})" if a.detail else ""
            out.append(f"  [{mark}] {a.label}{detail}")
        out.append(f"  verdict: {'PASS' if self.all_passed else 'FAIL'}")
        return out


class Transcript:
    """Append-only structured event log, stable across identical runs."""

    def __init__(self):
        self.lines: list[str] = []

    def log(self, height: int, actor: str, event: str, detail: str = "") -> None:
        suffix = f" {detail}" if detail else ""
        self.lines.append(f"h={height:>5} {actor:<12} {event}{suffix}")

    def write(self, path: str) -> str:
        with open(path, "w") as fh:
            fh.write("\n".join(self.lines) + "\n")
        return path


class AddressBook:
    """Maps output scripts to actor labels for balance accounting."""

    def __init__(self):
        self._p2pkh: dict[bytes, str] = {}
        self._p2sh: dict[bytes, str] = {}

    def register_key(self, pub: Point, label: str) -> None:
        self.register_key_hash(key_hash(pub), label)

    def register_key_hash(self, pubkey_hash: bytes, label: str) -> None:
        self._p2pkh[pubkey_hash] = label

    def register_script_hash(self, script_hash: bytes, label: str) -> None:
        self._p2sh[script_hash] = label

    def balances(self, ledger: SimLedger) -> dict[str, int]:
        out: dict[str, int] = {}
        for _key, txo in ledger.utxo_snapshot().items():
            if isinstance(txo.script, PayToPubkeyHash):
                label = self._p2pkh.get(txo.script.pubkey_hash, "unattributed")
            elif isinstance(txo.script, ScriptHash):
                label = self._p2sh.get(txo.script.script_hash, "unattributed")
            else:
                continue
            out[label] = out.get(label, 0) + txo.value
        return out


MERCHANT_KEY_FUNDS = 200_000  # seeded onto each funded merchant wallet key, at least


def _check_capacity(demand: KeyDemand, wallet_size: int) -> None:
    """Raise ConfigError unless the wallet holds every key the story takes.

    Receiving keys prefer unfunded ones, so the story runs out of neither
    kind while its keys number at most the wallet's and its funded keys at
    most the seeded keys the wallet holds.
    """
    seeded = min(demand.seeded, wallet_size)
    if demand.funded > seeded or demand.receiving + demand.funded > wallet_size:
        raise ConfigError(
            f"the story takes {demand.receiving} receiving and {demand.funded} funded "
            f"merchant keys; the wallet holds {wallet_size} keys, {seeded} of them funded"
        )


class Env:
    """One run's plumbing: resolved config, ledger, merchant, actors, accounting."""

    def __init__(self, scenario: Scenario, out_dir: Optional[str]):
        self.scenario = scenario
        self.config = scenario.resolved_config()
        self.out_dir = out_dir
        self.ledger = SimLedger()
        self.key_log = KeyRoleLog()
        self.transcript = Transcript()
        self.book = AddressBook()
        wallet_size = 2 ** self.config.get("wallet_k", 6)
        self.demand = _KEY_DEMAND[scenario.name](self.config, scenario.disable_defense)
        _check_capacity(self.demand, wallet_size)
        self.merchant = Merchant(
            "merchant",
            scenario.seed_bytes("merchant"),
            self.ledger,
            IdentityRegistry(),
            self.key_log,
            wallet_size=wallet_size,
            lock_blocks=self.config.get("lock_blocks", ONE_WEEK_BLOCKS),
        )
        for i in range(wallet_size):
            self.book.register_key(self.merchant.wallet.key(i)[1], "merchant")
        self.baseline: dict[str, int] = {}

    def log(self, actor: str, event: str, detail: str = "") -> None:
        self.transcript.log(self.ledger.height, actor, event, detail)

    def advance_to(self, height: int) -> None:
        """Advance the ledger to `height`, which the story must not have passed."""
        if height <= self.ledger.height:
            raise ConfigError(
                f"height {height} is already reached at {self.ledger.height}: "
                "lock_blocks is too small for this story"
            )
        self.ledger.advance_height(height - self.ledger.height)

    def new_customer(self, label: str) -> Customer:
        customer = Customer(
            label, self.scenario.seed_bytes(label), self.ledger,
            self.merchant.identity_pub,
        )
        self.book.register_key(customer.wallet.pub, label)
        self.book.register_key(customer.fallback_pub, label)
        return customer

    def pay(
        self, payer: Customer, amount: int, plan: list[RefundEntry], encrypt: bool,
        memo: str = "",
    ) -> MerchantSession:
        """Request `amount`, have `payer` pay it with `plan`, and process the payment."""
        request = self.merchant.create_request(amount, memo=memo)
        self.merchant.process_payment(payer.pay(request, plan, encrypt=encrypt))
        return self.merchant.sessions[request.merchant_data]

    def issue_refund(self, merchant_data: bytes, fallback_label: str) -> RefundIssue:
        """Issue the refund pair, label its escrows and fallbacks, and confirm it."""
        issue = self.merchant.issue_refund(merchant_data)
        for out in issue.tc1.outputs:
            if isinstance(out.script, ScriptHash):
                self.book.register_script_hash(out.script.script_hash, "escrow")
        for tc2 in issue.tc2s:
            self.book.register_key_hash(tc2.outputs[0].script.pubkey_hash, fallback_label)
        self.ledger.advance_height(1)
        return issue

    def new_keypair(self, label: str) -> tuple[int, Point]:
        priv, pub = keygen(self.scenario.seed_bytes(label))
        self.book.register_key(pub, label)
        return priv, pub

    def mix_parties(self, totals: list[int]) -> tuple[list[Customer], list[CustomerWallet]]:
        """Payers `payer{i}` seeded with `totals[i]`, each with refundee `recipient{i}`."""
        payers, recipients = [], []
        for i in range(len(totals)):
            payers.append(self.new_customer(f"payer{i}"))
            recipient = CustomerWallet(self.scenario.seed_bytes(f"recipient{i}"))
            self.book.register_key(recipient.pub, f"recipient{i}")
            recipients.append(recipient)
        self.seed_funds(list(zip(payers, totals)))
        return payers, recipients

    def seed_funds(self, customer_payouts: list[tuple[Customer, int]]) -> None:
        """Pay the customers, and each seeded merchant key enough for the
        largest transaction it may fund."""
        per_key = max(MERCHANT_KEY_FUNDS, self.demand.largest)
        merchant_keys = self.demand.seeded
        payouts = [(c.wallet.pub, value) for c, value in customer_payouts]
        for i in range(merchant_keys):
            payouts.append((self.merchant.wallet.key(i)[1], per_key))
        seed_tx = build_seed_tx(payouts)
        result = self.ledger.broadcast(seed_tx)
        assert result, result
        self.ledger.advance_height(1)
        sid = txid(seed_tx)
        for i, (customer, value) in enumerate(customer_payouts):
            customer.wallet.credit(FundingOutpoint(sid, i, value))
        for i in range(merchant_keys):
            self.merchant.wallet.credit(
                i, FundingOutpoint(sid, len(customer_payouts) + i, per_key)
            )
        self.log("faucet", "seeded", f"tx={sid.hex()[:12]}")
        self.baseline = self.book.balances(self.ledger)

    def deltas(self) -> dict[str, int]:
        final = self.book.balances(self.ledger)
        labels = set(final) | set(self.baseline)
        return {
            label: final.get(label, 0) - self.baseline.get(label, 0)
            for label in labels
        }

    def soundness_assertions(self) -> list[Assertion]:
        ledger = self.ledger
        seen: set = set()
        dup = False
        for _h, _tid, tx in ledger.all_confirmed():
            for txin in tx.inputs:
                key = (txin.prev_txid, txin.prev_index)
                if key in seen:
                    dup = True
                seen.add(key)
        lock_ok = all(
            tx.lock_height <= height for height, _tid, tx in ledger.all_confirmed()
        )
        replayed: dict = {}
        spent: set = set()
        for _h, tid, tx in ledger.all_confirmed():
            for txin in tx.inputs:
                spent.add((txin.prev_txid, txin.prev_index))
            for i, out in enumerate(tx.outputs):
                if not isinstance(out.script, DataCarrier):
                    replayed[(tid, i)] = out
        replayed = {k: v for k, v in replayed.items() if k not in spent}
        deltas = self.deltas()
        closure = sum(deltas.values())
        return [
            Assertion("ledger-no-double-spends", not dup),
            Assertion("ledger-locks-enforced", lock_ok),
            Assertion(
                "ledger-utxo-replay-matches", replayed == ledger.utxo_snapshot()
            ),
            Assertion(
                "accounting-closure",
                closure == 0,
                f"sum of deltas = {closure}",
            ),
            Assertion(
                "key-roles-unique",
                not self.key_log.conflicts,
                "; ".join(self.key_log.conflicts[:3]),
            ),
        ]


# -- scenario bodies ---------------------------------------------------------------


def _require(rule, *args) -> None:
    """Apply a rule the story enforces later now, reporting a breach as a ConfigError."""
    try:
        rule(*args)
    except (ValueError, mixer.ChunkTooSmall) as exc:
        raise ConfigError(f"config breaks a rule of the story: {exc}") from exc


def _joint_spend_blocked(
    issue: RefundIssue, signers: list[tuple[int, Point]], thief_pub: Point
) -> bool:
    """Whether `signers` fail to spend the first joint-refund output to `thief_pub`."""
    try:
        build_redeem(
            issue.tc1,
            0,
            signers,
            thief_pub,
            reveal_script=two_of_two(issue.entry_outputs[0][2][0], thief_pub),
        )
    except MissingSigner:
        return True
    return False


def _run_honest_refund(env: Env) -> list[Assertion]:
    cfg = env.config
    alice = env.new_customer("alice")
    bob_priv, bob_pub = env.new_keypair("bob")
    plan = [RefundEntry(bob_pub, cfg["refund_value"])]
    _require(check_payment_plan, cfg["amount"], [e.value for e in plan])
    env.seed_funds([(alice, cfg["amount"])])

    session = env.pay(alice, cfg["amount"], plan, bool(cfg["encrypt"]), memo="order")
    env.log("merchant", "payment-request", f"amount={cfg['amount']}")
    env.log("alice", "paid", f"main={session.main_txid.hex()[:12]}")
    env.ledger.advance_height(1)

    if env.scenario.disable_defense:
        direct = env.merchant.issue_refund_unprotected(session.merchant_data)
        env.ledger.advance_height(1)
        env.log("merchant", "direct-refund", f"tx={txid(direct).hex()[:12]}")
        deltas = env.deltas()
        return [
            Assertion(
                "refund-paid-directly",
                deltas.get("bob", 0) == cfg["refund_value"],
                f"bob delta {deltas.get('bob', 0)}",
            ),
            Assertion(
                "no-implicit-record",
                not env.merchant.records,
                "vanilla flow stores no txid record",
            ),
        ]

    issue = env.issue_refund(session.merchant_data, "alice")
    env.log("merchant", "refund-issued", f"tc1={txid(issue.tc1).hex()[:12]}")

    redeem = alice.redeem_with_refundee(bob_priv)
    env.ledger.advance_height(1)
    env.log("alice+bob", "joint-redeem", f"tx={txid(redeem).hex()[:12]}")
    env.merchant.monitor()

    tc1_refund_total = sum(
        o.value for o in issue.tc1.outputs if isinstance(o.script, ScriptHash)
    )
    spent, spender = env.ledger.is_spent(txid(issue.tc1), 0)

    # the fallback is not reclaimed after a joint redemption: once its lock
    # passes it confirms and stays claimable by the customer, a known
    # double-payout hazard this flow deliberately surfaces rather than fixes
    env.advance_to(issue.tc2.lock_height + 1)
    tc2_confirmed = env.ledger.output_exists(txid(issue.tc2), 0)
    tc2_unspent = env.ledger.unspent_output(txid(issue.tc2), 0) is not None
    env.log("observer", "fallback-hazard",
            f"confirmed={tc2_confirmed} still-claimable={tc2_unspent}")

    deltas = env.deltas()
    return [
        Assertion("joint-redeem-confirms", spent and spender == txid(redeem)),
        Assertion(
            "refund-pair-values",
            tc1_refund_total
            == issue.tc2.outputs[0].value
            == cfg["refund_value"],
            f"tc1={tc1_refund_total} tc2={issue.tc2.outputs[0].value}",
        ),
        Assertion(
            "record-gains-redeem-txid", issue.record.redeem_txid == txid(redeem)
        ),
        Assertion(
            "record-size-128", dispute.record_size(issue.record) == 128
        ),
        Assertion(
            "refundee-received-value",
            deltas.get("bob", 0) == cfg["refund_value"],
            f"bob delta {deltas.get('bob', 0)}",
        ),
        Assertion(
            "fallback-double-payout-hazard-surfaced",
            tc2_confirmed and tc2_unspent,
            "fallback remains claimable after the joint redemption",
        ),
    ]


def _run_silkroad(env: Env) -> list[Assertion]:
    cfg = env.config
    mallory = env.new_customer("mallory")
    trader_priv, trader_pub = env.new_keypair("silkroad-trader")
    plan = [RefundEntry(trader_pub, cfg["refund_value"])]
    _require(check_payment_plan, cfg["amount"], [e.value for e in plan])
    env.seed_funds([(mallory, cfg["amount"])])

    session = env.pay(mallory, cfg["amount"], plan, bool(cfg["encrypt"]))
    env.log("mallory", "paid-with-trader-refund-address", "")
    env.ledger.advance_height(1)

    if env.scenario.disable_defense:
        env.merchant.issue_refund_unprotected(session.merchant_data)
        env.ledger.advance_height(1)
        env.log("merchant", "direct-refund-to-trader", "")
        deltas = env.deltas()
        return [
            Assertion(
                "trader-receives-laundered-funds",
                deltas.get("silkroad-trader", 0) == cfg["refund_value"],
            ),
            Assertion(
                "no-linkage-evidence",
                not env.merchant.records,
                "no joint redemption ever exists to prove",
            ),
        ]

    issue = env.issue_refund(session.merchant_data, "mallory")
    env.log("merchant", "refund-issued", f"tc1={txid(issue.tc1).hex()[:12]}")

    redeem = mallory.redeem_with_refundee(trader_priv)
    env.ledger.advance_height(1)
    env.log("mallory+trader", "joint-redeem", f"tx={txid(redeem).hex()[:12]}")
    env.merchant.monitor()

    # the fallback confirms once its lock passes; then all four transactions
    # are on-chain and the proof replays
    env.advance_to(issue.tc2.lock_height + 1)
    proof = env.merchant.linkage_proof(session.merchant_data)
    check = dispute.verify_linkage_proof(proof, env.ledger)
    env.log("merchant", "linkage-proof", f"verifies={check.ok}")
    deltas = env.deltas()
    return [
        Assertion(
            "trader-received-funds",
            deltas.get("silkroad-trader", 0) == cfg["refund_value"],
        ),
        Assertion("redeem-recorded", issue.record.redeem_txid == txid(redeem)),
        Assertion("linkage-proof-verifies", bool(check), check.reason),
        Assertion(
            "proof-pins-masked-child",
            proof.masked_point in proof.script.keys,
        ),
    ]


def _run_marketplace(env: Env) -> list[Assertion]:
    cfg = env.config
    carol = env.new_customer("carol")
    _friend_priv, friend_pub = env.new_keypair("friend")
    rogue_priv, rogue_pub = env.new_keypair("rogue-trader")
    plan = [RefundEntry(friend_pub, cfg["refund_value"])]
    _require(check_payment_plan, cfg["amount"], [e.value for e in plan])
    env.seed_funds([(carol, cfg["amount"])])

    session = env.pay(carol, cfg["amount"], plan, bool(cfg["encrypt"]))
    env.ledger.advance_height(1)
    env.log("carol", "paid", "")

    # the rogue man-in-the-middle knows merchant_data and updates by email
    update = RefundAddressUpdate(
        session.merchant_data,
        (RefundEntry(rogue_pub, cfg["refund_value"]),),
        UpdateChannel.EMAIL,
    )
    accepted = env.merchant.update_refund_addresses(update)
    env.log("rogue-trader", "email-address-update", f"accepted={accepted}")

    assertions = [Assertion("email-update-accepted", accepted)]
    if env.scenario.disable_defense:
        env.merchant.issue_refund_unprotected(session.merchant_data)
        env.ledger.advance_height(1)
        deltas = env.deltas()
        return assertions + [
            Assertion(
                "rogue-steals-refund",
                deltas.get("rogue-trader", 0) == cfg["refund_value"],
                f"rogue delta {deltas.get('rogue-trader', 0)}",
            )
        ]

    issue = env.issue_refund(session.merchant_data, "carol")
    env.log("merchant", "refund-issued-locked-to-carol-and-rogue", "")

    # the rogue cannot satisfy the joint lock without carol's signature
    rogue_blocked = _joint_spend_blocked(issue, [(rogue_priv, rogue_pub)], rogue_pub)
    env.log("rogue-trader", "redeem-attempt", f"blocked={rogue_blocked}")

    # carol cannot claim the fallback before the lock height
    lock = issue.tc2.lock_height
    env.advance_to(lock - 1)
    early_blocked = False
    try:
        carol.redeem_fallback()
    except Locked:
        early_blocked = True
    env.log("carol", "fallback-at-lock-minus-1", f"blocked={early_blocked}")

    env.ledger.advance_height(1)  # exactly the lock height
    fallback_tx = carol.redeem_fallback()
    claim_height = env.ledger.height
    env.ledger.advance_height(1)
    env.log("carol", "fallback-claimed", f"tx={txid(fallback_tx).hex()[:12]}")
    env.merchant.monitor()

    deltas = env.deltas()
    return assertions + [
        Assertion("rogue-cannot-redeem", rogue_blocked),
        Assertion("fallback-locked-before-lock-height", early_blocked),
        Assertion(
            "fallback-claimed-at-lock-height",
            claim_height == lock,
            f"claimed at {claim_height}, lock {lock}",
        ),
        Assertion(
            "customer-recovers-full-refund",
            deltas.get("carol", 0) == cfg["refund_value"] - cfg["amount"]
            and env.ledger.is_spent(txid(issue.tc2), 0)[1] == txid(fallback_tx),
            f"carol delta {deltas.get('carol', 0)}",
        ),
        Assertion(
            "rogue-balance-delta-zero",
            deltas.get("rogue-trader", 0) == 0,
            f"rogue delta {deltas.get('rogue-trader', 0)}",
        ),
    ]


def _run_multi_signer(env: Env) -> list[Assertion]:
    cfg = env.config
    dave = env.new_customer("dave")  # honest co-signer, the victim
    eve = env.new_customer("eve")  # malicious co-signer
    trader_priv, trader_pub = env.new_keypair("silkroad-trader")
    _eve_friend_priv, eve_friend_pub = env.new_keypair("eve-friend")
    payers = [(dave, cfg["share"]), (eve, cfg["share"])]
    # eve builds the shared refund_to and names the trader as dave's refundee
    plan = [
        RefundEntry(trader_pub, cfg["refund_value"], cosigner_pubkey=dave.wallet.pub),
        RefundEntry(eve_friend_pub, cfg["refund_value"], cosigner_pubkey=eve.wallet.pub),
    ]
    _require(
        check_payment_plan, cfg["amount"], [e.value for e in plan], [s for _c, s in payers]
    )
    env.seed_funds(payers)

    request = env.merchant.create_request(cfg["amount"])
    msg = pay_joint(request, payers, plan)
    env.merchant.process_payment(msg)
    env.ledger.advance_height(1)
    env.log("dave+eve", "joint-payment", f"entries={len(plan)}")

    if env.scenario.disable_defense:
        env.merchant.issue_refund_unprotected(request.merchant_data)
        env.ledger.advance_height(1)
        deltas = env.deltas()
        return [
            Assertion(
                "trader-steals-victims-refund",
                deltas.get("silkroad-trader", 0) == cfg["refund_value"],
            )
        ]

    issue = env.issue_refund(request.merchant_data, "cosigner-fallback")
    env.log("merchant", "refund-issued", f"fallbacks={len(issue.tc2s)}")

    # the trader (with eve's help) still lacks dave's masked-child signature
    trader_blocked = _joint_spend_blocked(
        issue, [(trader_priv, trader_pub), (eve.wallet.priv, eve.wallet.pub)], trader_pub
    )
    env.log("silkroad-trader", "redeem-attempt", f"blocked={trader_blocked}")

    # dave ignores the unknown refundee and recovers via his own fallback
    env.advance_to(issue.tc2s[0].lock_height)
    fallback_tx = dave.redeem_fallback()
    env.ledger.advance_height(1)
    env.log("dave", "fallback-claimed", f"tx={txid(fallback_tx).hex()[:12]}")
    env.merchant.monitor()

    deltas = env.deltas()
    dave_fallback_value = next(
        tc2.outputs[0].value
        for tc2 in issue.tc2s
        if env.ledger.is_spent(txid(tc2), 0)[0]
    )
    return [
        Assertion("attacker-blocked", trader_blocked),
        Assertion(
            "attacker-gain-zero",
            deltas.get("silkroad-trader", 0) == 0,
            f"trader delta {deltas.get('silkroad-trader', 0)}",
        ),
        Assertion(
            "victim-recovers-via-fallback",
            deltas.get("dave", 0) == dave_fallback_value - cfg["share"],
            f"dave delta {deltas.get('dave', 0)}",
        ),
        Assertion(
            "per-cosigner-fallbacks",
            len(issue.tc2s) == 2 and len(issue.records) == 2,
        ),
    ]


def _run_recovery(env: Env) -> list[Assertion]:
    cfg = env.config
    if cfg["sessions"] < 3:
        raise ConfigError("Recovery needs sessions >= 3: two joint redeems and a fallback")
    db_path = os.path.join(env.out_dir or ".", f"recovery_seed{env.scenario.seed}.db")
    env.merchant.store = dispute.RecordStore(db_path)

    customers = []
    refundee_keys = []
    for i in range(cfg["sessions"]):
        customers.append(env.new_customer(f"customer{i}"))
        refundee_keys.append(env.new_keypair(f"refundee{i}"))
    plans = [[RefundEntry(r_pub, cfg["refund_value"])] for _r_priv, r_pub in refundee_keys]
    for plan in plans:
        _require(check_payment_plan, cfg["amount"], [e.value for e in plan])
    env.seed_funds([(customer, cfg["amount"]) for customer in customers])

    issues = []
    for i, (customer, plan) in enumerate(zip(customers, plans)):
        session = env.pay(customer, cfg["amount"], plan, False)
        env.ledger.advance_height(1)
        issues.append(env.issue_refund(session.merchant_data, f"customer{i}"))
        env.log("merchant", "refund-issued", f"session={i}")

    # sessions 0 and 1 redeem jointly; session 2 claims the fallback alone
    for customer, (r_priv, _r_pub) in zip(customers[:2], refundee_keys):
        customer.redeem_with_refundee(r_priv)
        env.ledger.advance_height(1)
    env.advance_to(issues[2].tc2.lock_height)
    customers[2].redeem_fallback()
    env.ledger.advance_height(1)
    env.merchant.monitor()
    env.log("merchant", "monitored", f"records={len(env.merchant.records)}")

    before = sorted(r.serialize() for r in env.merchant.records)
    env.merchant.store.wipe()
    env.log("disaster", "database-deleted", db_path)

    result = dispute.recover_database(
        env.merchant.wallet, env.ledger, max_child_index=cfg["max_child_index"]
    )
    after = sorted(r.serialize() for r in result.records)
    result2 = dispute.recover_database(
        env.merchant.wallet, env.ledger, max_child_index=cfg["max_child_index"]
    )
    env.merchant.store.rewrite(result.records)
    env.log(
        "merchant",
        "database-recovered",
        f"records={len(result.records)} key_ops={result.telemetry.key_ops} "
        f"search_ops={result.telemetry.search_ops}",
    )

    t = cfg["sessions"]
    ell = 3 * cfg["sessions"]  # joint + fallback + redeem per session
    two_k = 2 ** cfg["wallet_k"]
    return [
        Assertion(
            "records-recovered-exactly",
            before == after and len(after) == cfg["sessions"],
            f"{len(after)} records",
        ),
        Assertion(
            "recovery-idempotent",
            sorted(r.serialize() for r in result2.records) == after,
        ),
        Assertion(
            "keygen-counter-bound",
            result.telemetry.key_ops <= 2 * t * two_k,
            f"{result.telemetry.key_ops} <= {2 * t * two_k}",
        ),
        Assertion(
            "search-counter-bound",
            result.telemetry.search_ops <= ell * two_k,
            f"{result.telemetry.search_ops} <= {ell * two_k}",
        ),
        Assertion(
            "store-roundtrip",
            sorted(r.serialize() for r in env.merchant.store.load()) == after,
        ),
    ]


def _every_tx_mixed(truth: mixer.MixGroundTruth, txs: list) -> bool:
    """Whether each of `txs` carries chunks of several customers; vacuous for one."""
    return len(truth.customers) < 2 or all(
        len({f.origin for f in truth.chunk_facts if f.txid == tid}) > 1
        for tid in map(txid, txs)
    )


def _run_mixer(env: Env) -> list[Assertion]:
    cfg = env.config
    n = cfg["n_customers"]
    totals = [cfg["amount"]] * n
    if cfg["unequal"]:
        totals = [cfg["amount"] + 10_000 * i for i in range(n)]
    for total in totals:
        _require(mixer.split_value, total, cfg["k"])
    customers, refundees = env.mix_parties(totals)
    service = mixer.MixerService(
        env.merchant,
        k=cfg["k"],
        min_customers=min(2, n),
        outputs_per_tx=cfg["outputs_per_tx"],
        jitter_window=cfg["jitter_window"],
        rng_seed=env.scenario.seed,
    )
    for customer, wallet, total in zip(customers, refundees, totals):
        session = env.pay(customer, total, [RefundEntry(wallet.xpub, total)], True)
        env.ledger.advance_height(1)
        service.enqueue_refund(session.merchant_data, customer.name)
        env.log(customer.name, "paid-and-cancelled", f"refund={total}")
    # every payer is queued, so the batch already holds min(2, n) origins
    emitted = service.try_emit()
    env.ledger.advance_height(cfg["jitter_window"] + 1)
    env.log("merchant", "mix-emitted", f"txs={len(emitted)}")

    swept_ok = True
    for i, wallet in enumerate(refundees):
        _dest_priv, dest_pub = env.new_keypair(f"recipient{i}-dest")
        _txs, total = mixer.sweep_chunks(
            wallet, list(service.masker_pubs.values())[i], env.ledger, dest_pub,
            max_index=cfg["k"],
        )
        expected = service.truth.refund_totals[customers[i].name]
        swept_ok = swept_ok and total == expected
        env.log(f"recipient{i}", "swept-chunks", f"total={total}")
    env.ledger.advance_height(1)

    report = mixer.analyze_linkage(env.ledger, service.truth, rng_seed=env.scenario.seed)
    env.log(
        "analyzer",
        "origin-assignment",
        f"accuracy={report.accuracy:.3f} feasible={report.feasible_assignments}",
    )

    leak_free = _no_metadata_leakage(env, service.truth, refundees)
    return [
        Assertion("emissions-span-multiple-txs", len(emitted) >= 2
                  if n > 1 else len(emitted) >= 1),
        Assertion("every-emission-mixed", _every_tx_mixed(service.truth, emitted)),
        Assertion("sweep-recovers-all-chunks", swept_ok),
        Assertion(
            "equal-chunk-ambiguity",
            report.feasible_assignments > 1
            if n > 1 and not cfg["unequal"]
            else True,
            f"{report.feasible_assignments} feasible assignments",
        ),
        Assertion("no-metadata-leakage", leak_free),
    ]


def _no_metadata_leakage(env: Env, truth: mixer.MixGroundTruth, refundees) -> bool:
    """Emitted transactions must not embed session ids or refundee parent keys."""
    blobs = []
    for _h, _tid, tx in env.ledger.all_confirmed():
        blobs.append(serialize_tx(tx))
    haystack = b"".join(blobs)
    for origin in truth.origin_names:
        if origin in haystack:
            return False
    for wallet in refundees:
        if SECP256K1.encode_point(wallet.pub) in haystack:
            return False
    return True


def _run_aggregate(env: Env) -> list[Assertion]:
    cfg = env.config
    n = cfg["n_customers"]
    _require(mixer.split_value, cfg["amount"], cfg["k"])
    customers, refundees = env.mix_parties([cfg["amount"]] * n)
    service = mixer.AggregateService(
        env.merchant,
        k=cfg["k"],
        outputs_per_tx=cfg["outputs_per_tx"],
        jitter_window=cfg["jitter_window"],
        rng_seed=env.scenario.seed,
    )
    mds = []
    for customer, wallet in zip(customers, refundees):
        session = env.pay(
            customer, cfg["amount"], [RefundEntry(wallet.xpub, cfg["amount"])], True
        )
        env.ledger.advance_height(1)
        service.aggregate_refund(session.merchant_data, customer.name)
        mds.append(session.merchant_data)
    joint_txs, fallback_txs = service.emit()
    env.ledger.advance_height(cfg["jitter_window"] + 1)
    env.log("merchant", "aggregate-emitted",
            f"joint={len(joint_txs)} fallback={len(fallback_txs)}")
    for md in mds:
        for detail in service.details[md]:
            env.book.register_script_hash(detail.script.script_hash(), "escrow")

    redeems = []
    for i, md in enumerate(mds):
        _dest_priv, dest_pub = env.new_keypair(f"recipient{i}-agg-dest")
        redeems.extend(
            service.joint_redeem_all(md, customers[i].wallet, refundees[i], dest_pub)
        )
        env.log(f"payer{i}+recipient{i}", "chunks-redeemed", "")
    env.ledger.advance_height(1)

    max_lock = max(tx.lock_height for tx in fallback_txs)
    env.ledger.advance_height(max(0, max_lock - env.ledger.height) + 1)
    proofs_ok = True
    n_proofs = 0
    for md in mds:
        for proof in service.chunk_proofs(md):
            check = dispute.verify_linkage_proof(proof, env.ledger)
            proofs_ok = proofs_ok and bool(check)
            n_proofs += 1
    env.log("merchant", "chunk-proofs", f"count={n_proofs} all_ok={proofs_ok}")

    report = mixer.analyze_linkage(env.ledger, service.truth, rng_seed=env.scenario.seed)
    return [
        Assertion(
            "all-chunk-proofs-verify",
            proofs_ok and n_proofs == n * cfg["k"],
            f"{n_proofs} proofs",
        ),
        Assertion("joint-emissions-mixed", _every_tx_mixed(service.truth, joint_txs)),
        Assertion(
            "unlinkability-ambiguity",
            report.feasible_assignments > 1 if n > 1 else True,
            f"{report.feasible_assignments} feasible assignments",
        ),
        Assertion(
            "chunks-redeemed-jointly",
            len(redeems) == n * cfg["k"],
        ),
    ]


_RUNNERS = {
    ScenarioName.HONEST_REFUND: _run_honest_refund,
    ScenarioName.SILKROAD: _run_silkroad,
    ScenarioName.MARKETPLACE: _run_marketplace,
    ScenarioName.MULTI_SIGNER: _run_multi_signer,
    ScenarioName.RECOVERY: _run_recovery,
    ScenarioName.MIXER: _run_mixer,
    ScenarioName.AGGREGATE: _run_aggregate,
}


def run_scenario(scenario: Scenario, out_dir: Optional[str] = ".") -> Verdict:
    """Execute a named scenario end-to-end on a fresh ledger.

    The transcript is written to `out_dir` unless it is None.
    """
    env = Env(scenario, out_dir)
    assertions = _RUNNERS[scenario.name](env) + env.soundness_assertions()
    path = None
    if out_dir is not None:
        fname = f"{scenario.name.value.lower()}_seed{scenario.seed}.transcript.log"
        path = env.transcript.write(os.path.join(out_dir, fname))
    return Verdict(scenario.name.value, scenario.seed, assertions, path, env)


def report_storage_comparison(n: int, sig_size: int, payment_size: int) -> str:
    """Side-by-side storage cost: endorsement-signature scheme vs txid records."""
    if n < 1:
        raise ConfigError("need at least one refundee")
    record = dispute.RefundRecord(bytes(32), bytes(32), bytes(32))
    ours = dispute.record_size(record)
    lines = [
        f"{'refundees':>10} {'signed-endorsement':>20} {'txid-record':>12}",
    ]
    for count in sorted({1, n}):
        model = dispute.StorageModel(count, sig_size, payment_size)
        lines.append(
            f"{count:>10} {dispute.mccorry_storage(model):>20} {ours:>12}"
        )
    return "\n".join(lines)
