import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import reference as ref
from refundsim.curve import CurveGroup
from refundsim.keys import keygen
from refundsim.ledger import SimLedger
from refundsim.protocol import Customer, IdentityRegistry, KeyRoleLog, Merchant
from refundsim.transactions import FundingOutpoint, build_seed_tx, txid


@pytest.fixture
def record_calls(monkeypatch):
    """``record(owner, name)`` wraps ``owner.name`` to log each call's
    positional arguments, and returns the log.

    A function imported with ``from .keys import unmask_child_private`` is a
    separate binding in the importing module, so, as perfbench's tracer
    does, the wrapper is installed under every name in every ``refundsim.*``
    module that is bound to the original, as well as on ``owner``.
    """

    def record(owner, name):
        original = getattr(owner, name)
        calls = []

        def recorded(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)
        for module_name, module in list(sys.modules.items()):
            if module_name == "refundsim" or module_name.startswith("refundsim."):
                for binding, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, binding, recorded)
        return calls

    return record


@pytest.fixture(scope="session")
def toy_curve():
    """Tiny prime-order group, small enough to brute force."""
    return CurveGroup("toy", **ref.TOY_PARAMS)


class Harness:
    """One merchant, funded actors, a fresh ledger."""

    def __init__(self, tag: bytes = b"", lock_blocks=30, window_blocks=400,
                 wallet_size=64):
        self.ledger = SimLedger()
        self.registry = IdentityRegistry()
        self.key_log = KeyRoleLog()
        self.merchant = Merchant(
            "shop", b"merchant" + tag, self.ledger, self.registry, self.key_log,
            wallet_size=wallet_size, lock_blocks=lock_blocks,
            window_blocks=window_blocks,
        )

    def fund(self, customer_amounts, merchant_keys=6, merchant_per_key=200_000):
        payouts = [(c.wallet.pub, v) for c, v in customer_amounts]
        for i in range(merchant_keys):
            payouts.append((self.merchant.wallet.key(i)[1], merchant_per_key))
        seed_tx = build_seed_tx(payouts)
        assert self.ledger.broadcast(seed_tx)
        self.ledger.advance_height(1)
        sid = txid(seed_tx)
        for i, (customer, value) in enumerate(customer_amounts):
            customer.wallet.credit(FundingOutpoint(sid, i, value))
        for i in range(merchant_keys):
            self.merchant.wallet.credit(
                i, FundingOutpoint(sid, len(customer_amounts) + i, merchant_per_key)
            )
        return seed_tx

    def customer(self, name: str, tag: bytes = b"") -> Customer:
        return Customer(
            name, name.encode() + tag, self.ledger, self.merchant.identity_pub
        )


@pytest.fixture
def harness():
    return Harness()


@pytest.fixture
def paid_session(harness):
    """A completed payment with one refund entry, ready for refund issuance."""
    from refundsim.protocol import RefundEntry

    alice = harness.customer("alice")
    r_priv, r_pub = keygen(b"refundee-bob")
    harness.fund([(alice, 50_000)])
    request = harness.merchant.create_request(50_000)
    msg = alice.pay(request, [RefundEntry(r_pub, 30_000)])
    harness.merchant.process_payment(msg)
    harness.ledger.advance_height(1)
    return harness, alice, (r_priv, r_pub), request, msg
