"""Refund-hardened payment protocol simulator.

Multisignature + time-locked refund transactions with DH-masked child keys,
implicit merchant logging, database recovery by blockchain scan, and a
merchant-as-mixer anonymity protocol, all over an in-memory ledger.
"""

from .curve import SECP256K1, CurveGroup
from .keys import (
    ExtendedPublicKey,
    derive_child_private,
    derive_child_public,
    dh_shared,
    keygen,
    mask_child,
    unmask_child_private,
)
from .ledger import SimLedger
from .protocol import Customer, IdentityRegistry, Merchant, RefundEntry
from .scenarios import Scenario, ScenarioName, run_scenario

__version__ = "0.1.0"

__all__ = [
    "SECP256K1",
    "CurveGroup",
    "ExtendedPublicKey",
    "derive_child_private",
    "derive_child_public",
    "dh_shared",
    "keygen",
    "mask_child",
    "unmask_child_private",
    "SimLedger",
    "Customer",
    "IdentityRegistry",
    "Merchant",
    "RefundEntry",
    "Scenario",
    "ScenarioName",
    "run_scenario",
]
