"""Per-layer tracing from outside the program.

The tracer wraps refundsim's public functions and methods.  A function
imported with ``from .keys import mask_child`` is a separate binding in the
importing module, so each wrapper is installed under every name in every
``refundsim.*`` module that is bound to the original.  Methods are wrapped
on their class, and the curve's ``g_mul``, ``mul`` and ``add`` on the
``SECP256K1`` instance.

Every wrapped call inside an op records a span (name, start, end, parent
span, op id) and a call count.  Spans stay in memory until ``write``.
A layer's self time is its spans' durations minus the time their child
spans cover.  Outside an op the wrappers call straight through, so the
benchmark's own checks leave no trace.
"""

from __future__ import annotations

import json
import os
import sys
import types
from collections import Counter
from time import perf_counter_ns

# (layer, owner path, attribute names); the owner is a module, a class in
# it, or the curve instance.  A wrapped call is named ``layer.attribute``.
TARGETS = [
    ("curve", "curve.SECP256K1", ["g_mul", "mul", "add"]),
    ("keys", "keys", [
        "keygen", "derive_child_public", "derive_child_private", "next_usable_index",
        "dh_shared", "mask_child", "unmask_child_private", "point_hash_scalar",
    ]),
    ("transactions", "transactions", [
        "schnorr_sign", "schnorr_verify", "txid", "signing_digest", "serialize_tx",
        "key_hash", "validate", "build_main_tc", "build_refund_tc1", "build_refund_tc2",
        "build_redeem",
    ]),
    ("ledger", "ledger.SimLedger", ["broadcast", "advance_height", "find_by_pubkey"]),
    ("protocol", "protocol", ["seal_refund_entries", "unseal_refund_entries"]),
    ("protocol", "protocol.Merchant", [
        "create_request", "process_payment", "issue_refund", "monitor",
    ]),
    ("protocol", "protocol.Customer", [
        "verify_request", "pay", "find_joint_refund", "find_fallback",
        "redeem_with_refundee", "redeem_fallback",
    ]),
    ("dispute", "dispute", [
        "recover_database", "generate_linkage_proof", "verify_linkage_proof",
        "extract_xpub", "extract_all_xpubs",
    ]),
    ("dispute", "dispute.RecordStore", ["append", "rewrite", "wipe"]),
    ("mixer", "mixer", ["split_value", "analyze_linkage"]),
    ("mixer", "mixer.AggregateService", [
        "aggregate_refund", "emit", "joint_redeem_all", "chunk_proofs",
    ]),
]
LAYERS = ["curve", "keys", "transactions", "ledger", "protocol", "dispute", "mixer"]
DISCOVERY = ("protocol.find_joint_refund", "protocol.find_fallback")

# per_layer metric name -> unit, in the order they are printed
METRICS = {
    "curve.g_mul.calls": "count",
    "curve.mul.calls": "count",
    "curve.self_ms": "ms",
    "keys.mask_child.calls": "count",
    "keys.unmask_child_private.calls": "count",
    "keys.derive_child_public.calls": "count",
    "keys.derive_child_private.calls": "count",
    "keys.self_ms": "ms",
    "transactions.schnorr_sign.calls": "count",
    "transactions.schnorr_verify.calls": "count",
    "transactions.verifies_per_signature": "ratio",
    "transactions.txid.calls": "count",
    "transactions.self_ms": "ms",
    "ledger.broadcast.ms": "ms",
    "ledger.advance_height.ms": "ms",
    "ledger.find_by_pubkey.ms": "ms",
    "ledger.scanned_txs": "count",
    "ledger.rejects": "count",
    "ledger.mempool_drops": "count",
    "ledger.self_ms": "ms",
    "protocol.discovery.ms": "ms",
    "protocol.discovery_hit_ratio": "ratio",
    "protocol.issue_refund.ms": "ms",
    "protocol.monitor.ms": "ms",
    "protocol.self_ms": "ms",
    "dispute.recover_database.ms": "ms",
    "dispute.key_ops": "count",
    "dispute.search_ops": "count",
    "dispute.records_per_key_op": "ratio",
    "dispute.record_bytes_written": "bytes",
    "dispute.verify_linkage_proof.ms": "ms",
    "mixer.emit.ms": "ms",
    "mixer.joint_redeem_all.ms": "ms",
    "mixer.analyze_linkage.ms": "ms",
    "mixer.self_ms": "ms",
    "trace.overhead_ms": "ms",
}


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent, op)
        self.stack: list[list] = []  # open spans: [index, name, layer, start, child_ns]
        self.calls: Counter = Counter()
        self.incl_ns: Counter = Counter()  # inclusive time per span name
        self.self_ns: Counter = Counter()  # self time per layer
        self.counts: Counter = Counter()  # derived counters

    # -- spans ------------------------------------------------------------------

    def _enter(self, name: str, layer: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        index = len(self.spans)
        self.spans.append((name, 0, 0, parent, self.op_id))
        frame = [index, name, layer, perf_counter_ns(), 0]
        self.stack.append(frame)
        return frame

    def _leave(self, frame: list) -> None:
        end = perf_counter_ns()
        self.stack.pop()
        index, name, layer, start, child_ns = frame
        duration = end - start
        self.spans[index] = (name, start, end, self.spans[index][3], self.op_id)
        self.incl_ns[name] += duration
        self.self_ns[layer] += duration - child_ns
        if self.stack:
            self.stack[-1][4] += duration

    def run_op(self, op):
        """Run one op as a root span with its own op id."""
        self.op_id += 1
        self.active = True
        frame = self._enter("op", "bench")
        try:
            return op()
        finally:
            self._leave(frame)
            self.active = False

    def in_discovery(self) -> bool:
        return any(frame[1] in DISCOVERY for frame in self.stack)

    # -- wrapping -------------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, hook=None):
        """Wrap ``fn``; ``hook(args, result, before, state)`` reads counters around it."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            state = hook(args, None, True) if hook else None
            frame = tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(frame)
            if hook:
                hook(args, result, False, state)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, P) -> None:
        """Wrap every target in the program loaded as namespace ``P``."""
        modules = [
            module for name, module in sys.modules.items()
            if name == "refundsim" or name.startswith("refundsim.")
        ]
        hooks = self._hooks()
        for layer, owner_path, attrs in TARGETS:
            owner = P
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            for attr in attrs:
                name = f"{layer}.{attr}"
                original = getattr(owner, attr)
                wrapped = self._wrap(original, name, layer, hooks.get(name))
                if not isinstance(owner, types.ModuleType):
                    setattr(owner, attr, wrapped)
                    continue
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, binding, wrapped)
        self._wrap_scan(P)

    def _wrap_scan(self, P) -> None:
        """Count the transactions ``all_confirmed`` yields while an op runs."""
        tracer = self
        original = P.ledger.SimLedger.all_confirmed

        def all_confirmed(ledger):
            for item in original(ledger):
                if tracer.active:
                    tracer.counts["ledger.scanned_txs"] += 1
                yield item

        all_confirmed.__wrapped__ = original
        P.ledger.SimLedger.all_confirmed = all_confirmed

    def _hooks(self) -> dict:
        """Counters read from outside around particular calls."""
        counts = self.counts
        tracer = self

        def broadcast(args, result, before, state=None):
            if not before and not result:
                counts["ledger.rejects"] += 1

        def advance_height(args, result, before, state=None):
            ledger = args[0]
            if before:
                return len(ledger.mempool), len(ledger.blocks)
            mempool_before, blocks_before = state
            confirmed = [tx for _h, txs in ledger.blocks[blocks_before:] for tx in txs]
            counts["ledger.mempool_drops"] += mempool_before - len(ledger.mempool) - len(confirmed)
            counts["transactions.confirmed_signatures"] += sum(
                len(txin.witness) for tx in confirmed for txin in tx.inputs
            )

        def located(args, result, before, state=None):
            if not before and result is not None:
                counts["protocol.refunds_located"] += 1

        def unmask(args, result, before, state=None):
            if before and tracer.in_discovery():
                counts["protocol.discovery_unmasks"] += 1

        def recover(args, result, before, state=None):
            if not before:
                counts["dispute.key_ops"] += result.telemetry.key_ops
                counts["dispute.search_ops"] += result.telemetry.search_ops
                counts["dispute.records_recovered"] += len(result.records)

        def rewrite(args, result, before, state=None):
            if not before:
                counts["dispute.record_bytes_written"] += os.path.getsize(args[0].path)

        def append(args, result, before, state=None):
            path = args[0].path
            size = os.path.getsize(path) if os.path.exists(path) else 0
            if before:
                return size
            counts["dispute.record_bytes_written"] += size - state

        return {
            "ledger.broadcast": broadcast,
            "ledger.advance_height": advance_height,
            "protocol.find_joint_refund": located,
            "protocol.find_fallback": located,
            "keys.unmask_child_private": unmask,
            "dispute.recover_database": recover,
            "dispute.rewrite": rewrite,
            "dispute.append": append,
        }

    # -- results -----------------------------------------------------------------------

    def per_op(self, ops: int, overhead_ms: float) -> dict[str, float]:
        """Every per-layer metric as a value per op."""
        ms = lambda ns: ns / 1e6 / ops  # noqa: E731
        c, calls, incl = self.counts, self.calls, self.incl_ns
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        values = {
            "curve.g_mul.calls": calls["curve.g_mul"] / ops,
            "curve.mul.calls": calls["curve.mul"] / ops,
            "keys.mask_child.calls": calls["keys.mask_child"] / ops,
            "keys.unmask_child_private.calls": calls["keys.unmask_child_private"] / ops,
            "keys.derive_child_public.calls": calls["keys.derive_child_public"] / ops,
            "keys.derive_child_private.calls": calls["keys.derive_child_private"] / ops,
            "transactions.schnorr_sign.calls": calls["transactions.schnorr_sign"] / ops,
            "transactions.schnorr_verify.calls": calls["transactions.schnorr_verify"] / ops,
            "transactions.verifies_per_signature": ratio(
                calls["transactions.schnorr_verify"], c["transactions.confirmed_signatures"]
            ),
            "transactions.txid.calls": calls["transactions.txid"] / ops,
            "ledger.broadcast.ms": ms(incl["ledger.broadcast"]),
            "ledger.advance_height.ms": ms(incl["ledger.advance_height"]),
            "ledger.find_by_pubkey.ms": ms(incl["ledger.find_by_pubkey"]),
            "ledger.scanned_txs": c["ledger.scanned_txs"] / ops,
            "ledger.rejects": c["ledger.rejects"] / ops,
            "ledger.mempool_drops": c["ledger.mempool_drops"] / ops,
            "protocol.discovery.ms": ms(sum(incl[name] for name in DISCOVERY)),
            "protocol.discovery_hit_ratio": ratio(
                c["protocol.refunds_located"], c["protocol.discovery_unmasks"]
            ),
            "protocol.issue_refund.ms": ms(incl["protocol.issue_refund"]),
            "protocol.monitor.ms": ms(incl["protocol.monitor"]),
            "dispute.recover_database.ms": ms(incl["dispute.recover_database"]),
            "dispute.key_ops": c["dispute.key_ops"] / ops,
            "dispute.search_ops": c["dispute.search_ops"] / ops,
            "dispute.records_per_key_op": ratio(
                c["dispute.records_recovered"], c["dispute.key_ops"]
            ),
            "dispute.record_bytes_written": c["dispute.record_bytes_written"] / ops,
            "dispute.verify_linkage_proof.ms": ms(incl["dispute.verify_linkage_proof"]),
            "mixer.emit.ms": ms(incl["mixer.emit"]),
            "mixer.joint_redeem_all.ms": ms(incl["mixer.joint_redeem_all"]),
            "mixer.analyze_linkage.ms": ms(incl["mixer.analyze_linkage"]),
            "trace.overhead_ms": overhead_ms,
        }
        for layer in LAYERS:
            values[f"{layer}.self_ms"] = ms(self.self_ns[layer])
        return {name: values[name] for name in METRICS}

    def missing(self, required) -> list[str]:
        """Required wrapped functions that recorded no call."""
        return [name for name in required if self.calls[name] == 0]

    def write(self, path) -> None:
        """Spans as JSON lines: name, start and end in ns, parent index, op id."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
