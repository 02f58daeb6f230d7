"""Every wire decoder raises only ValueError on malformed bytes and accepts
only canonical ones: whatever it decodes encodes back to the same bytes."""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from refundsim.dispute import RefundRecord
from refundsim.keys import ExtendedPublicKey, keygen
from refundsim.protocol import (
    PaymentAck,
    PaymentMsg,
    PaymentRequest,
    RefundAddressUpdate,
    RefundEntry,
    SealedRefundTo,
)
from refundsim.transactions import (
    FundingOutpoint,
    NOfNScript,
    build_main_tc,
    build_redeem,
    build_refund_tc1,
    deserialize_tx,
    serialize_tx,
    txid,
    two_of_two,
)

C_PRIV, C_PUB = keygen(b"decoder-customer")
M_PRIV, M_PUB = keygen(b"decoder-merchant")
R_PRIV, R_PUB = keygen(b"decoder-refundee")
XPUB = ExtendedPublicKey(C_PUB, b"\x33" * 32)

MAIN = build_main_tc(
    [FundingOutpoint(b"\x01" * 32, 0, 80_000)], M_PUB, 50_000, [XPUB], [(C_PRIV, C_PUB)],
    [(C_PUB, 30_000)],
)
TC1 = build_refund_tc1(
    [((C_PUB,), R_PUB, 30_000)], [FundingOutpoint(b"\x02" * 32, 1, 40_000)], M_PUB, M_PRIV
)
REDEEM = build_redeem(
    TC1, 0, [(C_PRIV, C_PUB), (R_PRIV, R_PUB)], R_PUB, reveal_script=two_of_two(C_PUB, R_PUB)
)
ENTRIES = (RefundEntry(R_PUB, 10_000), RefundEntry(XPUB, 20_000, cosigner_pubkey=C_PUB))
REQUEST = PaymentRequest(C_PUB, M_PUB, 50_000, 3, 103, "memo", b"\x07" * 16, b"\x08" * 64)
PAYMENT = PaymentMsg(
    b"\x07" * 16, (MAIN,), ENTRIES, SealedRefundTo(b"\x09" * 40, C_PUB), "pay"
)
RECORD = RefundRecord(txid(MAIN), txid(TC1), b"\x04" * 32, txid(REDEEM))

# (decoder, its encoder, one valid encoding it accepts)
DECODERS = {
    "deserialize_tx": (deserialize_tx, serialize_tx, serialize_tx(REDEEM)),
    "deserialize_tx_main": (deserialize_tx, serialize_tx, serialize_tx(MAIN)),
    "NOfNScript": (NOfNScript.decode, NOfNScript.encode, two_of_two(C_PUB, R_PUB).encode()),
    "PaymentRequest": (PaymentRequest.decode, PaymentRequest.encode, REQUEST.encode()),
    "PaymentMsg": (PaymentMsg.decode, PaymentMsg.encode, PAYMENT.encode()),
    "PaymentAck": (
        PaymentAck.decode, PaymentAck.encode, PaymentAck(PAYMENT, "ack", b"\x0a" * 64).encode()
    ),
    "RefundEntry": (RefundEntry.decode, RefundEntry.encode, ENTRIES[1].encode()),
    "RefundAddressUpdate": (
        RefundAddressUpdate.decode,
        RefundAddressUpdate.encode,
        RefundAddressUpdate(b"\x07" * 16, ENTRIES).encode(),
    ),
    "ExtendedPublicKey": (ExtendedPublicKey.decode, ExtendedPublicKey.encode, XPUB.encode()),
    "RefundRecord": (RefundRecord.deserialize, RefundRecord.serialize, RECORD.serialize()),
}


def first_difference(a: bytes, b: bytes) -> int:
    return next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)


# positions of one-byte presence markers, which read 0 or 1 and nothing else
HAS_SCRIPT_AT = first_difference(
    serialize_tx(REDEEM),
    serialize_tx(dataclasses.replace(
        REDEEM, inputs=(dataclasses.replace(REDEEM.inputs[0], reveal_script=None),)
    )),
)
SEALED_AT = first_difference(
    PAYMENT.encode(), dataclasses.replace(PAYMENT, sealed_refund_to=None).encode()
)


@pytest.mark.parametrize("name", sorted(DECODERS))
def test_valid_encodings_decode(name):
    decode, _encode, data = DECODERS[name]
    decode(data)


def mutate(data: bytes, ops) -> bytes:
    out = bytearray(data)
    for kind, where, byte in ops:
        pos = where % (len(out) + 1)
        if kind == "flip" and out:
            out[pos % len(out)] ^= 1 << (byte % 8)
        elif kind == "set" and out:
            out[pos % len(out)] = byte
        elif kind == "insert":
            out.insert(pos, byte)
        elif kind == "delete" and out:
            del out[pos % len(out)]
        elif kind == "truncate":
            del out[pos:]
    return bytes(out)


MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["flip", "set", "insert", "delete", "truncate"]),
        st.integers(0, 1 << 16),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=4,
)


@pytest.mark.parametrize("name", sorted(DECODERS))
@settings(max_examples=100, deadline=None)
@given(ops=MUTATIONS)
@example(ops=[("truncate", 0, 0)])  # empty input
def test_mutated_encodings_raise_only_value_error(name, ops):
    decode, _encode, data = DECODERS[name]
    try:
        decode(mutate(data, ops))
    except ValueError:
        pass


@pytest.mark.parametrize("name", sorted(DECODERS))
@settings(max_examples=100, deadline=None)
@given(ops=MUTATIONS)
@example(ops=[("set", 0, 0x83)])  # RefundEntry flag bits beyond 1 and 2
@example(ops=[("set", HAS_SCRIPT_AT, 2)])  # a transaction input's has-script byte
@example(ops=[("set", SEALED_AT, 2)])  # a payment's sealed-presence byte
def test_decoded_mutations_reencode_to_the_same_bytes(name, ops):
    decode, encode, data = DECODERS[name]
    mutated = mutate(data, ops)
    try:
        value = decode(mutated)
    except ValueError:
        return
    assert encode(value) == mutated
