"""Key module: oracle cross-checks, frozen vectors, and property suites."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from refundsim.curve import SECP256K1
from refundsim.keys import (
    ChildMasker,
    DegenerateChild,
    ExtendedPublicKey,
    IdentityPoint,
    IndexOutOfRange,
    KeyDerivationError,
    KeyMismatch,
    derive_child_private,
    derive_child_public,
    dh_shared,
    keygen,
    mask_child,
    next_usable_index,
    point_hash_scalar,
    unmask_child_private,
    unmask_children,
)

VECTORS = Path(__file__).parent / "vectors" / "key_vectors.txt"


def xpub(pub, chain=bytes(32)):
    return ExtendedPublicKey(pub, chain)


# -- keygen ---------------------------------------------------------------


def test_keygen_deterministic():
    assert keygen(b"a") == keygen(b"a")


def test_keygen_distinct_seeds():
    assert keygen(b"a")[0] != keygen(b"b")[0]


def test_keygen_matches_oracle():
    # frozen from the reference implementation
    k, pub = keygen(b"a")
    assert SECP256K1.encode_point(pub).hex() == (
        "034da006f958beba78ec54443df4a3f52237253f7ae8cbdb17dccf3feaa57f3126"
    )
    assert (k, pub) == ref.ref_keygen(b"a")


def test_keygen_rejects_empty_seed():
    with pytest.raises(ValueError):
        keygen(b"")


def test_keygen_point_on_curve_oracle_remultiply():
    rng = random.Random(7)
    for _ in range(25):
        seed = rng.randbytes(16)
        k, pub = keygen(seed)
        assert ref.ref_mul(k, ref.G) == pub


# -- child derivation ---------------------------------------------------------


def test_child_public_private_consistency():
    priv, pub = keygen(b"parent")
    parent = xpub(pub, b"\x11" * 32)
    for index in (0, 1, 7, 2**31 - 1):
        child_priv = derive_child_private(priv, parent, index)
        assert SECP256K1.g_mul(child_priv) == derive_child_public(parent, index)


def test_child_distinct_indexes():
    _, pub = keygen(b"parent")
    parent = xpub(pub)
    assert derive_child_public(parent, 0) != derive_child_public(parent, 1)


def test_child_fixed_vector_zero_chain_index5():
    # frozen from the reference implementation
    _, pub = keygen(b"vector1")
    child = derive_child_public(xpub(pub), 5)
    assert SECP256K1.encode_point(child).hex() == (
        "03c3ac9c9d146a2e86c79f674cf705f875c7249dbe88af1fe5fe01f7bee5093e89"
    )


def test_child_private_one_parent():
    # 1 + H_l(0^32, encode(G)||encode(0)) mod n, frozen from the oracle
    parent = xpub(SECP256K1.g)
    got = derive_child_private(1, parent, 0)
    assert got == 0x23F2740EA906F427C10CD03910C510F0C468E703F042A8D06C5B7721F2C15B34


def test_child_index_out_of_range():
    _, pub = keygen(b"parent")
    with pytest.raises(IndexOutOfRange):
        derive_child_public(xpub(pub), 2**31)


def test_child_key_mismatch():
    _, pub = keygen(b"parent")
    with pytest.raises(KeyMismatch):
        derive_child_private(12345, xpub(pub), 0)


def test_vector_file_cross_check():
    import hashlib
    import hmac

    lines = VECTORS.read_text().splitlines()
    checked = 0
    for line in lines:
        if line.startswith("#"):
            continue
        seed_hex, index_text, child_hex, masked_hex = line.split(",")
        seed = bytes.fromhex(seed_hex)
        index = int(index_text)
        _, pub = keygen(seed)
        chain = hmac.new(b"chain", seed, hashlib.sha512).digest()[32:]
        m_priv, _ = keygen(b"merchant:" + seed)
        child = derive_child_public(ExtendedPublicKey(pub, chain), index)
        assert SECP256K1.encode_point(child).hex() == child_hex
        masked = mask_child(child, m_priv)
        assert SECP256K1.encode_point(masked).hex() == masked_hex
        checked += 1
    assert checked == 20


# -- Diffie-Hellman and masking ---------------------------------------------------


def test_dh_symmetry_fixed():
    a, A = keygen(b"x")
    b, B = keygen(b"y")
    assert dh_shared(a, B) == dh_shared(b, A)


def test_dh_matches_oracle():
    a, _ = keygen(b"x")
    _, B = keygen(b"y")
    assert dh_shared(a, B).hex() == (
        "b5429976ff898462a7393df17d168dcf6f96ccbae21c3ce30e795724605c4a99"
    )


def test_dh_with_generator():
    a, A = keygen(b"x")
    assert dh_shared(a, SECP256K1.g) == SECP256K1.encode_scalar(
        point_hash_scalar(A)
    )


def test_dh_identity_rejected():
    a, _ = keygen(b"x")
    with pytest.raises(IdentityPoint):
        dh_shared(a, None)
    with pytest.raises(IdentityPoint):
        dh_shared(SECP256K1.n, SECP256K1.g)  # scalar reduces to zero


def test_mask_fixture_matches_oracle():
    _, child = keygen(b"child-fixture")
    m_priv, _ = keygen(b"merchant-fixture")
    masked = mask_child(child, m_priv)
    assert SECP256K1.encode_point(masked).hex() == (
        "03f4da97429836eb470ea3a43ac6cafac4920984c147c5cf4e88a6ede566adcd4f"
    )


def test_mask_unmask_roundtrip():
    c_priv, c_pub = keygen(b"child")
    m_priv, m_pub = keygen(b"merchant")
    masked = mask_child(c_pub, m_priv)
    unmasked = unmask_child_private(c_priv, m_pub)
    assert SECP256K1.g_mul(unmasked) == masked


def test_mask_distinct_merchants():
    _, c_pub = keygen(b"child")
    m1, _ = keygen(b"m1")
    m2, _ = keygen(b"m2")
    assert mask_child(c_pub, m1) != mask_child(c_pub, m2)


def test_unmask_priv_one():
    _, m_pub = keygen(b"merchant")
    got = unmask_child_private(1, m_pub)
    expected = (1 + ref.ref_point_hash(m_pub)) % SECP256K1.n
    assert got == expected


# -- randomized oracle equivalence ------------------------------------------------


def test_randomized_derivation_oracle_equivalence():
    rng = random.Random(42)
    for _ in range(60):
        seed = rng.randbytes(16)
        chain = rng.randbytes(32)
        priv, pub = keygen(seed)
        parent = xpub(pub, chain)
        index = rng.randrange(0, 2**31)
        got = derive_child_public(parent, index)
        assert got == ref.ref_child_public(pub, chain, index)
        child_priv = derive_child_private(priv, parent, index)
        assert child_priv == ref.ref_child_private(priv, pub, chain, index)


def test_randomized_mask_oracle_equivalence():
    rng = random.Random(43)
    for _ in range(40):
        _, child = keygen(rng.randbytes(16))
        m_priv, _ = keygen(rng.randbytes(16))
        assert mask_child(child, m_priv) == ref.ref_mask(child, m_priv)


# -- properties -------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.binary(min_size=1, max_size=32),
    chain=st.binary(min_size=32, max_size=32),
    index=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_derivation_consistency(seed, chain, index):
    priv, pub = keygen(seed)
    parent = xpub(pub, chain)
    try:
        child_priv = derive_child_private(priv, parent, index)
    except DegenerateChild:
        return
    assert SECP256K1.g_mul(child_priv) == derive_child_public(parent, index)


@settings(max_examples=60, deadline=None)
@given(
    c_seed=st.binary(min_size=1, max_size=16),
    m_seed=st.binary(min_size=1, max_size=16),
)
def test_property_mask_unmask_consistency(c_seed, m_seed):
    c_priv, c_pub = keygen(c_seed)
    m_priv, m_pub = keygen(b"m" + m_seed)
    masked = mask_child(c_pub, m_priv)
    assert SECP256K1.g_mul(unmask_child_private(c_priv, m_pub)) == masked


@settings(max_examples=60, deadline=None)
@given(
    a_seed=st.binary(min_size=1, max_size=16),
    b_seed=st.binary(min_size=1, max_size=16),
)
def test_property_dh_symmetry(a_seed, b_seed):
    a, A = keygen(a_seed)
    b, B = keygen(b"b" + b_seed)
    assert dh_shared(a, B) == dh_shared(b, A)


def test_freshness_no_child_collisions():
    """Distinct (parent, index) pairs give distinct children, 10^4 trials."""
    rng = random.Random(99)
    seen = set()
    parents = []
    for _ in range(20):
        _, pub = keygen(rng.randbytes(16))
        parents.append(xpub(pub, rng.randbytes(32)))
    count = 0
    for parent in parents:
        for index in range(500):
            child = derive_child_public(parent, index)
            enc = SECP256K1.encode_point(child)
            assert enc not in seen
            seen.add(enc)
            count += 1
    assert count == 10_000


# -- toy-curve brute force ---------------------------------------------------------


def test_toy_curve_group_law_exhaustive(toy_curve):
    points = ref.toy_all_points()
    assert len(points) == toy_curve.n
    for k in range(toy_curve.n):
        assert toy_curve.g_mul(k) == ref.ref_mul(
            k, toy_curve.g, toy_curve.p, toy_curve.n
        )


def test_toy_curve_derivation_and_masking(toy_curve):
    rng = random.Random(5)
    for _ in range(50):
        priv = rng.randrange(1, toy_curve.n)
        pub = toy_curve.g_mul(priv)
        chain = rng.randbytes(32)
        parent = ExtendedPublicKey(pub, chain)
        index = rng.randrange(0, 200)
        try:
            child_priv = derive_child_private(priv, parent, index, curve=toy_curve)
        except DegenerateChild:
            continue
        child_pub = derive_child_public(parent, index, curve=toy_curve)
        assert toy_curve.g_mul(child_priv) == child_pub
        m_priv = rng.randrange(1, toy_curve.n)
        masked = mask_child(child_pub, m_priv, curve=toy_curve)
        unmasked = unmask_child_private(
            child_priv, toy_curve.g_mul(m_priv), curve=toy_curve
        )
        assert toy_curve.g_mul(unmasked) == masked


def test_toy_curve_masked_identity_rejected(toy_curve):
    """In the 199-element group, masker 26 sends the generator to the identity."""
    child = toy_curve.g_mul(1)
    offset = int.from_bytes(dh_shared(26, child, curve=toy_curve), "big")
    assert toy_curve.add(child, toy_curve.g_mul(offset)) is None
    with pytest.raises(IdentityPoint):
        mask_child(child, 26, curve=toy_curve)


def test_toy_curve_degenerate_children_skipped(toy_curve):
    """On a 199-element group, zero tweaks happen; the skip helper jumps them."""
    rng = random.Random(11)
    hit_degenerate = False
    for trial in range(4000):
        priv = rng.randrange(1, toy_curve.n)
        parent = ExtendedPublicKey(toy_curve.g_mul(priv), rng.randbytes(32))
        index = rng.randrange(0, 50)
        try:
            derive_child_public(parent, index, curve=toy_curve)
        except DegenerateChild:
            hit_degenerate = True
            usable, child = next_usable_index(parent, index, curve=toy_curve)
            assert usable > index
            assert child == derive_child_public(parent, usable, curve=toy_curve)
    assert hit_degenerate, "4000 trials on a 199-order group should hit a degenerate"


# -- batch masking by linearity ------------------------------------------------------


def _outcome(fn):
    """The point `fn` returns, or the type of the key error it raises."""
    try:
        return fn()
    except (DegenerateChild, IdentityPoint) as exc:
        return type(exc)


def _check_batch_against_definition(curve, parents, maskers, indexes):
    """ChildMasker against derive_child_public + mask_child; returns the outcomes seen."""
    seen = set()
    for parent in parents:
        children = {
            i: _outcome(lambda: derive_child_public(parent, i, curve=curve)) for i in indexes
        }
        for m in maskers:
            masker = ChildMasker(m, curve=curve)
            for i in indexes:
                child = children[i]
                want = child if isinstance(child, type) else _outcome(
                    lambda: mask_child(child, m, curve=curve)
                )
                assert _outcome(lambda: masker.mask(parent, i)) == want, (parent, m, i)
                seen.add(want if isinstance(want, type) else "point")
    return seen


def test_toy_batch_mask_matches_definition_exhaustive(toy_curve):
    """Every parent and every masking key (0 included) at index 0, and every
    parent over indexes 0..7 under a few maskers: same point, same error."""
    chain = b"\x07" * 32
    parents = [ExtendedPublicKey(toy_curve.g_mul(p), chain) for p in range(1, toy_curve.n)]
    seen = _check_batch_against_definition(toy_curve, parents, range(toy_curve.n), [0])
    seen |= _check_batch_against_definition(
        toy_curve, parents, [0, 1, 26, toy_curve.n - 1], range(8)
    )
    assert seen == {"point", DegenerateChild, IdentityPoint}


def test_toy_batch_mask_degenerate_cases(toy_curve):
    """A zero tweak and an identity child raise DegenerateChild, and masker 26
    on a child equal to the generator raises IdentityPoint, as mask_child does."""
    chain = b"\x07" * 32
    found = {}
    for p in range(1, toy_curve.n):
        parent = ExtendedPublicKey(toy_curve.g_mul(p), chain)
        for index in range(64):
            try:
                child = derive_child_public(parent, index, curve=toy_curve)
            except DegenerateChild as exc:
                found.setdefault(str(exc).split(" ")[0], (parent, index))
                continue
            if child == toy_curve.g:
                found.setdefault("generator", (parent, index))
    assert set(found) == {"tweak", "child", "generator"}
    masker = ChildMasker(26, curve=toy_curve)
    for kind in ("tweak", "child"):
        with pytest.raises(DegenerateChild):
            masker.mask(*found[kind])
    with pytest.raises(IdentityPoint):
        masker.mask(*found["generator"])
    with pytest.raises(IndexOutOfRange):
        masker.mask(found["generator"][0], 2**31)


def test_batch_mask_matches_definition_secp256k1():
    """Indexes 0..16 of two extended keys under three masking keys."""
    parents = [
        ExtendedPublicKey(keygen(b"batch-parent-%d" % i)[1], bytes([i + 1]) * 32)
        for i in range(2)
    ]
    maskers = [keygen(b"batch-masker-%d" % i)[0] for i in range(3)]
    assert _check_batch_against_definition(SECP256K1, parents, maskers, range(17)) == {"point"}


def test_toy_mask_many_matches_mask(toy_curve):
    """mask_many answers each index with the point mask returns or the error
    it raises, for every parent under maskers 0, 1, 26 and n - 1, with a
    repeated index and one out of range."""
    chain = b"\x07" * 32
    indexes = list(range(12)) + [3, 2**31]
    seen = set()
    for m in (0, 1, 26, toy_curve.n - 1):
        for p in range(1, toy_curve.n):
            parent = ExtendedPublicKey(toy_curve.g_mul(p), chain)
            batch = ChildMasker(m, curve=toy_curve).mask_many(parent, indexes)
            single = ChildMasker(m, curve=toy_curve)
            assert len(batch) == len(indexes)
            for index, got in zip(indexes, batch):
                try:
                    want = single.mask(parent, index)
                except KeyDerivationError as exc:
                    want = (type(exc), str(exc))
                if isinstance(got, KeyDerivationError):
                    got = (type(got), str(got))
                assert got == want, (m, p, index)
                kind = "point" if isinstance(want[0], int) else (want[0], want[1].split()[0])
                seen.add((m != 0, kind))
    # a zero tweak, an identity child, an identity masked key, and every
    # error that a zero masker raises before any point sum
    assert seen == {
        (True, "point"), (True, (DegenerateChild, "tweak")), (True, (DegenerateChild, "child")),
        (True, (IdentityPoint, "masked")), (True, (IndexOutOfRange, "index")),
        (False, (DegenerateChild, "tweak")), (False, (DegenerateChild, "child")),
        (False, (IdentityPoint, "shared")), (False, (IndexOutOfRange, "index")),
    }


def test_batch_mask_one_mul_per_parent(monkeypatch):
    """m*P is computed once per extended key, at its first index, then reused."""
    muls = []
    real_mul = SECP256K1.mul
    monkeypatch.setattr(SECP256K1, "mul", lambda k, pt: muls.append(pt) or real_mul(k, pt))
    parents = [ExtendedPublicKey(keygen(b"mul-parent-%d" % i)[1], bytes(32)) for i in range(2)]
    masker = ChildMasker(keygen(b"mul-masker")[0])
    assert muls == []
    for index in range(5):
        for parent in parents:
            masker.mask(parent, index)
    assert muls == [parent.pubkey for parent in parents]


# -- batch unmasking through a fixed-base comb --------------------------------------


def _check_unmask_children_against_definition(curve, parents, masker_privs, indexes):
    """unmask_children against derive_child_private + unmask_child_private:
    one batch per (parent, masker) over the children `indexes` derive;
    returns the outcomes seen."""
    seen = set()
    for priv, parent in parents:
        children = [
            _outcome(lambda: derive_child_private(priv, parent, i, curve=curve)) for i in indexes
        ]
        seen |= {child for child in children if isinstance(child, type)}
        children = [child for child in children if not isinstance(child, type)]
        for m in masker_privs:
            m_pub = curve.g_mul(m)
            batch = unmask_children(children, m_pub, curve=curve)
            assert len(batch) == len(children)
            for child, got in zip(children, batch):
                want = _outcome(lambda: unmask_child_private(child, m_pub, curve=curve))
                assert (type(got) if isinstance(got, Exception) else got) == want, (parent, m)
                seen.add("key")
    return seen


def test_toy_unmasker_matches_definition(toy_curve):
    """Every parent key under a few maskers, indexes 0..16, each sweep one batch."""
    chain = b"\x07" * 32
    parents = [
        (p, ExtendedPublicKey(toy_curve.g_mul(p), chain)) for p in range(1, toy_curve.n)
    ]
    seen = _check_unmask_children_against_definition(
        toy_curve, parents, [1, 2, ref.TOY_LAM, toy_curve.n - 1], range(17)
    )
    assert seen == {"key", DegenerateChild}


def test_toy_unmasker_identity_cases(toy_curve):
    """An identity masker key raises IdentityPoint, as the definition does;
    a child key of 0 mod n, whose shared point is the identity, is answered
    with an IdentityPoint in its place, and its neighbours still unmask."""
    with pytest.raises(IdentityPoint):
        unmask_child_private(1, None, curve=toy_curve)
    with pytest.raises(IdentityPoint):
        unmask_children([1], None, curve=toy_curve)
    m_pub = toy_curve.g_mul(5)
    assert unmask_children([], m_pub, curve=toy_curve) == []
    children = [toy_curve.n * use for use in range(4)] + [1, 2]
    batch = unmask_children(children, m_pub, curve=toy_curve)
    for child, got in zip(children[:4], batch):
        with pytest.raises(IdentityPoint):
            unmask_child_private(child, m_pub, curve=toy_curve)
        assert isinstance(got, IdentityPoint)
    assert batch[4:] == [unmask_child_private(c, m_pub, curve=toy_curve) for c in (1, 2)]


def test_unmasker_matches_definition_secp256k1():
    """Indexes 0..16 of two key pairs under three masker keys."""
    parents = []
    for i in range(2):
        priv, pub = keygen(b"unmask-parent-%d" % i)
        parents.append((priv, ExtendedPublicKey(pub, bytes([i + 1]) * 32)))
    maskers = [keygen(b"unmask-masker-%d" % i)[0] for i in range(3)]
    seen = _check_unmask_children_against_definition(SECP256K1, parents, maskers, range(17))
    assert seen == {"key"}


def test_unmask_children_builds_one_comb_and_makes_no_mul(record_calls):
    muls = record_calls(SECP256K1, "mul")
    batches = record_calls(SECP256K1, "mul_many")
    m_pub = keygen(b"table-masker")[1]
    unmask_children(list(range(1, 16)), m_pub)
    assert (muls, batches) == ([], [(list(range(1, 16)), m_pub)])
