"""Curve arithmetic against the affine oracle in ``reference.py``."""

import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from refundsim.curve import SECP256K1, CurveGroup

N = SECP256K1.n
LAM = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
BASIS = (
    (0x3086D221A7D46BCDE86C90E49284EB15, -0xE4437ED6010E88286F547FA90ABFE4C3),
    (0x114CA50F7A8E2F3F657C1108D9D44CFD8, 0x3086D221A7D46BCDE86C90E49284EB15),
)

# scalars whose GLV halves (k1, k2) have the signs given
NEGATIVE_K1 = 0x9D1313DCD092F24AC998177EFC789ECE1AC3BDAFD841F05A9659074F2A76FA68
NEGATIVE_K2 = 0xF08C53B55021CFB5B80C0DCB5141E15B8A89BB6A4F6132E460B33B8CAFC318FC
NEGATIVE_BOTH = 0x624DA06767A9074C91AD54FBD7031711C87BEAEB5536C2CBD6AA766B1826ACB7

# the comb's signed 6-bit digits: every window 32 (the largest digit, no
# carry), every window 33 (-31 and a carry out of every window), 64^i - 1
# (-1, then a carry through i windows); N - 1 carries into the top window
ALL_DIGITS_32 = int("100000" * 42, 2)
ALL_DIGITS_33 = int("100001" * 42, 2)

EDGE_SCALARS = [
    0, 1, 2, N - 1, N - 2, 2**128, LAM, N - LAM,
    NEGATIVE_K1, NEGATIVE_K2, NEGATIVE_BOTH,
    ALL_DIGITS_32, ALL_DIGITS_33, 64**1 - 1, 64**2 - 1, 64**21 - 1, 64**42 - 1,
]

scalars = st.integers(min_value=0, max_value=N - 1)
points = st.integers(min_value=1, max_value=N - 1).map(lambda a: ref.ref_mul(a, ref.G))


def secp256k1(**overrides):
    params = dict(
        name="secp256k1-copy", p=ref.P, a=0, b=7, n=N, gx=ref.GX, gy=ref.GY,
        beta=BETA, lam=LAM, basis=BASIS,
    )
    params.update(overrides)
    return CurveGroup(**params)


# -- secp256k1 against the oracle --------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(k=scalars)
def test_g_mul_matches_oracle(k):
    assert SECP256K1.g_mul(k) == ref.ref_mul(k, ref.G)


@settings(max_examples=40, deadline=None)
@given(k=scalars, pt=points)
def test_mul_matches_oracle(k, pt):
    assert SECP256K1.mul(k, pt) == ref.ref_mul(k, pt)


@settings(max_examples=40, deadline=None)
@given(p1=points, p2=points)
def test_add_matches_oracle(p1, p2):
    assert SECP256K1.add(p1, p2) == ref.ref_add(p1, p2)


@settings(max_examples=20, deadline=None)
@given(pt=points)
def test_add_special_cases(pt):
    neg = SECP256K1.negate(pt)
    assert SECP256K1.add(pt, pt) == ref.ref_add(pt, pt)
    assert SECP256K1.add(pt, neg) is None
    assert SECP256K1.add(pt, None) == pt
    assert SECP256K1.add(None, pt) == pt
    assert SECP256K1.mul(2, pt) == SECP256K1.add(pt, pt)
    assert SECP256K1.mul(N - 1, pt) == neg


def test_add_identity_with_identity():
    assert SECP256K1.add(None, None) is None
    assert SECP256K1.negate(None) is None
    assert SECP256K1.mul(5, None) is None


@pytest.mark.parametrize("k", EDGE_SCALARS, ids=hex)
def test_edge_scalars(k):
    pt = ref.ref_mul(0xC0FFEE, ref.G)
    assert SECP256K1.g_mul(k) == ref.ref_mul(k, ref.G)
    assert SECP256K1.mul(k, pt) == ref.ref_mul(k, pt)
    assert SECP256K1.mul(k, ref.G) == ref.ref_mul(k, ref.G)


def test_scalars_reduced_mod_n():
    pt = ref.ref_mul(7, ref.G)
    assert SECP256K1.g_mul(N) is None
    assert SECP256K1.g_mul(N + 3) == ref.ref_mul(3, ref.G)
    assert SECP256K1.mul(N + 3, pt) == ref.ref_mul(3, pt)
    assert SECP256K1.mul(-1, pt) == SECP256K1.negate(pt)


def test_pinned_scalars_have_negative_glv_halves():
    k1, _ = SECP256K1._split(NEGATIVE_K1)
    _, k2 = SECP256K1._split(NEGATIVE_K2)
    b1, b2 = SECP256K1._split(NEGATIVE_BOTH)
    assert k1 < 0 and k2 < 0 and b1 < 0 and b2 < 0
    for k in EDGE_SCALARS:
        h1, h2 = SECP256K1._split(k)
        assert (h1 + h2 * LAM - k) % N == 0
        assert max(abs(h1), abs(h2)).bit_length() <= 129


# -- encodings --------------------------------------------------------------------


def test_decode_rejects_unreduced_x():
    """02 || (1 + p) names the same x as 02 || 1 but is not canonical."""
    canonical = SECP256K1.decode_point(b"\x02" + (1).to_bytes(32, "big"))
    assert canonical[0] == 1
    with pytest.raises(ValueError):
        SECP256K1.decode_point(b"\x02" + (1 + ref.P).to_bytes(32, "big"))


# -- construction -----------------------------------------------------------------


def test_copy_with_endomorphism_matches():
    curve = secp256k1()
    for k in (NEGATIVE_BOTH, N - 2):
        assert curve.mul(k, ref.G) == SECP256K1.g_mul(k)


def test_wrong_beta_rejected():
    with pytest.raises(ValueError):
        secp256k1(beta=BETA * BETA % ref.P)  # the other cube root of unity
    with pytest.raises(ValueError):
        secp256k1(beta=BETA + 1)


def test_wrong_endomorphism_parameters_rejected():
    with pytest.raises(ValueError):
        secp256k1(lam=LAM * LAM % N)
    with pytest.raises(ValueError):
        secp256k1(basis=(BASIS[0], (BASIS[1][0] + 1, BASIS[1][1])))
    with pytest.raises(ValueError):  # determinant -n
        secp256k1(basis=(BASIS[1], BASIS[0]))


def test_unsupported_curves_rejected():
    with pytest.raises(ValueError):
        CurveGroup("a3", **{**ref.TOY_PARAMS, "a": 3})
    # a prime order up to 32 makes the comb entry n * G the identity
    for n in (13, 31):
        with pytest.raises(ValueError, match="comb"):
            CurveGroup(f"n{n}", **{**ref.TOY_PARAMS, "n": n})


def test_toy_wrong_beta_rejected():
    with pytest.raises(ValueError):  # the other cube root of unity
        CurveGroup("toy", **{**ref.TOY_PARAMS, "beta": 196})


# -- toy group, exhaustively ------------------------------------------------------


def test_toy_glv_halves_are_short(toy_curve):
    """Every toy scalar splits into two halves of at most 4 bits, of every sign pairing."""
    halves = [toy_curve._split(k) for k in range(toy_curve.n)]
    for k, (k1, k2) in enumerate(halves):
        assert (k1 + k2 * ref.TOY_LAM - k) % ref.TOY_N == 0
        assert max(abs(k1), abs(k2)) < 16
    assert {(k1 < 0, k2 < 0) for k1, k2 in halves if k1 and k2} == {
        (False, False), (False, True), (True, False), (True, True)
    }


def test_toy_mul_every_scalar_and_point(toy_curve):
    for pt in ref.toy_all_points():
        for k in range(toy_curve.n + 2):
            assert toy_curve.mul(k, pt) == ref.ref_mul(k, pt, ref.TOY_P, ref.TOY_N), (k, pt)


def test_toy_g_mul_every_scalar(toy_curve):
    for k in range(toy_curve.n + 2):
        assert toy_curve.g_mul(k) == ref.ref_mul(k, ref.TOY_G, ref.TOY_P, ref.TOY_N), k


def test_toy_add_every_pair(toy_curve):
    all_points = ref.toy_all_points()
    for p1 in all_points:
        for p2 in all_points:
            assert toy_curve.add(p1, p2) == ref.ref_add(p1, p2, ref.TOY_P)


# -- fixed-base combs ---------------------------------------------------------------


def test_generator_comb_is_43_rows_of_32_points():
    comb = SECP256K1._comb
    assert [len(row) for row in comb] == [32] * 43
    for i, d in ((0, 1), (0, 32), (1, 17), (42, 32)):
        assert comb[i][d - 1] == ref.ref_mul(d * 64**i, ref.G)


@pytest.mark.parametrize("bits", [2, 3, 4, 5, 6])
def test_toy_comb_every_width_base_and_scalar(toy_curve, bits):
    """The one builder and walker, at full-length rows, against the oracle:
    the generator and several other bases, every scalar below n."""
    n = toy_curve.n
    rows = (n.bit_length() + bits) // bits
    bases = [toy_curve.g] + [toy_curve.g_mul(a) for a in (2, 57, ref.TOY_LAM, n - 1)]
    for base in bases:
        comb = toy_curve._build_comb(base, bits, rows)
        assert [len(row) for row in comb] == [1 << (bits - 1)] * rows
        for k in range(n):
            got = toy_curve._to_affine(toy_curve._comb_walk((0, 1, 0, 0), comb, bits, k))
            assert got == ref.ref_mul(k, base, ref.TOY_P, ref.TOY_N), (base, k)


def test_toy_fixed_base_every_point_and_scalar(toy_curve):
    """Every base and every scalar up to 2n + 1 (so 0, n - 1 and the multiples
    of n), over GLV halves of every sign pairing."""
    n = toy_curve.n
    signs = {(k1 < 0, k2 < 0) for k1, k2 in map(toy_curve._split, range(n)) if k1 and k2}
    assert len(signs) == 4
    for base in ref.toy_all_points()[1:]:
        table = toy_curve.fixed_base(base)
        for k in range(2 * n + 2):
            assert table(k) == ref.ref_mul(k, base, ref.TOY_P, ref.TOY_N), (base, k)


def test_fixed_base_rejects_the_identity(toy_curve):
    with pytest.raises(ValueError):
        toy_curve.fixed_base(None)


@settings(max_examples=15, deadline=None)
@given(pt=points, ks=st.lists(scalars, min_size=1, max_size=8))
def test_fixed_base_matches_mul(pt, ks):
    table = SECP256K1.fixed_base(pt)
    for k in ks:
        assert table(k) == SECP256K1.mul(k, pt)


def test_fixed_base_edge_scalars():
    pt = ref.ref_mul(0xC0FFEE, ref.G)
    table = SECP256K1.fixed_base(pt)
    for k in EDGE_SCALARS + [N, 2 * N, 5 * N + 1]:
        assert table(k) == ref.ref_mul(k, pt), hex(k)
    generator = SECP256K1.fixed_base(ref.G)
    for k in EDGE_SCALARS:
        assert generator(k) == SECP256K1.g_mul(k), hex(k)
