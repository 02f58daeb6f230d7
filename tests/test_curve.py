"""Curve arithmetic against the affine oracle in ``reference.py``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from refundsim.curve import SECP256K1, CurveGroup

SRC = str(Path(__file__).resolve().parents[1] / "src")
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

# whole-scalar digit patterns: every 6-bit window 32 or 33, and 64^i - 1
# (a carry through i windows)
ALL_DIGITS_32 = int("100000" * 42, 2)
ALL_DIGITS_33 = int("100001" * 42, 2)

# the generator comb's signed 8-bit digits of each GLV half: both halves
# with every window 128 (the largest digit, no carry), and both with every
# window 129 (-127 and a carry out of every window) and opposite signs
HALVES_DIGITS_128 = (int("10000000" * 15, 2) * (1 + LAM)) % N
HALVES_DIGITS_129 = (int("10000001" * 15, 2) * (1 - LAM)) % N
# a negative k1, and a positive k2, whose recoding carries into the top row
TOP_CARRY_K1 = 0x960D5A8F9A656AAFD14125844D25DEB354F46A6910ACFF0043892DFC254CB864
TOP_CARRY_K2 = 0xE4C6BF48B68DAEED2EDB62ABCDC03856C503BD67D0FD7D4252A03697BC78AABE

EDGE_SCALARS = [
    0, 1, 2, N - 1, N - 2, 2**128, LAM, N - LAM,
    NEGATIVE_K1, NEGATIVE_K2, NEGATIVE_BOTH,
    ALL_DIGITS_32, ALL_DIGITS_33, 64**1 - 1, 64**2 - 1, 64**21 - 1, 64**42 - 1,
    HALVES_DIGITS_128, HALVES_DIGITS_129, TOP_CARRY_K1, TOP_CARRY_K2,
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


def _first_comb_entry(k):
    """The point the walk adds at the generator comb's first row for ``k``."""
    k1, _ = SECP256K1._split(k % N)
    digit = abs(k1) & 255
    return SECP256K1.g_mul((digit if digit <= 128 else digit - 256) * (-1 if k1 < 0 else 1))


START_KINDS = ["none", "g", "neg-g", "first", "neg-first", "other"]


def _start(kind, k):
    """A start of the given kind; the first-entry kinds make the walk's first
    addition a doubling or a sum that is the identity."""
    first = _first_comb_entry(k)
    return {
        "none": None,
        "g": ref.G,
        "neg-g": SECP256K1.negate(ref.G),
        "first": first,
        "neg-first": SECP256K1.negate(first),
        "other": ref.ref_mul(0xC0FFEE, ref.G),
    }[kind]


@settings(max_examples=15, deadline=None)
@given(pairs=st.lists(st.tuples(scalars, st.sampled_from(START_KINDS)), max_size=10))
def test_g_mul_many_matches_g_mul(pairs):
    ks = [k for k, _kind in pairs]
    starts = [_start(kind, k) for k, kind in pairs]
    want = [SECP256K1.add(start, SECP256K1.g_mul(k)) for k, start in zip(ks, starts)]
    assert SECP256K1.g_mul_many(ks, starts) == want


def test_g_mul_many_edge_scalars():
    """Every edge scalar in one call, from the identity and from colliding starts."""
    assert SECP256K1.g_mul_many(EDGE_SCALARS, [None] * len(EDGE_SCALARS)) == [
        ref.ref_mul(k, ref.G) for k in EDGE_SCALARS
    ]
    for kind in ("g", "neg-g", "first", "neg-first"):
        starts = [_start(kind, k) for k in EDGE_SCALARS]
        assert SECP256K1.g_mul_many(EDGE_SCALARS, starts) == [
            ref.ref_add(start, ref.ref_mul(k, ref.G)) for k, start in zip(EDGE_SCALARS, starts)
        ], kind


def test_g_mul_many_empty_and_unpaired():
    assert SECP256K1.g_mul_many([], []) == []
    with pytest.raises(ValueError):
        SECP256K1.g_mul_many([1, 2], [None])


@settings(max_examples=25, deadline=None)
@given(s=scalars, c=scalars, pt=points)
def test_lincomb_matches_oracle(s, c, pt):
    assert SECP256K1.lincomb(s, c, pt) == ref.ref_add(ref.ref_mul(s, ref.G), ref.ref_mul(c, pt))


def test_lincomb_edge_scalars():
    """Every pair of edge scalars, the identity as the point, and sums that
    are the identity or a doubling."""
    a = 0xC0FFEE
    pt = SECP256K1.g_mul(a)
    for s in EDGE_SCALARS:
        for c in EDGE_SCALARS:
            want = SECP256K1.add(SECP256K1.g_mul(s), SECP256K1.mul(c, pt))
            assert SECP256K1.lincomb(s, c, pt) == want, (hex(s), hex(c))
        assert SECP256K1.lincomb(s, s, None) == SECP256K1.g_mul(s)
        assert SECP256K1.lincomb(N - s * a % N, s, pt) is None
        assert SECP256K1.lincomb(s * a, s, pt) == SECP256K1.g_mul(2 * s * a)


def test_scalars_reduced_mod_n():
    pt = ref.ref_mul(7, ref.G)
    assert SECP256K1.g_mul(N) is None
    assert SECP256K1.g_mul(N + 3) == ref.ref_mul(3, ref.G)
    assert SECP256K1.mul(N + 3, pt) == ref.ref_mul(3, pt)
    assert SECP256K1.mul(-1, pt) == SECP256K1.negate(pt)
    big = 2**300 + 7  # past the comb's rows unless reduced
    assert SECP256K1.g_mul_many([N, N + 3, big], [None, None, pt]) == [
        None, ref.ref_mul(3, ref.G), ref.ref_add(pt, ref.ref_mul(big % N, ref.G))
    ]


def test_pinned_scalars_have_negative_glv_halves():
    k1, _ = SECP256K1._split(NEGATIVE_K1)
    _, k2 = SECP256K1._split(NEGATIVE_K2)
    b1, b2 = SECP256K1._split(NEGATIVE_BOTH)
    assert k1 < 0 and k2 < 0 and b1 < 0 and b2 < 0
    window = int("10000000" * 15, 2)
    assert SECP256K1._split(HALVES_DIGITS_128) == (window, window)
    window = int("10000001" * 15, 2)
    assert SECP256K1._split(HALVES_DIGITS_129) == (window, -window)
    # the top row's digit is the carry out of the half's 16 windows
    rows = len(SECP256K1._comb)
    top1, _ = SECP256K1._split(TOP_CARRY_K1)
    _, top2 = SECP256K1._split(TOP_CARRY_K2)
    assert top1 < 0 < top2
    assert abs(top1) >> 8 * (rows - 1) == abs(top2) >> 8 * (rows - 1) == 0
    assert abs(top1) >> 8 * (rows - 2) > 128 and abs(top2) >> 8 * (rows - 2) > 128
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
    # a prime order up to 128 makes the 8-bit comb entry n * G the identity
    for n in (13, 31, 127):
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


def _toy_glv_signs(curve, ks):
    """The sign pairings of the GLV halves of `ks` with both halves non-zero."""
    return {(k1 < 0, k2 < 0) for k1, k2 in (curve._split(k % curve.n) for k in ks) if k1 and k2}


def test_toy_g_mul_every_scalar(toy_curve):
    """Every scalar up to 2n + 1, over GLV halves of every sign pairing."""
    ks = range(2 * toy_curve.n + 2)
    assert len(_toy_glv_signs(toy_curve, ks)) == 4
    for k in ks:
        assert toy_curve.g_mul(k) == ref.ref_mul(k, ref.TOY_G, ref.TOY_P, ref.TOY_N), k


def test_toy_g_mul_many_every_scalar_and_start(toy_curve):
    """One call over every scalar up to 2n + 1 from every start: repeated
    scalars, the identity, G and -G, and every comb entry, so that the
    walk's additions include doublings and sums that are the identity."""
    all_points = ref.toy_all_points()
    scalar_range = range(2 * toy_curve.n + 2)
    assert len(_toy_glv_signs(toy_curve, scalar_range)) == 4
    ks = [k for k in scalar_range for _start in all_points]
    starts = [start for _k in scalar_range for start in all_points]
    assert {None, toy_curve.g, toy_curve.negate(toy_curve.g)} <= set(starts)
    assert {pt for row in toy_curve._comb for pt in row} <= set(starts)
    got = toy_curve.g_mul_many(ks, starts)
    for k, start, pt in zip(ks, starts, got):
        want = ref.ref_add(start, ref.ref_mul(k, ref.TOY_G, ref.TOY_P, ref.TOY_N), ref.TOY_P)
        assert pt == want, (k, start)


def test_toy_lincomb_matches_g_mul_plus_mul(toy_curve):
    """``s * G + c * P`` over a scalar grid for several points, and every
    ``c`` with the ``s`` that makes the sum the identity."""
    n = toy_curve.n
    for a in (1, n - 1, 2, ref.TOY_LAM, 57, None):
        pt = None if a is None else toy_curve.g_mul(a)
        for c in range(0, n + 2, 11):
            for s in range(n + 2):
                want = toy_curve.add(toy_curve.g_mul(s), toy_curve.mul(c, pt))
                assert toy_curve.lincomb(s, c, pt) == want, (a, s, c)
        if a is not None:
            for c in range(n + 2):
                assert toy_curve.lincomb(-c * a, c, pt) is None, (a, c)


def test_toy_add_every_pair(toy_curve):
    all_points = ref.toy_all_points()
    for p1 in all_points:
        for p2 in all_points:
            assert toy_curve.add(p1, p2) == ref.ref_add(p1, p2, ref.TOY_P)


# -- fixed-base combs ---------------------------------------------------------------


def test_generator_comb_is_17_rows_of_128_points():
    """8-bit rows over the 128-bit GLV halves."""
    comb = SECP256K1._comb
    assert [len(row) for row in comb] == [128] * 17
    for i, d in ((0, 1), (0, 128), (1, 77), (15, 128), (16, 1), (16, 128)):
        assert comb[i][d - 1] == ref.ref_mul(d * 256**i, ref.G)


def test_generator_comb_is_built_once_at_first_use(monkeypatch):
    """Constructing a curve builds no table; the first multiplication of G
    builds the generator's comb, and every later one reuses it."""
    builds = []
    build = CurveGroup._build_comb

    def counting_build(curve, base, bits):
        builds.append((base, bits))
        return build(curve, base, bits)

    monkeypatch.setattr(CurveGroup, "_build_comb", counting_build)
    curve = secp256k1()
    assert builds == [] and "_comb" not in vars(curve)
    assert curve.g_mul(NEGATIVE_BOTH) == SECP256K1.g_mul(NEGATIVE_BOTH)
    assert builds == [(ref.G, 8)]
    curve.g_mul(5)
    curve.g_mul_many([1, N - 1], [None, ref.G])
    curve.lincomb(3, 4, ref.G)
    assert builds == [(ref.G, 8)]


def test_import_builds_no_table():
    """Importing the whole program multiplies nothing by G."""
    code = (
        "import refundsim.cli\n"
        "from refundsim.curve import SECP256K1\n"
        "assert '_comb' not in vars(SECP256K1)\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": SRC})


@pytest.mark.parametrize("bits", [2, 3, 4, 5, 6, 7, 8])
def test_toy_comb_every_width_base_and_scalar(toy_curve, bits):
    """The one builder and GLV walker at every width against the oracle:
    the generator and several other bases, every scalar up to n + 1."""
    n = toy_curve.n
    rows = (toy_curve._half_bits + bits) // bits
    bases = [toy_curve.g] + [toy_curve.g_mul(a) for a in (2, 57, ref.TOY_LAM, n - 1)]
    for base in bases:
        comb = toy_curve._build_comb(base, bits)
        assert [len(row) for row in comb] == [1 << (bits - 1)] * rows
        for k in range(n + 2):
            got = toy_curve._to_affine(toy_curve._comb_walk((0, 1, 0, 0), comb, bits, k))
            assert got == ref.ref_mul(k, base, ref.TOY_P, ref.TOY_N), (base, k)


def test_toy_fixed_base_every_point_and_scalar(toy_curve):
    """One `mul_many` batch per base: every base and every scalar up to
    2n + 1 (so 0, n - 1 and the multiples of n), over GLV halves of every
    sign pairing."""
    ks = range(2 * toy_curve.n + 2)
    assert len(_toy_glv_signs(toy_curve, ks)) == 4
    for base in ref.toy_all_points()[1:]:
        got = toy_curve.mul_many(ks, base)
        assert len(got) == len(ks)
        for k, pt in zip(ks, got):
            assert pt == ref.ref_mul(k, base, ref.TOY_P, ref.TOY_N), (base, k)


def test_fixed_base_rejects_the_identity(toy_curve):
    for ks in ([1, 2], []):
        with pytest.raises(ValueError):
            toy_curve.mul_many(ks, None)


def test_mul_many_builds_one_comb_per_batch(toy_curve, record_calls):
    """A batch builds its base's 4-bit comb once; an empty batch is empty."""
    builds = record_calls(CurveGroup, "_build_comb")
    base = toy_curve.g_mul(5)
    toy_curve.mul_many([1, 2, 3], base)
    assert builds == [(toy_curve, base, 4)]
    assert toy_curve.mul_many([], base) == []


@settings(max_examples=15, deadline=None)
@given(pt=points, ks=st.lists(scalars, min_size=1, max_size=8))
def test_fixed_base_matches_mul(pt, ks):
    assert SECP256K1.mul_many(ks, pt) == [SECP256K1.mul(k, pt) for k in ks]


def test_fixed_base_edge_scalars():
    pt = ref.ref_mul(0xC0FFEE, ref.G)
    ks = EDGE_SCALARS + [N, 2 * N, 5 * N + 1]
    for k, got in zip(ks, SECP256K1.mul_many(ks, pt), strict=True):
        assert got == ref.ref_mul(k, pt), hex(k)
    for k, got in zip(EDGE_SCALARS, SECP256K1.mul_many(EDGE_SCALARS, ref.G), strict=True):
        assert got == SECP256K1.g_mul(k), hex(k)
