"""Short-Weierstrass group arithmetic with injectable curve parameters.

Points are affine ``(x, y)`` tuples and ``None`` is the identity element.
Only curves with ``a = 0`` (``y^2 = x^3 + b``, as secp256k1 is) are
supported.  Internally the arithmetic follows Bitcoin Core's libsecp256k1:

* Scalar multiplications accumulate in Jacobian coordinates ``(X, Y, Z)``
  and add affine table points by mixed Jacobian+affine addition.  Doubling
  uses the a = 0 formula.
* A fixed-base comb (``ecmult_gen``; Lim and Lee) of width ``w`` for a
  base ``B`` holds, for row ``i``, the affine points ``d * 2^(w*i) * B``
  with ``d = 1..2^(w-1)``.  Its rows cover only the length of a scalar's
  Gallant-Lambert-Vanstone halves ``k1 + k2 * lambda`` (the endomorphism
  below).  The walk recodes each half into signed digits in
  ``[1 - 2^(w-1), 2^(w-1)]`` and adds one entry per non-zero digit, with
  ``y`` negated for a negative digit or a negative half.  The ``lambda``
  half walks the same rows from the preimage of the accumulator under the
  endomorphism, which then maps the sum back: x times beta^2 before, x
  times beta after.  Additions only, no doublings.  One builder serves
  every comb, and two walkers: one scalar's and a batch's.
* ``g_mul`` walks the generator's comb: 8-bit rows (17 rows of 128 points
  on secp256k1), built at the first multiplication of G, not at import.
* The batch walker takes many scalars through one comb in lockstep, each
  with its own start point and two affine accumulators, one per GLV half;
  each row's additions share one batch inversion.  ``g_mul_many`` walks G's
  comb, beating one ``g_mul`` per scalar from about four scalars on, and
  ``mul_many(scalars, P)`` a 4-bit comb it builds for any other base P.
* ``lincomb(s, c, P)`` is ``s * G + c * P`` in one accumulator: the
  ``mul`` loop for ``c * P``, then G's comb walk for ``s``, then one
  inversion.  Schnorr verification uses it.
* ``mul`` runs one interleaved width-5 wNAF loop (``ecmult``) that adds the
  affine odd multiples ``P, 3P, ..., 15P``.  It first splits the scalar with
  the Gallant-Lambert-Vanstone endomorphism ``(x, y) -> (beta * x, y) =
  lambda * P`` into two halves of half the length and runs both in the same
  loop; the table for ``lambda * P`` is the table for ``P`` with every x
  multiplied by beta.
* Tables are summed on the isomorphic curve on which the step point is
  affine (libsecp256k1's "effective affine"), then brought to affine form
  with one inversion: a Montgomery batch inversion over their Z ratios.

Every public result is the canonical affine point, so results do not depend
on the internal representation.  The protocol always runs on
:data:`SECP256K1`; tests additionally exercise a tiny brute-forceable group
to cross-check the arithmetic exhaustively.
"""

from __future__ import annotations

from functools import cached_property
from itertools import zip_longest
from typing import Optional, Sequence, Tuple

Point = Optional[Tuple[int, int]]

_JINF = (0, 1, 0, 0)
_COMB_BITS = 8  # width of the generator's comb
_TABLE_BITS = 4  # width of a mul_many comb
_WNAF_BITS = 5
_WNAF_TABLE = 1 << (_WNAF_BITS - 2)  # odd multiples P, 3P, ..., 15P


def _comb_rows(scalar_bits: int, bits: int) -> int:
    """Rows of a width-`bits` comb for scalars of `scalar_bits` bits.

    The recoding carries at most one bit past the scalar, so the rows cover
    ``scalar_bits + 1`` bits and the carry out of the top row is zero.
    """
    return (scalar_bits + bits) // bits


def _signed_digits(k: int, bits: int) -> list[int]:
    """Signed comb digits of ``k`` in ``[1 - 2^(bits-1), 2^(bits-1)]``.

    Least significant first, ending at the last non-zero digit.  A window
    above ``2^(bits-1)`` becomes ``window - 2^bits`` and carries one into
    the next.  A negative ``k`` gets the digits of ``-k``, negated.
    """
    if k < 0:
        return [-digit for digit in _signed_digits(-k, bits)]
    size = 1 << (bits - 1)
    mask = (1 << bits) - 1
    digits = []
    while k:
        digit = k & mask
        k >>= bits
        if digit > size:
            digit -= 1 << bits
            k += 1
        digits.append(digit)
    return digits


def _wnaf(k: int) -> list[int]:
    """Width-5 NAF digits of ``k`` (either sign), least significant first."""
    digits = []
    while k:
        if k & 1:
            d = k & ((1 << _WNAF_BITS) - 1)
            if d >> (_WNAF_BITS - 1):
                d -= 1 << _WNAF_BITS
            k -= d
        else:
            d = 0
        digits.append(d)
        k >>= 1
    return digits


class CurveGroup:
    """y^2 = x^3 + b over GF(p) with generator of prime order n.

    ``beta``, ``lam`` and ``basis`` describe the GLV endomorphism:
    ``(beta * x, y) = lam * (x, y)``, and ``basis`` is two short vectors
    ``(a1, b1), (a2, b2)`` with ``a + b * lam = 0 (mod n)`` and
    ``a1 * b2 - a2 * b1 = n``.
    """

    def __init__(self, name: str, p: int, a: int, b: int, n: int, gx: int, gy: int,
                 beta: int, lam: int, basis: Tuple[Tuple[int, int], Tuple[int, int]]):
        if p % 4 != 3:
            raise ValueError("square roots require p % 4 == 3")
        if a % p:
            raise ValueError("only curves with a = 0 are supported")
        # a prime n above 128 divides no d * 2^j with d <= 128: no entry of a
        # comb of width up to 8 is the identity, and no step d * B + B or
        # 2 * (2^(w-1) * B) of a table build lands on it
        if n <= 1 << (_COMB_BITS - 1):
            raise ValueError("group order must exceed the comb's digits")
        (a1, b1), (a2, b2) = basis
        if (a1 + b1 * lam) % n or (a2 + b2 * lam) % n or a1 * b2 - a2 * b1 != n:
            raise ValueError("basis must be a + b * lam = 0 (mod n) vectors of determinant n")
        self.name = name
        self.p = p
        self.b = b % p
        self.n = n
        self.g: Point = (gx, gy)
        self.coord_bytes = (p.bit_length() + 7) // 8
        self.scalar_bytes = (n.bit_length() + 7) // 8
        self._beta = beta % p
        self._basis = (a1, b1, a2, b2)
        # _split's rounding keeps each half below half the basis vectors'
        # summed components
        self._half_bits = (max(abs(a1) + abs(a2), abs(b1) + abs(b2)) // 2).bit_length()
        # checked by plain double-and-add: no comb, and not through the
        # endomorphism being checked
        lam_g = _JINF
        for bit in bin(lam % n)[2:]:
            lam_g = self._double(lam_g)
            if bit == "1":
                lam_g = self._madd(lam_g, self.g)
        if self._to_affine(lam_g) != (beta * gx % p, gy):
            raise ValueError("lam * G != (beta * gx, gy)")

    def __repr__(self) -> str:
        return f"CurveGroup({self.name})"

    # -- Jacobian internals --------------------------------------------------
    #
    # A Jacobian point is ``(X, Y, Z, ratio)``: ``(X / Z^2, Y / Z^3)`` in
    # affine form, and ``ratio`` is Z divided by the Z of the point it was
    # computed from.  Table building needs the ratios; the loops ignore them.

    def _double(self, pt):
        """2 * pt for a = 0; the identity (Z = 0) stays the identity."""
        x, y, z, _ = pt
        p = self.p
        yy = y * y % p
        s = 4 * x * yy % p
        m = 3 * x * x % p
        x3 = (m * m - 2 * s) % p
        return (x3, (m * (s - x3) - 8 * yy * yy) % p, 2 * y * z % p, 2 * y)

    def _madd(self, pt, q):
        """Mixed addition: Jacobian ``pt`` plus affine ``q``."""
        x1, y1, z1, _ = pt
        x2, y2 = q
        if z1 == 0:
            return (x2, y2, 1, 1)
        p = self.p
        zz = z1 * z1 % p
        h = (x2 * zz - x1) % p
        r = (y2 * zz % p * z1 - y1) % p
        if h == 0:
            return self._double(pt) if r == 0 else _JINF
        hh = h * h % p
        hhh = hh * h % p
        v = x1 * hh % p
        x3 = (r * r - hhh - 2 * v) % p
        return (x3, (r * (v - x3) - y1 * hhh) % p, z1 * h % p, h)

    def _to_affine(self, pt) -> Point:
        return self._chain_to_affine([pt], pt[2])[0] if pt[2] else None

    def _chain_to_affine(self, chain, last_z):
        """Replace a chain of points by their affine forms, with one inversion.

        Each point's Z is the Z of the point before it times its ratio, and
        ``last_z`` is the Z of the last point.  The Z values are then the
        prefix products of Montgomery's batch inversion of the ratios:
        invert ``last_z`` and walk back multiplying by ratios.  The points'
        ``(X, Y)`` may be taken on a curve isomorphic to this one as long as
        the chained Z values map them here.
        """
        p = self.p
        inv = pow(last_z, -1, p)
        for i in range(len(chain) - 1, -1, -1):
            x, y, _, ratio = chain[i]
            inv2 = inv * inv % p
            chain[i] = (x * inv2 % p, y * inv2 % p * inv % p)
            inv = inv * ratio % p
        return chain

    # A Jacobian step (X, Y, Z) is the affine point (X, Y) of the isomorphic
    # curve y^2 = x^3 + b * Z^6, to which (x, y, z) maps as (x, y, z * Z).
    # The a = 0 formulas do not involve b, so a table of sums of a step is
    # built there by mixed addition ("effective affine" in libsecp256k1).

    def _build_comb(self, base, bits: int):
        """``comb[i][d - 1] = d * 2^(bits*i) * base`` for ``d = 1..2^(bits-1)``, affine.

        The rows cover the GLV halves' length.  Row i sums its base
        ``B = 2^(bits*i) * base`` on the curve where B is affine, up to
        ``2^(bits-1) * B``, and doubles that into the next row's base;
        ``zbase`` is B's Z here.
        """
        p = self.p
        rows = _comb_rows(self._half_bits, bits)
        size = 1 << (bits - 1)
        chain = []
        point = (*base, 1, 1)
        zbase = 1
        for _ in range(rows):
            step = point[:2]
            point = (*step, 1, point[3])
            for _ in range(size - 1):
                chain.append(point)
                point = self._madd(point, step)
            chain.append(point)
            point = self._double(point)
            zbase = zbase * point[2] % p
        chain.append(point)
        flat = self._chain_to_affine(chain, zbase)
        return [flat[i:i + size] for i in range(0, len(flat) - 1, size)]

    @cached_property
    def _comb(self):
        """The generator's comb, built at the first multiplication of G."""
        return self._build_comb(self.g, _COMB_BITS)

    def _comb_walk(self, acc, comb, bits: int, k: int):
        """Jacobian ``acc + k * B`` for ``comb = _build_comb(B, bits)``.

        ``k`` splits into GLV halves ``k1 + k2 * lam``.  ``k2`` walks the
        rows from the preimage of ``acc`` under the endomorphism, whose
        image is then ``acc + k2 * lam * B``, and ``k1`` walks on from
        there.  A half's sign is in its digits.
        """
        p, beta = self.p, self._beta
        k1, k2 = self._split(k % self.n)
        x, y, z, ratio = acc
        acc = self._walk_rows((x * beta * beta % p, y, z, ratio), comb, bits, k2)
        x, y, z, ratio = acc
        return self._walk_rows((x * beta % p, y, z, ratio), comb, bits, k1)

    def _walk_rows(self, acc, comb, bits: int, k: int):
        """Jacobian ``acc + k * B``, ``k`` of either sign below the rows' length."""
        p, madd = self.p, self._madd
        for row, digit in zip(comb, _signed_digits(k, bits)):
            if digit > 0:
                acc = madd(acc, row[digit - 1])
            elif digit:
                x, y = row[-digit - 1]
                acc = madd(acc, (x, p - y))
        return acc

    def _add_each(self, acc, adds):
        """``acc[i] += q`` for each ``(i, q)`` of `adds` (distinct ``i``), affine.

        The additions share one inversion: a Montgomery batch inversion over
        their x differences.  An accumulator that is the identity takes
        ``q`` as it is; one whose x equals ``q``'s (a doubling, or a sum that
        is the identity) goes through `add` alone.
        """
        p = self.p
        sums = []  # (element, x2, y2, accumulator) of each sum to invert for
        prefix = []  # prefix[j]: the product of the first j x differences
        product = 1
        for i, (x2, y2) in adds:
            a = acc[i]
            if a is None:
                acc[i] = (x2, y2)
            elif a[0] == x2:
                acc[i] = self.add(a, (x2, y2))
            else:
                sums.append((i, x2, y2, a))
                prefix.append(product)
                product = product * (x2 - a[0]) % p
        if not sums:
            return
        # one inversion of the whole product; walking back, inv inverts the
        # product of the first j + 1 differences, so inv * prefix[j] inverts
        # difference j
        inv = pow(product, -1, p)
        for j in range(len(sums) - 1, -1, -1):
            i, x2, y2, (x1, y1) = sums[j]
            slope = (y2 - y1) * inv * prefix[j] % p
            inv = inv * (x2 - x1) % p
            x3 = (slope * slope - x1 - x2) % p
            acc[i] = (x3, (slope * (x1 - x3) - y1) % p)

    def _walk_many(self, comb, bits: int, scalars, starts) -> list[Point]:
        """``[start + k * B ...]`` for ``comb = _build_comb(B, bits)``, in lockstep.

        Each scalar has two affine accumulators, its start plus ``k1 * B``
        and ``k2 * B``.  Each row's additions to all of them share one
        inversion, and a last round adds each ``k2 * B``'s image under the
        endomorphism, ``k2 * lam * B``.
        """
        p, n, m = self.p, self.n, len(scalars)
        halves = [self._split(k % n) for k in scalars]
        digits = [_signed_digits(k1, bits) for k1, _ in halves]
        digits += [_signed_digits(k2, bits) for _, k2 in halves]
        acc = list(starts) + [None] * m
        for row, column in zip(comb, zip_longest(*digits, fillvalue=0)):
            self._add_each(acc, [
                (i, row[d - 1] if d > 0 else self.negate(row[-d - 1]))
                for i, d in enumerate(column) if d
            ])
        beta = self._beta
        self._add_each(acc, [
            (i, (beta * q[0] % p, q[1])) for i, q in enumerate(acc[m:]) if q is not None
        ])
        return acc[:m]

    def _odd_multiples(self, pt):
        """Affine ``P, 3P, ..., 15P``: sums of ``2P`` on the curve where it is affine."""
        p = self.p
        x, y = pt
        two = self._double((x, y, 1, 1))
        zz = two[2] * two[2] % p
        point = (x * zz % p, y * zz % p * two[2] % p, 1, 1)
        step = two[:2]
        chain = [point]
        for _ in range(_WNAF_TABLE - 1):
            point = self._madd(point, step)
            chain.append(point)
        return self._chain_to_affine(chain, point[2] * two[2] % p)

    def _split(self, k: int) -> Tuple[int, int]:
        """GLV halves ``(k1, k2)``, either sign, with ``k1 + k2 * lam = k (mod n)``."""
        a1, b1, a2, b2 = self._basis
        n = self.n
        c1 = (b2 * k + (n >> 1)) // n
        c2 = (-b1 * k + (n >> 1)) // n
        return k - c1 * a1 - c2 * a2, -c1 * b1 - c2 * b2

    def _wnaf_mul(self, k: int, pt: Point):
        """Jacobian ``k * pt``: GLV split, interleaved wNAF."""
        k %= self.n
        if k == 0 or pt is None:
            return _JINF
        p = self.p
        beta = self._beta
        odd = self._odd_multiples(pt)
        k1, k2 = self._split(k)
        # adds[i]: the table points added after the doubling for bit i
        adds = []
        for scalar, table in ((k1, odd), (k2, [(beta * x % p, y) for x, y in odd])):
            # lookup[d] for signed odd d; negative d index from the end
            lookup = [None] * (1 << _WNAF_BITS)
            for j, (x, y) in enumerate(table):
                lookup[2 * j + 1] = (x, y)
                lookup[-2 * j - 1] = (x, p - y)
            digits = _wnaf(scalar)
            adds += [[] for _ in range(len(digits) - len(adds))]
            for i, d in enumerate(digits):
                if d:
                    adds[i].append(lookup[d])
        acc = _JINF
        double, madd = self._double, self._madd
        for points in reversed(adds):
            acc = double(acc)
            for q in points:
                acc = madd(acc, q)
        return acc

    # -- public API ----------------------------------------------------------

    def add(self, p1: Point, p2: Point) -> Point:
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        p = self.p
        x1, y1 = p1
        x2, y2 = p2
        if (x1 - x2) % p == 0:
            if (y1 + y2) % p == 0:
                return None
            slope = 3 * x1 * x1 * pow(2 * y1, -1, p) % p
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (slope * slope - x1 - x2) % p
        return (x3, (slope * (x1 - x3) - y1) % p)

    def negate(self, pt: Point) -> Point:
        if pt is None:
            return None
        return (pt[0], (self.p - pt[1]) % self.p)

    def mul(self, k: int, pt: Point) -> Point:
        """Generic scalar multiplication: GLV split, interleaved wNAF."""
        return self._to_affine(self._wnaf_mul(k, pt))

    def g_mul(self, k: int) -> Point:
        """Fixed-base multiplication of the generator via its signed comb."""
        return self._to_affine(self._comb_walk(_JINF, self._comb, _COMB_BITS, k))

    def lincomb(self, s: int, c: int, pt: Point) -> Point:
        """``s * G + c * pt`` in one accumulator, with one inversion.

        ``mul``'s loop computes ``c * pt``, and G's comb walk for ``s``
        continues from that Jacobian point.
        """
        return self._to_affine(self._comb_walk(self._wnaf_mul(c, pt), self._comb, _COMB_BITS, s))

    def g_mul_many(self, scalars: Sequence[int], starts: Sequence[Point]) -> list[Point]:
        """``[start + k * G for k, start in zip(scalars, starts)]`` in one comb walk."""
        if len(scalars) != len(starts):
            raise ValueError("one start per scalar")
        return self._walk_many(self._comb, _COMB_BITS, scalars, starts)

    def mul_many(self, scalars: Sequence[int], base: Point) -> list[Point]:
        """``[k * base for k in scalars]`` through one comb for `base`, built here.

        The build costs about 2.3 ``mul`` and each scalar's walk about 0.3
        of one, so 15 scalars take under half the time of 15 ``mul``.
        """
        if base is None:
            raise ValueError("the identity has no table")
        comb = self._build_comb(base, _TABLE_BITS)
        return self._walk_many(comb, _TABLE_BITS, scalars, [None] * len(scalars))

    def lift_x(self, x: int, parity: int) -> Point:
        """Recover the point with the given x and y-parity, or None."""
        p = self.p
        rhs = (x * x * x + self.b) % p
        y = pow(rhs, (p + 1) // 4, p)
        if y * y % p != rhs:
            return None
        if y & 1 != parity & 1:
            y = p - y
        return (x, y)

    def encode_point(self, pt: Point) -> bytes:
        """Compressed encoding: 0x02/0x03 parity byte plus big-endian x."""
        if pt is None:
            raise ValueError("cannot encode the identity point")
        prefix = b"\x02" if pt[1] % 2 == 0 else b"\x03"
        return prefix + pt[0].to_bytes(self.coord_bytes, "big")

    def decode_point(self, data: bytes) -> Point:
        if len(data) != 1 + self.coord_bytes or data[0] not in (2, 3):
            raise ValueError("malformed compressed point")
        x = int.from_bytes(data[1:], "big")
        if x >= self.p:
            raise ValueError("x is not a canonical field element")
        pt = self.lift_x(x, data[0] & 1)
        if pt is None:
            raise ValueError("x is not on the curve")
        return pt

    def encode_scalar(self, k: int) -> bytes:
        return (k % self.n).to_bytes(self.scalar_bytes, "big")


SECP256K1 = CurveGroup(
    name="secp256k1",
    p=2**256 - 2**32 - 977,
    a=0,
    b=7,
    n=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
    gx=0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    gy=0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
    beta=0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE,
    lam=0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72,
    basis=(
        (0x3086D221A7D46BCDE86C90E49284EB15, -0xE4437ED6010E88286F547FA90ABFE4C3),
        (0x114CA50F7A8E2F3F657C1108D9D44CFD8, 0x3086D221A7D46BCDE86C90E49284EB15),
    ),
)
