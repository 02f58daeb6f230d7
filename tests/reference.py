"""Independent reference implementations used as test oracles.

Everything here is deliberately written from scratch with the simplest
possible algorithms (affine coordinates, right-to-left double-and-add,
direct hmac calls) so that it shares no code with the package under test.
Expected values in the test suite are computed with these functions and
frozen; the oracles stay as the second route for every cross-check.
"""

import hashlib
import hmac

# secp256k1 parameters
P = 2**256 - 2**32 - 977
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8
G = (GX, GY)

# tiny brute-forceable group: y^2 = x^3 + 7 over GF(211), prime order 199
TOY_P = 211
TOY_N = 199
TOY_G = (3, 178)
# its GLV endomorphism (14 * x, y) = 106 * (x, y), and a basis of the
# vectors (a, b) with a + 106 * b = 0 (mod 199)
TOY_BETA = 14
TOY_LAM = 106
TOY_BASIS = ((13, -2), (2, 15))
TOY_PARAMS = dict(p=TOY_P, a=0, b=7, n=TOY_N, gx=TOY_G[0], gy=TOY_G[1],
                  beta=TOY_BETA, lam=TOY_LAM, basis=TOY_BASIS)


def ref_add(p1, p2, p=P):
    """Affine point addition; None is the identity."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if p1 == p2:
        lam = (3 * x1 * x1) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def ref_mul(k, point, p=P, n=N):
    """Right-to-left double-and-add scalar multiplication."""
    k %= n
    result = None
    addend = point
    while k:
        if k & 1:
            result = ref_add(result, addend, p)
        addend = ref_add(addend, addend, p)
        k >>= 1
    return result


def ref_encode(point, p=P):
    """Compressed point encoding: parity prefix plus big-endian x."""
    size = (p.bit_length() + 7) // 8
    x, y = point
    prefix = b"\x02" if y % 2 == 0 else b"\x03"
    return prefix + x.to_bytes(size, "big")


def ref_index_bytes(index):
    return index.to_bytes(4, "big")


def ref_tweak(chain_code, parent_point, index, p=P, n=N):
    """Left 256 bits of HMAC-SHA512(chain_code, encode(parent) || index)."""
    msg = ref_encode(parent_point, p) + ref_index_bytes(index)
    digest = hmac.new(chain_code, msg, hashlib.sha512).digest()
    return int.from_bytes(digest[:32], "big") % n


def ref_child_public(parent_point, chain_code, index, p=P, n=N, g=G):
    t = ref_tweak(chain_code, parent_point, index, p, n)
    return ref_add(parent_point, ref_mul(t, g, p, n), p)


def ref_child_private(parent_priv, parent_point, chain_code, index, p=P, n=N):
    return (parent_priv + ref_tweak(chain_code, parent_point, index, p, n)) % n


def ref_point_hash(point, p=P, n=N):
    """Hash-to-scalar of a point: left 256 bits of HMAC-SHA512 keyed 'H*'."""
    digest = hmac.new(b"H*", ref_encode(point, p), hashlib.sha512).digest()
    return int.from_bytes(digest[:32], "big") % n


def ref_dh(priv, peer_point, p=P, n=N):
    shared = ref_mul(priv, peer_point, p, n)
    scalar_size = (n.bit_length() + 7) // 8
    return ref_point_hash(shared, p, n).to_bytes(scalar_size, "big")


def ref_mask(child_point, merchant_priv, p=P, n=N, g=G):
    """child + H*(m * child) * G, the merchant-side child-key mask."""
    shared = ref_mul(merchant_priv, child_point, p, n)
    h = ref_point_hash(shared, p, n)
    return ref_add(child_point, ref_mul(h, g, p, n), p)


def ref_keygen(seed, n=N, p=P, g=G):
    """Hash a seed down to a scalar, re-hashing on a zero reduction."""
    digest = hashlib.sha256(seed).digest()
    k = int.from_bytes(digest, "big") % n
    while k == 0:
        digest = hashlib.sha256(digest).digest()
        k = int.from_bytes(digest, "big") % n
    return k, ref_mul(k, g, p, n)


def toy_all_points():
    """Enumerate the full toy group by brute force."""
    points = [None]
    for x in range(TOY_P):
        rhs = (x * x * x + 7) % TOY_P
        y = pow(rhs, (TOY_P + 1) // 4, TOY_P)
        if y * y % TOY_P == rhs:
            points.append((x, y))
            if y != 0:
                points.append((x, TOY_P - y))
    return points


def ref_sha256d(data):
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()
