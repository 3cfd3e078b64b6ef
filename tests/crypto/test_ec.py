"""Elliptic-curve group law and ECDHE tests."""

import pytest

from repro.crypto import ec
from repro.crypto.rng import DeterministicRandom

ALL_CURVES = [ec.P256, ec.P224, ec.SECP128R1, ec.SECP160R1, ec.TINY]


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
def test_base_point_on_curve(curve):
    assert ec.is_on_curve(curve, ec.base_point(curve))


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
def test_order_annihilates_base_point(curve):
    assert ec.scalar_mult(curve, curve.n, ec.base_point(curve)) is None


def test_point_addition_identity():
    g = ec.base_point(ec.TINY)
    assert ec.point_add(ec.TINY, g, None) == g
    assert ec.point_add(ec.TINY, None, g) == g
    assert ec.point_add(ec.TINY, None, None) is None


def test_point_plus_negation_is_infinity():
    g = ec.base_point(ec.TINY)
    assert ec.point_add(ec.TINY, g, ec.point_neg(ec.TINY, g)) is None


def test_addition_commutes():
    g = ec.base_point(ec.TINY)
    g2 = ec.point_double(ec.TINY, g)
    assert ec.point_add(ec.TINY, g, g2) == ec.point_add(ec.TINY, g2, g)


def test_addition_associates():
    curve = ec.TINY
    g = ec.base_point(curve)
    p2 = ec.scalar_mult(curve, 2, g)
    p3 = ec.scalar_mult(curve, 3, g)
    left = ec.point_add(curve, ec.point_add(curve, g, p2), p3)
    right = ec.point_add(curve, g, ec.point_add(curve, p2, p3))
    assert left == right


def test_double_equals_add_to_self():
    g = ec.base_point(ec.TINY)
    assert ec.point_double(ec.TINY, g) == ec.point_add(ec.TINY, g, g)


def test_scalar_mult_matches_repeated_addition():
    curve = ec.TINY
    g = ec.base_point(curve)
    acc = None
    for k in range(1, 40):
        acc = ec.point_add(curve, acc, g)
        assert ec.scalar_mult(curve, k, g) == acc


def test_scalar_mult_distributes():
    curve = ec.TINY
    g = ec.base_point(curve)
    for a, b in [(2, 3), (17, 900), (curve.n - 1, 1), (123, 456)]:
        lhs = ec.scalar_mult(curve, a + b, g)
        rhs = ec.point_add(
            curve, ec.scalar_mult(curve, a, g), ec.scalar_mult(curve, b, g)
        )
        assert lhs == rhs


@pytest.mark.parametrize("curve", [ec.SECP128R1, ec.P256, ec.TINY], ids=lambda c: c.name)
def test_fixed_base_matches_generic(curve):
    rng = DeterministicRandom(77)
    for _ in range(10):
        k = rng.randrange(1, curve.n)
        assert ec.scalar_mult_base(curve, k) == ec.scalar_mult(
            curve, k, ec.base_point(curve)
        )


def test_scalar_mult_zero_and_infinity():
    assert ec.scalar_mult(ec.TINY, 0, ec.base_point(ec.TINY)) is None
    assert ec.scalar_mult(ec.TINY, 5, None) is None
    assert ec.scalar_mult_base(ec.TINY, 0) is None


def test_scalar_mult_rejects_off_curve_point():
    with pytest.raises(ec.NotOnCurveError):
        ec.scalar_mult(ec.TINY, 3, (1, 1))


@pytest.mark.parametrize("curve", [ec.SECP128R1, ec.P256], ids=lambda c: c.name)
def test_ecdh_agreement(curve):
    rng = DeterministicRandom(5)
    alice = ec.generate_keypair(curve, rng)
    bob = ec.generate_keypair(curve, rng)
    assert alice.shared_secret(bob.public) == bob.shared_secret(alice.public)
    assert alice.shared_secret_bytes(bob.public) == bob.shared_secret_bytes(alice.public)


def test_shared_secret_bytes_width():
    rng = DeterministicRandom(6)
    alice = ec.generate_keypair(ec.SECP128R1, rng)
    bob = ec.generate_keypair(ec.SECP128R1, rng)
    assert len(alice.shared_secret_bytes(bob.public)) == ec.SECP128R1.coordinate_bytes


def test_shared_secret_rejects_off_curve_peer():
    rng = DeterministicRandom(7)
    alice = ec.generate_keypair(ec.SECP128R1, rng)
    with pytest.raises(ec.NotOnCurveError):
        alice.shared_secret((1, 1))


def test_point_encoding_roundtrip():
    rng = DeterministicRandom(8)
    pair = ec.generate_keypair(ec.P256, rng)
    encoded = ec.encode_point(ec.P256, pair.public)
    assert encoded[0] == 0x04
    assert len(encoded) == 65
    assert ec.decode_point(ec.P256, encoded) == pair.public


def test_decode_point_rejects_malformed():
    with pytest.raises(ValueError):
        ec.decode_point(ec.P256, b"\x04" + bytes(10))
    with pytest.raises(ValueError):
        ec.decode_point(ec.P256, b"\x02" + bytes(64))  # compressed unsupported


def test_decode_point_rejects_off_curve():
    bad = b"\x04" + bytes(31) + b"\x01" + bytes(31) + b"\x01"
    with pytest.raises(ec.NotOnCurveError):
        ec.decode_point(ec.P256, bad)


def test_named_curve_registry_roundtrip():
    for name, curve_id in ec.NAMED_CURVE_IDS.items():
        assert ec.NAMED_CURVE_BY_ID[curve_id] == name
        assert name in ec.CURVES_BY_NAME


def test_tiny_curve_exhaustive_group_order():
    """Every non-identity point of the tiny curve has prime order n."""
    curve = ec.TINY
    g = ec.base_point(curve)
    # Walk a handful of points; multiply each by n.
    for k in (1, 2, 3, 100, 9850):
        point = ec.scalar_mult(curve, k, g)
        assert ec.scalar_mult(curve, curve.n, point) is None


# --- windowed-NAF scalar_mult edge cases -------------------------------

def _double_and_add(curve, k, point):
    """Reference scalar multiplication for cross-checking wNAF."""
    k %= curve.n
    result = None
    addend = point
    while k:
        if k & 1:
            result = ec.point_add(curve, result, addend)
        addend = ec.point_add(curve, addend, addend)
        k >>= 1
    return result


@pytest.mark.parametrize("curve", [ec.SECP128R1, ec.P256, ec.TINY], ids=lambda c: c.name)
def test_wnaf_matches_double_and_add(curve):
    rng = DeterministicRandom(314)
    g = ec.base_point(curve)
    point = ec.scalar_mult(curve, rng.randrange(1, curve.n), g)
    for _ in range(8):
        k = rng.randrange(1, curve.n)
        assert ec.scalar_mult(curve, k, point) == _double_and_add(curve, k, point)


@pytest.mark.parametrize("curve", [ec.SECP128R1, ec.P256, ec.TINY], ids=lambda c: c.name)
def test_scalar_n_minus_one_is_negation(curve):
    g = ec.base_point(curve)
    assert ec.scalar_mult(curve, curve.n - 1, g) == ec.point_neg(curve, g)


@pytest.mark.parametrize("curve", [ec.SECP128R1, ec.TINY], ids=lambda c: c.name)
def test_scalar_at_least_n_reduces_mod_n(curve):
    g = ec.base_point(curve)
    assert ec.scalar_mult(curve, curve.n, g) is None
    assert ec.scalar_mult(curve, curve.n + 1, g) == g
    assert ec.scalar_mult(curve, 2 * curve.n + 5, g) == ec.scalar_mult(curve, 5, g)


def test_wnaf_small_scalars_exhaustive():
    """Every small scalar on the tiny curve, against repeated addition."""
    curve = ec.TINY
    g = ec.base_point(curve)
    acc = None
    for k in range(1, 130):  # crosses several window widths
        acc = ec.point_add(curve, acc, g)
        assert ec.scalar_mult(curve, k, g) == acc


def test_wnaf_digit_expansion_reconstructs_scalar():
    rng = DeterministicRandom(2021)
    for _ in range(25):
        k = rng.randrange(1, 1 << 256)
        digits = ec._wnaf_digits(k, ec._WNAF_WIDTH)
        assert sum(d << i for i, d in enumerate(digits)) == k
        half = 1 << (ec._WNAF_WIDTH - 1)
        for digit in digits:
            assert digit == 0 or (digit % 2 == 1 and -half < digit < half)


def test_coordinate_bytes_precomputed():
    for curve in ALL_CURVES:
        assert curve.coordinate_bytes == (curve.p.bit_length() + 7) // 8
    assert ec.P256.a_is_minus_3
    assert not ec.TINY.a_is_minus_3


def test_shared_secret_memo_consistency():
    """Memoized shared secrets must equal fresh computations."""
    rng = DeterministicRandom(9)
    alice = ec.generate_keypair(ec.SECP128R1, rng)
    bob = ec.generate_keypair(ec.SECP128R1, rng)
    first = alice.shared_secret(bob.public)
    second = alice.shared_secret(bob.public)  # memo hit
    assert first == second
    direct = ec.scalar_mult(ec.SECP128R1, alice.private, bob.public)
    assert first == direct


# --- fixed-base comb: affine table, mixed addition, inversion ----------

def _fermat_from_jacobian(curve, jac):
    """The original normalisation by Fermat inverse ``z^(p-2)``."""
    x, y, z = jac
    if z == 0:
        return None
    z_inv = pow(z, curve.p - 2, curve.p)
    z_inv2 = z_inv * z_inv % curve.p
    return (x * z_inv2 % curve.p, y * z_inv2 * z_inv % curve.p)


def test_fixed_base_exhaustive_on_tiny():
    """Every scalar in [0, n+1], against repeated addition."""
    curve = ec.TINY
    g = ec.base_point(curve)
    acc = None
    for k in range(curve.n + 2):
        expected = acc if k < curve.n else (None if k == curve.n else g)
        assert ec.scalar_mult_base(curve, k) == expected, k
        assert ec.scalar_mult(curve, k, g) == expected, k
        acc = ec.point_add(curve, acc, g)


def test_mixed_addition_matches_jacobian_addition():
    """Jacobian + affine equals the general formula, ±P and O included.

    A reduced scalar never makes the comb add a point to itself or to
    its negation, so these branches are pinned here directly.
    """
    curve = ec.TINY
    g = ec.base_point(curve)
    points = [ec.scalar_mult(curve, k, g) for k in (1, 2, 5, 77, curve.n - 1)]
    for a in points + [None]:
        for b in points:
            for jac in (ec._to_jacobian(a), ec._jacobian_double(curve, ec._to_jacobian(a))):
                mixed = ec._jacobian_add_affine(curve, jac, b)
                general = ec._jacobian_add(curve, jac, ec._to_jacobian(b))
                assert ec._from_jacobian(curve, mixed) == ec._from_jacobian(curve, general)
    assert ec._from_jacobian(
        curve, ec._jacobian_add_affine(curve, ec._to_jacobian(g), ec.point_neg(curve, g))
    ) is None


def _window_boundary_scalars(curve):
    scalars = {curve.n - 1, curve.n, curve.n + 1}
    for j in range(1, (curve.n.bit_length() + 7) // 8 + 1):
        scalars.update((256**j, 256**j - 1))
    return sorted(scalars)


@pytest.mark.parametrize(
    "curve", list(ec.CURVES_BY_NAME.values()), ids=lambda c: c.name
)
def test_fixed_base_window_boundaries(curve):
    g = ec.base_point(curve)
    for k in _window_boundary_scalars(curve):
        expected = ec.scalar_mult(curve, k, g)
        assert ec.scalar_mult_base(curve, k) == expected, k
        assert _double_and_add(curve, k, g) == expected, k


@pytest.mark.parametrize(
    "curve", list(ec.CURVES_BY_NAME.values()), ids=lambda c: c.name
)
def test_fixed_base_table_is_affine_and_on_curve(curve):
    table = ec._fixed_base_table(curve)
    assert len(table) == (curve.n.bit_length() + 7) // 8
    for i, row in enumerate(table[:2]):
        assert row[0] is None and len(row) == 256
        assert row[1] == ec.scalar_mult(curve, 256**i, ec.base_point(curve))
        assert all(ec.is_on_curve(curve, point) for point in row[1:])


@pytest.mark.parametrize(
    "curve", list(ec.CURVES_BY_NAME.values()), ids=lambda c: c.name
)
def test_from_jacobian_matches_fermat_inverse(curve):
    rng = DeterministicRandom(99)
    g = ec.base_point(curve)
    assert ec._from_jacobian(curve, (1, 1, 0)) is None
    for _ in range(20):
        jac = ec._jacobian_double(curve, ec._to_jacobian(
            ec.scalar_mult(curve, rng.randrange(1, curve.n), g)))
        assert ec._from_jacobian(curve, jac) == _fermat_from_jacobian(curve, jac)
        # Any representative (λ²x, λ³y, λz) of the same point normalises alike.
        lam = rng.randrange(1, curve.p)
        scaled = (jac[0] * lam**2 % curve.p, jac[1] * lam**3 % curve.p,
                  jac[2] * lam % curve.p)
        assert ec._from_jacobian(curve, scaled) == _fermat_from_jacobian(curve, jac)
