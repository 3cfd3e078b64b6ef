"""Finite-field Diffie-Hellman tests."""

import pytest

from repro.crypto import dh
from repro.crypto.rng import DeterministicRandom


def test_shared_secret_agreement():
    rng = DeterministicRandom(1)
    alice = dh.generate_keypair(dh.TEST_GROUP, rng)
    bob = dh.generate_keypair(dh.TEST_GROUP, rng)
    assert alice.shared_secret(bob.public) == bob.shared_secret(alice.public)


def test_shared_secret_bytes_fixed_width():
    rng = DeterministicRandom(2)
    alice = dh.generate_keypair(dh.TEST_GROUP, rng)
    bob = dh.generate_keypair(dh.TEST_GROUP, rng)
    secret = alice.shared_secret_bytes(bob.public)
    assert len(secret) == dh.TEST_GROUP.element_bytes()


def test_fresh_keypairs_differ():
    rng = DeterministicRandom(3)
    a = dh.generate_keypair(dh.TEST_GROUP, rng)
    b = dh.generate_keypair(dh.TEST_GROUP, rng)
    assert a.private != b.private
    assert a.public != b.public


def test_public_value_consistency():
    rng = DeterministicRandom(4)
    pair = dh.generate_keypair(dh.TEST_GROUP, rng)
    assert pair.public == pow(dh.TEST_GROUP.generator, pair.private, dh.TEST_GROUP.prime)


@pytest.mark.parametrize("bad", [0, 1])
def test_degenerate_public_values_rejected(bad):
    with pytest.raises(dh.InvalidPublicValue):
        dh.validate_public_value(dh.TEST_GROUP, bad)


def test_p_minus_one_rejected():
    with pytest.raises(dh.InvalidPublicValue):
        dh.validate_public_value(dh.TEST_GROUP, dh.TEST_GROUP.prime - 1)


def test_out_of_range_public_rejected():
    with pytest.raises(dh.InvalidPublicValue):
        dh.validate_public_value(dh.TEST_GROUP, dh.TEST_GROUP.prime + 5)


def test_shared_secret_validates_peer():
    rng = DeterministicRandom(5)
    pair = dh.generate_keypair(dh.TEST_GROUP, rng)
    with pytest.raises(dh.InvalidPublicValue):
        pair.shared_secret(1)


def test_test_group_prime_is_safe_prime():
    p = dh.TEST_GROUP.prime
    q = (p - 1) // 2
    # Fermat tests with several bases — cheap and adequate here.
    for base in (2, 3, 5, 7, 11):
        assert pow(base, p - 1, p) == 1
        assert pow(base, q - 1, q) == 1


def test_standard_groups_are_registered():
    assert dh.GROUPS_BY_NAME["modp-2048"].bits == 2048
    assert dh.GROUPS_BY_NAME["oakley-group-2"].bits == 1024
    assert dh.GROUPS_BY_NAME["test-256"].bits == 256


def test_modp2048_known_prime_properties():
    p = dh.MODP_2048.prime
    # RFC 3526 primes are ≡ 7 mod 8 and start/end with 64 one-bits.
    assert p % 2 == 1
    assert p >> (2048 - 64) == (1 << 64) - 1
    assert p & ((1 << 64) - 1) == (1 << 64) - 1


def test_element_bytes():
    assert dh.MODP_2048.element_bytes() == 256
    assert dh.TEST_GROUP.element_bytes() == 32


def test_int_encoding_roundtrip():
    value = 0x1234567890ABCDEF
    encoded = dh.int_to_group_bytes(dh.TEST_GROUP, value)
    assert len(encoded) == 32
    assert dh.bytes_to_int(encoded) == value


def test_agreement_on_modp2048():
    rng = DeterministicRandom(6)
    alice = dh.generate_keypair(dh.MODP_2048, rng)
    bob = dh.generate_keypair(dh.MODP_2048, rng)
    assert alice.shared_secret(bob.public) == bob.shared_secret(alice.public)


# --- fixed-base comb ----------------------------------------------------

@pytest.mark.parametrize(
    "group", list(dh.GROUPS_BY_NAME.values()), ids=lambda g: g.name
)
def test_fixed_base_pow_matches_builtin_pow(group):
    p, g = group.prime, group.generator
    rng = DeterministicRandom(17)
    exponents = [0, 1, 2, 255, 256, 257, p - 2]
    exponents += [rng.randrange(2, p - 1) for _ in range(8)]
    for x in exponents:
        assert dh.fixed_base_pow(group, x) == pow(g, x, p), x


def test_fixed_base_table_keyed_by_group_value():
    """A client's "negotiated" group with the same (p, g) shares the table."""
    negotiated = dh.DHGroup("negotiated", dh.TEST_GROUP.prime, dh.TEST_GROUP.generator)
    assert dh._fixed_base_table(negotiated) is dh._fixed_base_table(dh.TEST_GROUP)
    other = dh.DHGroup("negotiated", dh.TEST_GROUP.prime, 5)
    assert dh.fixed_base_pow(other, 12345) == pow(5, 12345, other.prime)


def test_generate_keypair_rng_consumption_unchanged():
    """Keygen draws exactly the reference's bytes: one randrange, nothing else."""
    rng = DeterministicRandom(2016)
    reference = DeterministicRandom(2016)
    for _ in range(5):
        pair = dh.generate_keypair(dh.TEST_GROUP, rng)
        private = reference.randrange(2, dh.TEST_GROUP.prime - 1)
        assert pair.private == private
        assert pair.public == pow(dh.TEST_GROUP.generator, private, dh.TEST_GROUP.prime)
        assert rng.bytes_generated == reference.bytes_generated
    assert rng.random_bytes(16) == reference.random_bytes(16)
