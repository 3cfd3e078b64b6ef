"""Finite-field Diffie-Hellman key exchange (TLS DHE).

Provides the standard MODP groups TLS servers actually ship (RFC 3526
group 14, the Oakley group 2 that old Apache defaults used) plus a
small test group so unit tests run instantly.  Key generation computes
``g^x mod p`` with a fixed-base comb over a per-group table of
``g^(d·256^i)``: one modular multiplication per nonzero exponent byte
instead of a square-and-multiply over every bit, because a server under
the paper's FRESH reuse policy generates a new DHE value for every full
handshake.  Shared secrets (a variable base) use the built-in ``pow``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rng import DeterministicRandom

# RFC 2409 §6.2 (Oakley group 2, 1024-bit) — the group many legacy
# servers served and the one Logjam showed was dangerously common.
OAKLEY_GROUP_2_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
    "49286651ECE65381FFFFFFFFFFFFFFFF",
    16,
)

# RFC 3526 §3 (group 14, 2048-bit) — the common "strong" DHE group.
MODP_2048_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
    "49286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8"
    "FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C"
    "180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFF"
    "FFFFFFFF",
    16,
)

# A 256-bit safe prime for fast unit tests (2*q + 1 with q prime).
TEST_PRIME_256 = int(
    "C998FF967972196995C8DE6284B5BF11A36AE4D26BD3767468E33BD0E61A5A7F",
    16,
)


@dataclass(frozen=True)
class DHGroup:
    """A finite cyclic group for Diffie-Hellman: prime modulus + generator."""

    name: str
    prime: int
    generator: int = 2

    @property
    def bits(self) -> int:
        """Size of the group modulus in bits."""
        return self.prime.bit_length()

    def element_bytes(self) -> int:
        """Wire size of a group element in bytes."""
        return (self.bits + 7) // 8


OAKLEY_GROUP_2 = DHGroup("oakley-group-2", OAKLEY_GROUP_2_PRIME, 2)
MODP_2048 = DHGroup("modp-2048", MODP_2048_PRIME, 2)
TEST_GROUP = DHGroup("test-256", TEST_PRIME_256, 2)

GROUPS_BY_NAME = {
    group.name: group for group in (OAKLEY_GROUP_2, MODP_2048, TEST_GROUP)
}


@dataclass(frozen=True)
class DHKeyPair:
    """One side's Diffie-Hellman state: the secret exponent and public value."""

    group: DHGroup
    private: int
    public: int

    def shared_secret(self, peer_public: int) -> int:
        """Compute ``peer_public ** private mod p``."""
        validate_public_value(self.group, peer_public)
        return pow(peer_public, self.private, self.group.prime)

    def shared_secret_bytes(self, peer_public: int) -> bytes:
        """The premaster secret: the shared value, fixed-width big-endian."""
        return int_to_group_bytes(self.group, self.shared_secret(peer_public))


class InvalidPublicValue(ValueError):
    """A peer offered a DH public value outside the valid range."""


def validate_public_value(group: DHGroup, public: int) -> None:
    """Reject degenerate public values (0, 1, p-1, out of range).

    Real TLS stacks that skip this check are vulnerable to small-
    subgroup confinement; our server model performs it so tests can
    assert that malformed scanner probes are refused.
    """
    if not 1 < public < group.prime - 1:
        raise InvalidPublicValue(f"public value out of range for {group.name}")


#: (prime, generator) -> rows ``[g^(d·256^i) mod p for d in 0..255]``,
#: one row per exponent byte.  Keyed by the group's value, not its name,
#: because a client builds a "negotiated" group from the wire.
_fixed_base_tables: dict[tuple[int, int], list[list[int]]] = {}


def _fixed_base_table(group: DHGroup) -> list[list[int]]:
    """Precompute ``g^(d·256^i) mod p`` for the fixed-base comb.

    Built lazily once per group: ``element_bytes()`` rows of 256 values,
    about 0.56 MB for test-256 and 20 MB for modp-2048.
    """
    key = (group.prime, group.generator)
    table = _fixed_base_tables.get(key)
    if table is not None:
        return table
    p = group.prime
    table = []
    row_base = group.generator % p
    for _ in range(group.element_bytes()):
        row = [1]
        for _ in range(255):
            row.append(row[-1] * row_base % p)
        table.append(row)
        row_base = row[-1] * row_base % p
    _fixed_base_tables[key] = table
    return table


def fixed_base_pow(group: DHGroup, exponent: int) -> int:
    """``g^exponent mod p`` for ``0 <= exponent < p``, by the comb table."""
    p = group.prime
    result = 1
    digits = exponent.to_bytes(group.element_bytes(), "little")
    for row, digit in zip(_fixed_base_table(group), digits):
        if digit:
            result = result * row[digit] % p
    return result


def generate_keypair(group: DHGroup, rng: DeterministicRandom) -> DHKeyPair:
    """Generate a fresh exponent in ``[2, p-2]`` and its public value."""
    private = rng.randrange(2, group.prime - 1)
    return DHKeyPair(group=group, private=private, public=fixed_base_pow(group, private))


def int_to_group_bytes(group: DHGroup, value: int) -> bytes:
    """Encode a group element as a fixed-width big-endian byte string."""
    return value.to_bytes(group.element_bytes(), "big")


def bytes_to_int(data: bytes) -> int:
    """Decode a big-endian byte string into an integer."""
    return int.from_bytes(data, "big")


__all__ = [
    "DHGroup",
    "DHKeyPair",
    "InvalidPublicValue",
    "OAKLEY_GROUP_2",
    "MODP_2048",
    "TEST_GROUP",
    "GROUPS_BY_NAME",
    "generate_keypair",
    "fixed_base_pow",
    "validate_public_value",
    "int_to_group_bytes",
    "bytes_to_int",
]
