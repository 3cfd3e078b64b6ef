"""Tests for the deterministic HMAC-DRBG."""

import hashlib
import hmac
import struct

import pytest

from repro.crypto.rng import DeterministicRandom


def test_same_seed_same_stream():
    a = DeterministicRandom(1234)
    b = DeterministicRandom(1234)
    assert a.random_bytes(64) == b.random_bytes(64)


def test_different_seeds_differ():
    assert DeterministicRandom(1).random_bytes(32) != DeterministicRandom(2).random_bytes(32)


def test_seed_types_accepted():
    assert DeterministicRandom(b"bytes").random_bytes(8)
    assert DeterministicRandom("string").random_bytes(8)
    assert DeterministicRandom(42).random_bytes(8)


def test_string_and_bytes_seeds_are_consistent():
    assert (
        DeterministicRandom("abc").random_bytes(16)
        == DeterministicRandom(b"abc").random_bytes(16)
    )


def test_random_bytes_length():
    rng = DeterministicRandom(1)
    for n in (0, 1, 31, 32, 33, 1000):
        assert len(rng.random_bytes(n)) == n


def test_random_bytes_negative_rejected():
    with pytest.raises(ValueError):
        DeterministicRandom(1).random_bytes(-1)


def test_random_int_bit_bound():
    rng = DeterministicRandom(5)
    for bits in (1, 7, 8, 9, 64, 257):
        for _ in range(20):
            assert 0 <= rng.random_int(bits) < (1 << bits)


def test_random_int_rejects_nonpositive():
    with pytest.raises(ValueError):
        DeterministicRandom(1).random_int(0)


def test_randbelow_range_and_coverage():
    rng = DeterministicRandom(6)
    seen = {rng.randbelow(5) for _ in range(300)}
    assert seen == {0, 1, 2, 3, 4}


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        DeterministicRandom(1).randbelow(0)


def test_randrange_bounds():
    rng = DeterministicRandom(7)
    for _ in range(100):
        assert 10 <= rng.randrange(10, 20) < 20


def test_randrange_empty():
    with pytest.raises(ValueError):
        DeterministicRandom(1).randrange(5, 5)


def test_choice_and_empty_choice():
    rng = DeterministicRandom(8)
    assert rng.choice([3]) == 3
    assert rng.choice("abcd") in "abcd"
    with pytest.raises(IndexError):
        rng.choice([])


def test_sample_without_replacement():
    rng = DeterministicRandom(9)
    population = list(range(50))
    picked = rng.sample(population, 20)
    assert len(picked) == 20
    assert len(set(picked)) == 20
    assert set(picked) <= set(population)


def test_sample_too_large():
    with pytest.raises(ValueError):
        DeterministicRandom(1).sample([1, 2], 3)


def test_shuffle_is_permutation():
    rng = DeterministicRandom(10)
    items = list(range(30))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_uniform_and_random_ranges():
    rng = DeterministicRandom(11)
    for _ in range(200):
        assert 0.0 <= rng.random() < 1.0
        assert 2.5 <= rng.uniform(2.5, 3.5) < 3.5


def test_fork_independence():
    root = DeterministicRandom(1)
    a = root.fork("a")
    b = root.fork("b")
    assert a.random_bytes(16) != b.random_bytes(16)


def test_fork_deterministic_across_instances():
    x = DeterministicRandom(1).fork("child").random_bytes(16)
    y = DeterministicRandom(1).fork("child").random_bytes(16)
    assert x == y


def test_fork_does_not_disturb_parent():
    a = DeterministicRandom(1)
    b = DeterministicRandom(1)
    a.fork("ignored")
    assert a.random_bytes(16) == b.random_bytes(16)


def test_reseed_changes_stream():
    a = DeterministicRandom(1)
    b = DeterministicRandom(1)
    a.reseed(b"extra")
    assert a.random_bytes(16) != b.random_bytes(16)


def test_byte_distribution_is_roughly_uniform():
    rng = DeterministicRandom(12)
    data = rng.random_bytes(200_000)
    counts = [0] * 256
    for byte in data:
        counts[byte] += 1
    mean = len(data) / 256
    assert all(0.8 * mean < c < 1.2 * mean for c in counts)


def test_bytes_generated_counter():
    rng = DeterministicRandom(1)
    rng.random_bytes(10)
    rng.random_bytes(20)
    assert rng.bytes_generated == 30


class _ReferenceDRBG:
    """The HMAC-DRBG written out plainly with :func:`hmac.new`.

    ``_update`` and the generate loop follow NIST SP 800-90A §10.1.2;
    integers are seeded by their minimal big-endian encoding.
    """

    def __init__(self, seed):
        if isinstance(seed, int):
            seed = seed.to_bytes((seed.bit_length() + 7) // 8 or 1, "big")
        elif isinstance(seed, str):
            seed = seed.encode("utf-8")
        self.key = b"\x00" * 32
        self.value = b"\x01" * 32
        self.update(seed)

    def hmac(self, key, data):
        return hmac.new(key, data, hashlib.sha256).digest()

    def update(self, provided):
        self.key = self.hmac(self.key, self.value + b"\x00" + (provided or b""))
        self.value = self.hmac(self.key, self.value)
        if provided:
            self.key = self.hmac(self.key, self.value + b"\x01" + provided)
            self.value = self.hmac(self.key, self.value)

    def random_bytes(self, n):
        out = b""
        while len(out) < n:
            self.value = self.hmac(self.key, self.value)
            out += self.value
        self.update(None)
        return out[:n]

    def random_int(self, bits):
        nbytes = (bits + 7) // 8
        return int.from_bytes(self.random_bytes(nbytes), "big") >> (nbytes * 8 - bits)

    def randbelow(self, upper):
        while True:
            candidate = self.random_int(upper.bit_length())
            if candidate < upper:
                return candidate

    def uniform(self, lower, upper):
        return lower + (upper - lower) * (self.random_int(53) / (1 << 53))

    def reseed(self, data):
        self.update(data)

    def fork(self, label):
        return _ReferenceDRBG(self.hmac(self.key, b"fork:" + label.encode("utf-8")))


_DRAW_SIZES = (0, 1, 7, 16, 31, 32, 33, 48, 64, 1000)


def _operations(rng):
    """A fixed sequence exercising every state transition of the DRBG."""
    out = [rng.random_bytes(n) for n in _DRAW_SIZES]
    out += [rng.random_int(bits) for bits in (1, 8, 53, 257)]
    out += [rng.randbelow(upper) for upper in (1, 3, 1000, 2**64 + 1)]
    out += [rng.uniform(-1.0, 3.0) for _ in range(3)]
    child = rng.fork("child")
    out += [child.random_bytes(n) for n in _DRAW_SIZES]
    rng.reseed(b"example.com")
    out += [rng.random_bytes(n) for n in reversed(_DRAW_SIZES)]
    out.append(child.fork("grandchild").random_bytes(100))
    child.reseed(b"")
    out.append(child.random_bytes(33))
    return out


@pytest.mark.parametrize("seed", [0, 1, 255, 256, 2016, 2**70, "", "abc", b"", b"\x00seed"])
def test_matches_reference_hmac_drbg(seed):
    assert _operations(DeterministicRandom(seed)) == _operations(_ReferenceDRBG(seed))


def _draw_sequence_digest(seed):
    digest = hashlib.sha256()
    for item in _operations(DeterministicRandom(seed)):
        if isinstance(item, int):
            item = item.to_bytes(40, "big")
        elif isinstance(item, float):
            item = struct.pack(">d", item)
        digest.update(item)
    return digest.hexdigest()


# Computed on the generator as it stood before its HMAC was reimplemented;
# any change here changes every ecosystem, ticket and scan the repo makes.
_PINNED_DRAW_DIGESTS = {
    0: "c3124f3a2342a657e849b7f4dbbaba8d78b951904ce2c0c140696d2c3fd6a91b",
    2016: "a530f3c12a8bf8f653f62779556ab90ee18759c33ecfa717bc01ffd810b60a82",
    "abc": "d15a48ff8ccb26b2762301c34443be7f71097530a4256bd3c93671bc332745e9",
}


@pytest.mark.parametrize("seed", sorted(_PINNED_DRAW_DIGESTS, key=repr))
def test_draw_sequence_is_pinned(seed):
    assert _draw_sequence_digest(seed) == _PINNED_DRAW_DIGESTS[seed]


def test_negative_int_seed_rejected():
    with pytest.raises(ValueError, match="-3"):
        DeterministicRandom(-3)
