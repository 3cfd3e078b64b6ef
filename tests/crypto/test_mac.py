"""Tests for the hashlib-based HMAC-SHA-256."""

import hmac

import pytest

from repro.crypto.mac import hmac_sha256, hmac_sha256_pads

# RFC 4231 §4, HMAC-SHA-256 outputs.  Case 5 is truncated to 128 bits;
# cases 6 and 7 use a 131-byte key, longer than the 64-byte block.
RFC4231_CASES = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    (b"\x0c" * 20, b"Test With Truncation",
     "a3b6167473100ee06e0c796c2955552b"),
    (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    (b"\xaa" * 131,
     b"This is a test using a larger than block-size key and a larger than "
     b"block-size data. The key needs to be hashed before being used by the "
     b"HMAC algorithm.",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
]


@pytest.mark.parametrize("key,data,expected", RFC4231_CASES,
                         ids=[f"case{i}" for i in range(1, 8)])
def test_rfc4231_vectors(key, data, expected):
    tag = hmac_sha256(key, data)
    assert len(tag) == 32
    assert tag[: len(expected) // 2].hex() == expected


@pytest.mark.parametrize("key_length", [0, 1, 31, 32, 33, 63, 64, 65, 128, 200])
def test_matches_stdlib_hmac(key_length):
    key = bytes((7 * i + key_length) & 0xFF for i in range(key_length))
    for length in range(201):
        data = bytes((13 * i + length) & 0xFF for i in range(length))
        assert hmac_sha256(key, data) == hmac.digest(key, data, "sha256")


@pytest.mark.parametrize("key_length", [0, 32, 64, 65])
def test_pads_are_block_sized_and_differ_by_the_pad_constants(key_length):
    ipad, opad = hmac_sha256_pads(b"\x5a" * key_length)
    assert len(ipad) == len(opad) == 64
    assert bytes(i ^ o for i, o in zip(ipad, opad)) == bytes([0x36 ^ 0x5C]) * 64


def test_accepts_buffer_messages():
    key, data = b"k" * 40, b"message bytes"
    expected = hmac.digest(key, data, "sha256")
    assert hmac_sha256(key, bytearray(data)) == expected
    assert hmac_sha256(key, memoryview(data)) == expected
