"""Hash and MAC helpers used throughout the TLS model.

Thin wrappers over :mod:`hashlib` so the rest of the code has a single
place naming its digests, the one HMAC-SHA-256, plus constant-time
comparison.
"""

from __future__ import annotations

import hashlib
import hmac

_sha256 = hashlib.sha256

_BLOCK_SIZE = 64  # SHA-256's input block, B in RFC 2104
# XOR tables for bytes.translate: byte b maps to b ^ ipad / b ^ opad.
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def sha256(data: bytes) -> bytes:
    """SHA-256 digest."""
    return hashlib.sha256(data).digest()


def sha1(data: bytes) -> bytes:
    """SHA-1 digest (used only for legacy identifiers, never security)."""
    return hashlib.sha1(data).digest()


def hmac_sha256_pads(key: bytes) -> tuple[bytes, bytes]:
    """Return HMAC-SHA-256's ``(K ⊕ ipad, K ⊕ opad)`` blocks for ``key``.

    ``key`` is hashed first when longer than the 64-byte block and
    zero-padded to it otherwise (RFC 2104 §2).  A caller MACing several
    messages under one key builds these once and finishes each MAC as
    ``sha256(opad + sha256(ipad + message))``.
    """
    if len(key) > _BLOCK_SIZE:
        key = _sha256(key).digest()
    key = key.ljust(_BLOCK_SIZE, b"\x00")
    return key.translate(_IPAD), key.translate(_OPAD)


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA-256 — RFC 5077's recommended ticket MAC.

    Computes RFC 2104 directly, ``H(K ⊕ opad ‖ H(K ⊕ ipad ‖ data))``,
    with two :mod:`hashlib` SHA-256 calls: that skips the per-call HMAC
    context setup of the :mod:`hmac` module's one-shot digest, which
    costs more than the hashing at the message sizes used here.  The
    output is identical by definition.
    """
    ipad, opad = hmac_sha256_pads(key)
    return _sha256(opad + _sha256(ipad + data).digest()).digest()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe equality (mirrors what real implementations must do)."""
    return hmac.compare_digest(a, b)


__all__ = ["sha256", "sha1", "hmac_sha256", "hmac_sha256_pads", "constant_time_equal"]
