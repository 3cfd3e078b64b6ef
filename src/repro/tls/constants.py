"""Protocol constants: versions, message types, alerts, extensions.

Wire values follow the IANA TLS registries so that serialized
handshakes look like the real protocol the paper's scanner spoke.
"""

from __future__ import annotations

from enum import IntEnum


class ProtocolVersion(IntEnum):
    """TLS protocol versions as (major << 8 | minor)."""

    SSL30 = 0x0300
    TLS10 = 0x0301
    TLS11 = 0x0302
    TLS12 = 0x0303

    @property
    def wire(self) -> bytes:
        return self.value.to_bytes(2, "big")


class ContentType(IntEnum):
    """Record-layer content types (RFC 5246 §6.2.1)."""

    CHANGE_CIPHER_SPEC = 20
    ALERT = 21
    HANDSHAKE = 22
    APPLICATION_DATA = 23


class HandshakeType(IntEnum):
    """Handshake message types (RFC 5246 §7.4, RFC 5077 §3.3)."""

    HELLO_REQUEST = 0
    CLIENT_HELLO = 1
    SERVER_HELLO = 2
    NEW_SESSION_TICKET = 4
    CERTIFICATE = 11
    SERVER_KEY_EXCHANGE = 12
    CERTIFICATE_REQUEST = 13
    SERVER_HELLO_DONE = 14
    CERTIFICATE_VERIFY = 15
    CLIENT_KEY_EXCHANGE = 16
    FINISHED = 20


class AlertLevel(IntEnum):
    WARNING = 1
    FATAL = 2


class AlertDescription(IntEnum):
    """Alert codes the simulated endpoints actually emit."""

    CLOSE_NOTIFY = 0
    UNEXPECTED_MESSAGE = 10
    BAD_RECORD_MAC = 20
    DECODE_ERROR = 50
    HANDSHAKE_FAILURE = 40
    ILLEGAL_PARAMETER = 47
    UNRECOGNIZED_NAME = 112
    INTERNAL_ERROR = 80
    CERTIFICATE_UNKNOWN = 46
    DECRYPT_ERROR = 51


class ExtensionType(IntEnum):
    """Extension codepoints (IANA TLS ExtensionType registry)."""

    SERVER_NAME = 0
    SUPPORTED_GROUPS = 10
    EC_POINT_FORMATS = 11
    SESSION_TICKET = 35
    RENEGOTIATION_INFO = 0xFF01


class KeyExchangeKind(IntEnum):
    """The three key-exchange families the study distinguishes."""

    RSA = 0
    DHE = 1
    ECDHE = 2


#: Each family's label as the dataset (``kex_kind``), the metric labels
#: (``kex=``) and ``parse_handshake``'s ServerKeyExchange hint spell it.
KEX_LABELS = {kind: kind.name.lower() for kind in KeyExchangeKind}


RANDOM_LENGTH = 32
SESSION_ID_LENGTH = 32
VERIFY_DATA_LENGTH = 12
MASTER_SECRET_LENGTH = 48
STEK_KEY_NAME_LENGTH = 16

# RFC 5246 suggests a 24-hour upper bound on session lifetimes.
RFC5246_MAX_SESSION_LIFETIME_SECONDS = 24 * 3600


__all__ = [
    "ProtocolVersion",
    "ContentType",
    "HandshakeType",
    "AlertLevel",
    "AlertDescription",
    "ExtensionType",
    "KeyExchangeKind",
    "KEX_LABELS",
    "RANDOM_LENGTH",
    "SESSION_ID_LENGTH",
    "VERIFY_DATA_LENGTH",
    "MASTER_SECRET_LENGTH",
    "STEK_KEY_NAME_LENGTH",
    "RFC5246_MAX_SESSION_LIFETIME_SECONDS",
]
