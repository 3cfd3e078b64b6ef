"""The scanner's handshake driver without records.

A :class:`~repro.scanner.records.ScanObservation` records handshake
*decisions* — negotiated suite, resumption outcome, ticket/STEK
identity, the server's key-exchange public value, certificate validity
— not transcripts.  :func:`fast_handshake` calls the same decision
methods of :class:`~repro.tls.server.TLSServer` and
:class:`~repro.tls.client.TLSClient` as the record-layer exchange, in
the same order, but builds no records and runs no PRF, shared-secret
or signature crypto.  Every RNG draw, cache and STEK side effect and
handshake counter lives in those methods, so the two drivers cannot
drift apart.

Master secrets are replaced by one placeholder value: they never
appear in dataset bytes, and sealed tickets keep their exact wire
length (the state is still really sealed, so STEK identities and
ticket formats stay observable).  Connections that need real
transcripts — captures for the passive adversary, or fault-injected
flights whose error strings depend on record structure — take
:meth:`TLSClient.connect` instead.
"""

from __future__ import annotations

from typing import Optional

from ..crypto import dh, ec
from .ciphers import CipherSuite, MODERN_BROWSER_OFFER
from .client import HandshakeResult, TLSClient
from .constants import KeyExchangeKind, ProtocolVersion
from .server import TLSServer
from .session import SessionState

#: Stand-in master secret (48 bytes, like the PRF output).  Used
#: consistently on both sides of every fast connection, so resumption
#: Finished checks pass exactly when they would with the real value.
PLACEHOLDER_MASTER = b"repro-fastpath-placeholder-master".ljust(48, b"\x00")


def fast_handshake(
    client: TLSClient,
    server: TLSServer,
    server_name: str = "",
    offer: tuple[CipherSuite, ...] = MODERN_BROWSER_OFFER,
    session_id: bytes = b"",
    ticket: bytes = b"",
    saved_session: Optional[SessionState] = None,
    offer_tickets: bool = True,
) -> HandshakeResult:
    """One TLS connection without records; mirrors ``TLSClient.connect``.

    Returns the same :class:`HandshakeResult` (minus capture/record
    handles) the record-layer exchange would.
    """
    return client.drive(_exchange, server, server_name, offer, session_id,
                        ticket, saved_session, offer_tickets)


def _exchange(
    client: TLSClient,
    result: HandshakeResult,
    server: TLSServer,
    server_name: str,
    offer: tuple[CipherSuite, ...],
    session_id: bytes,
    ticket: bytes,
    saved_session: Optional[SessionState],
    offer_tickets: bool,
) -> None:
    client.draw_client_random(result)
    now = server._now()
    certificate, _, suite, result.server_random = server.negotiate(server_name, offer)
    offers_tickets = bool(ticket) or offer_tickets
    session, via = server.resume_lookup(ticket, session_id, now)
    if session is not None:
        # Finished exchange: both sides hold the same master secret by
        # construction, so verification succeeds — effects only.
        result.session_id, result.new_ticket = server.resumed_reply(
            session, via, session_id, offers_tickets, now
        )
        server.count_resumption(session.cipher_suite)
        result.cipher_suite = session.cipher_suite
        result.server_supports_tickets = result.new_ticket is not None
        client.record_resumption(result, saved_session, ticket)
        return

    result.session_id, keypair, issue_ticket = server.full_reply(suite, offers_tickets, now)
    result.cipher_suite = suite
    result.server_supports_tickets = issue_ticket
    client.validate_certificate(result, certificate, server_name)
    result.server_kex_kind = kex = suite.kex
    if kex == KeyExchangeKind.RSA:
        client.rsa_premaster(certificate)
    elif kex == KeyExchangeKind.DHE:
        group = keypair.group
        client.dh_keypair(group.prime, group.generator, keypair.public)
        result.server_kex_public = dh.int_to_group_bytes(group, keypair.public)
    else:
        client.ec_keypair(keypair.curve)
        result.server_kex_public = ec.encode_point(keypair.curve, keypair.public)

    session = SessionState(
        master_secret=PLACEHOLDER_MASTER,
        cipher_suite=suite,
        version=ProtocolVersion.TLS12,
        created_at=now,
        domain=server_name,
    )
    result.new_ticket = server.establish(session, result.session_id, issue_ticket, now)
    client.record_full(result, session)


__all__ = ["fast_handshake", "PLACEHOLDER_MASTER"]
